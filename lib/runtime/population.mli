(** The flow population of one runtime scenario: everything the
    scenario families share apart from their sidecars, junction
    routing and report.

    It owns:
    - the workload: per-flow sizes and start times;
    - one server sender per flow, logging every transmission into that
      flow's {!Sidecar_quack.Quack_consumer};
    - one client receiver per flow;
    - the client and server-side demultiplexers;
    - the start-and-poll schedule that releases proxy slots;
    - the FCT, retransmission, timeout and duplicate summary.

    Determinism: {!create} draws the workload from the next split of
    the engine's RNG, so call it straight after {!Sidecar_protocols.Path.build},
    before anything else splits that RNG. *)

type sizes =
  | Sampled of Netsim.Workload.size_dist
      (** clamped to [[min_units, max_units]] *)
  | Bimodal  (** a fair coin per flow: [min_units] or [max_units] *)

type sidecar =
  | No_sidecar
      (** senders log nothing; the consumers exist but are never fed *)
  | Unguarded  (** consumers without a replay guard *)
  | Guarded  (** consumers with a {!Sidecar_quack.Replay_guard} *)

type t

val create :
  name:string ->
  Sidecar_protocols.Path.built ->
  flows:int ->
  sizes:sizes ->
  min_units:int ->
  max_units:int ->
  arrival:Netsim.Workload.arrival ->
  mss:int ->
  id_key_base:int ->
  ?pkt_threshold:int ->
  sketch:Sidecar_quack.Sender_state.config ->
  sidecar:sidecar ->
  client:(Transport.Receiver.t -> Netsim.Packet.t -> unit) option ->
  ack_link:(int -> Netsim.Link.t) ->
  unit ->
  t
(** [flows] senders send on the path's first forward link. Flow [i]'s
    identifiers are keyed by [id_key_base + i]. Its end-to-end ACKs
    leave on [ack_link i], chosen at send time. [client] runs on every
    data packet a receiver takes, before it ACKs.
    @raise Invalid_argument ["<name>.run: need at least one flow"] or
    ["<name>.run: bad unit bounds"]. *)

val units : t -> int -> int
val start_at : t -> int -> Netsim.Sim_time.t
val consumer : t -> int -> int Sidecar_quack.Quack_consumer.t
val flow_done : t -> int -> bool
val all_done : t -> bool

val consume :
  t -> int -> ?index:int -> Sidecar_quack.Quack.t -> int Sidecar_quack.Quack_consumer.outcome
(** Feed flow [i]'s consumer ({!Sidecar_quack.Quack_consumer.consume}).
    A [Decoded] report's acknowledged packets release window space at
    the sender first (§2.2's server sidecar). *)

val attach_clients : t -> Netsim.Link.t list -> unit
(** Deliver these client-side links to the receivers, counting the
    bytes they carry. *)

val server_demux :
  t -> (int -> Netsim.Packet.payload -> bool) -> Netsim.Packet.t -> unit
(** A server-side receive function. [feedback i payload] handles flow
    [i]'s sidecar feedback and returns [true]; any other packet is an
    end-to-end ACK for flow [i]'s sender. Packets of unknown flows are
    dropped. *)

val start :
  t ->
  period:Netsim.Sim_time.span ->
  on_start:(int -> unit) ->
  on_tick:(int -> unit) ->
  proxies:Proxy.t list ->
  until:Netsim.Sim_time.t ->
  unit
(** Schedule each flow at its start time. At start the sender starts,
    then [on_start i] runs, then a poll every [period] begins. The poll
    releases the flow's slot in every proxy once the flow completes.
    Until then it runs [on_tick i] and re-arms, up to [until]. *)

type flow_report = {
  flow : int;
  units : int;
  started_at : Netsim.Sim_time.t;
  completed : bool;
  fct_s : float;  (** flow completion time, seconds; [nan] if incomplete *)
  transmissions : int;
  retransmissions : int;
  timeouts : int;
  duplicates : int;
}

type summary = {
  per_flow : flow_report array;
  completed : int;
  fct_p50 : float;  (** seconds over completed flows; [nan] if none *)
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  retransmissions : int;
  timeouts : int;
  duplicates : int;  (** duplicate deliveries at the clients *)
  data_delivered_bytes : int;  (** seen on the {!attach_clients} links *)
  srv_resyncs : int;  (** the consumers' §3.3 resyncs *)
  srv_replays : int;  (** replays the consumers' guards dropped *)
}

val summary : t -> summary
