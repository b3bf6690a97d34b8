(** The per-flow sidecar protocol interface — one shape from the
    single-flow experiments to the multi-flow runtime.

    A protocol describes what a sidecar node does for {e one} flow:
    how it reacts to data packets crossing the junction, to quACK
    feedback addressed to it, to frequency-control frames, to a
    periodic timer, and to its state being evicted from a bounded
    table. Harnesses supply the plumbing: {!Node} adapts a protocol to
    a single-flow {!Chain} junction, and [Sidecar_runtime.Proxy]
    demultiplexes many flows onto per-flow instances from a bounded
    [Flow_table].

    Instantiation ({!t.init}) must have no engine side effects — no
    scheduling, no RNG draws — so harnesses are free to construct
    flows at any point during setup without disturbing event order. *)

val server_addr : string
(** The conventional quACK destination for the sending end host's
    sidecar ("server"). *)

(** Aggregate tallies a harness reads after a run. The fields are
    [Obs.Metrics.Counter] cells: protocol instances sharing one record
    (a bracketing proxy pair, or all the flows of a multi-flow proxy)
    sum into the same cells, and a harness can expose the record in an
    engine's metrics registry with {!register_counters} — same cells,
    no copying. *)
type counters = {
  quacks_tx : Obs.Metrics.Counter.t;  (** quACKs emitted *)
  quack_bytes : Obs.Metrics.Counter.t;  (** wire bytes of those quACKs *)
  resyncs : Obs.Metrics.Counter.t;
      (** §3.3 unilateral resyncs after decode overload *)
  replays_dropped : Obs.Metrics.Counter.t;
      (** regressed-index quACKs whose contents matched a remembered
          emission: dropped by the replay guard instead of resyncing *)
  buffer_bypass : Obs.Metrics.Counter.t;
      (** packets pushed out unpaced (full buffer) *)
  flushed_on_evict : Obs.Metrics.Counter.t;
      (** buffered packets flushed by eviction *)
  freq_sent : Obs.Metrics.Counter.t;  (** frequency-update frames emitted *)
  retransmissions : Obs.Metrics.Counter.t;
      (** local (in-network) retransmissions *)
}

val fresh_counters : unit -> counters

val register_counters : Obs.Metrics.t -> prefix:string -> counters -> unit
(** Attach every cell under ["<prefix>.<field>"]. *)

(** Everything a protocol instance may touch: the engine (clock and
    timers only — identity comes from the harness), the flow tag its
    emitted frames carry, and the two directions out of its junction. *)
type ctx = {
  engine : Netsim.Engine.t;
  flow : int;
  forward : Netsim.Packet.t -> unit;  (** toward the receiving end host *)
  backward : Netsim.Packet.t -> unit;  (** toward the sending end host *)
  counters : counters;
}

(** A point-in-time view of one flow's state, for reports. *)
type info = {
  buffered : int;  (** packets held (pacing buffer or copy buffer) *)
  outstanding : int;  (** logged sends not yet covered by a quACK *)
  window_bytes : int;  (** pacing window, when the protocol keeps one *)
  upstream_interval : int;  (** current quACK-every cadence *)
  buffer_peak : int;
}

val no_info : info

(** One flow's live handlers. All are total: a handler that does not
    apply to the protocol is a no-op, never an error. *)
type flow = {
  on_data : Netsim.Packet.t -> unit;
      (** A data packet arrived from the sender side. The flow is
          responsible for forwarding it (or buffering it for paced
          forwarding) via [ctx.forward]. *)
  on_feedback : index:int -> Sidecar_quack.Quack.t -> unit;
      (** A quACK addressed to this node arrived from the receiver
          side. *)
  on_freq : int -> unit;
      (** A frequency-update frame addressed to this node. *)
  on_timer : unit -> unit;  (** One tick of the protocol's timer. *)
  on_evict : unit -> unit;
      (** The flow's state is leaving a bounded table: flush or
          discard anything held so no data is stranded. *)
  on_release : unit -> unit;
      (** The flow terminated cleanly and its state is being
          discarded (voluntary [Flow_table.remove], {e not}
          eviction): drop any state kept outside the flow record
          (e.g. a registry entry) without eviction's flush/teardown
          semantics. *)
  info : unit -> info;
}

type timer_scope =
  | Flow_active  (** reschedule while the run continues and the flow is open *)
  | Until  (** reschedule until the simulation horizon *)

type timer = { period : Netsim.Sim_time.span; scope : timer_scope }

type t = {
  name : string;
  addr : string;
      (** destination tag this node consumes ([Sframes] frames whose
          [dst] equals [addr] are handled; others ride along) *)
  timer : timer option;
  init : ctx -> flow;
}

(** A protocol implementation: a config type and a constructor. *)
module type S = sig
  type config

  val make : config -> t
end

val send_quack :
  ?src:string ->
  ctx -> dst:string -> index:int -> count_omitted:bool ->
  Sidecar_quack.Quack.t -> unit
(** Emit one quACK on the return path ([ctx.backward]), tallying
    [quacks_tx] and [quack_bytes] and recording a [Quack_sent] trace
    event when the [Quack] category is enabled. [src] (default
    ["proxy"]) names the emitting sidecar so a sender merging feedback
    from several paths can attribute the quACK. *)

val trace : ctx -> Obs.Trace.event -> unit
(** Record a trace event on the engine's ring at the current clock
    (masked by the event's category, like [Obs.Trace.record]). For
    rare events — resyncs, evictions; hot paths should guard with
    [Obs.Trace.on] before building the event. *)
