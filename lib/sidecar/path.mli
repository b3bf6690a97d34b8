(** Path descriptions and the no-sidecar baseline.

    A path is one or more duplex segments in series; proxies sit at
    the junctions. Loss is described declaratively so every scenario
    run gets fresh (unshared) loss-model state. *)

type loss_spec =
  | No_loss
  | Bernoulli of float
  | Gilbert of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_bad : float;
    }

val to_loss : loss_spec -> Netsim.Loss.t
val average_loss : loss_spec -> float

val bursty : float -> loss_spec
(** [bursty avg] is the §2.3 subpath's bursty loss with long-run
    average [avg]: a Gilbert–Elliott model that loses 30 % of packets
    in its bad state and leaves it with probability 0.2 per packet.
    [bursty 0.] is [No_loss].
    @raise Invalid_argument when [avg] is negative or so high (about
    0.25 and up) that the derived good-to-bad probability leaves
    [\[0, 1\]]. *)

val pp_loss : Format.formatter -> loss_spec -> unit

type segment = {
  rate_bps : int;
  delay : Netsim.Sim_time.span;  (** one-way propagation *)
  loss : loss_spec;  (** applied to the forward (data) direction *)
  rev_loss : loss_spec;  (** return direction (ACKs, quACKs) *)
  codel : bool;  (** CoDel AQM on the forward queue (default drop-tail) *)
}

val segment :
  ?loss:loss_spec -> ?rev_loss:loss_spec -> ?codel:bool -> rate_bps:int ->
  delay:Netsim.Sim_time.span -> unit -> segment
(** @raise Invalid_argument (naming the offending field and value) on
    [rate_bps <= 0], negative [delay], or any loss probability outside
    [\[0, 1\]] (NaN included). *)

val rtt : segment list -> Netsim.Sim_time.span
(** End-to-end round-trip propagation of the path. *)

val satellite : segment
(** High-BDP GEO-like hop: 20 Mbps, 280 ms one-way, rare deep
    Gilbert-Elliott bursts. A preset for the mobility/multipath
    scenario families (§5). *)

val cellular : segment
(** Cellular/LTE-like last mile: 30 Mbps, 40 ms one-way, frequent
    shallow Gilbert-Elliott bursts. *)

val congested_cell : segment
(** A congested cell: [cellular]'s delay class but a markedly worse
    loss regime (25 Mbps, 50 ms, burstier). The default handover
    target and second multipath branch — same delay class, so one
    end-to-end RTT estimator stays valid across both. *)

type built = {
  engine : Netsim.Engine.t;
  fwd : Netsim.Link.t array;  (** forward links, sender side first *)
  rev : Netsim.Link.t array;  (** return links, {e receiver} side first *)
}

val build : ?seed:int -> segment list -> built
(** Instantiate links (delivery unwired — callers connect nodes). *)

val baseline :
  ?seed:int ->
  ?units:int ->
  ?mss:int ->
  ?ack_every:int ->
  ?cc:(mss:int -> unit -> Transport.Cc.t) ->
  ?until:Netsim.Sim_time.t ->
  segment list ->
  Transport.Flow.result
(** The comparison point for every sidecar protocol: the same path
    with plain store-and-forward junctions and no sidecar anywhere. *)
