(** The quACK leakage probe (the §5 privacy question made executable):
    even with every quACK authenticated, an on-path observer still sees
    {e that} quACKs flow, {e how big} they are and {e when} — enough to
    recover coarse flow properties. Two arms over the same seeded
    workload:

    Each flow is independently small ([min_units]) or large
    ([max_units]); the observer tries to recover that bit per flow by
    thresholding per-flow emission counts at the median.

    - [shape = false]: sealed quACKs leave the junction as emitted —
      the count tracks the flow's packet count and the stream's
      lifetime tracks the flow's, so [observer_accuracy] is high.
    - [shape = true]: the quACK channel is padded to a constant size
      and paced onto a fixed grid — one emission slot per [grid] tick
      carrying the freshest buffered quACK (intermediate emissions
      coalesce), or a byte-identical dummy re-emission (chaff) when
      none is buffered — and the slot clock keeps running until
      [pad_session] past flow start, so stream lifetime stops tracking
      flow lifetime. The server's {!Sidecar_quack.Replay_guard}
      absorbs the chaff silently, so shaping needs {e no} server-side
      protocol change. The cost shows up in FCT (delayed, coarser
      credit) and bytes on the wire.

    The server verifies tags and runs the replay guard in {e both}
    arms — this family measures leakage, not forgeability (that is
    {!Adversary}). *)

type config = {
  shape : bool;  (** pace, pad and dummy-fill the quACK channel *)
  grid : Netsim.Sim_time.span;  (** shaping clock: one emission slot per tick *)
  pad_session : Netsim.Sim_time.span;
      (** shaping: keep the per-flow slot clock running (dummy-filled)
          until at least this long after flow start *)
  flows : int;
  table_flows : int;
  near : Sidecar_protocols.Path.segment;
  far : Sidecar_protocols.Path.segment;
  mss : int;
  min_units : int;  (** the small flow-size class *)
  max_units : int;  (** the large flow-size class *)
  arrival : Netsim.Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Netsim.Sim_time.t;
}

val default_config : config
(** Unshaped, 50 ms grid, 8 s padded sessions, 40 small-or-large flows
    over a cellular far segment. *)

val arms : config -> (string * config) list
(** The family's compared arms over [base], in report order: the
    [unshaped] and [shaped] quACK channel. *)

type report = {
  shaped : bool;
  flows : int;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  quacks_on_wire : int;  (** sealed emissions the observer saw *)
  quack_bytes_on_wire : int;
  dummy_quacks : int;  (** shaping chaff (byte-identical re-emissions) *)
  replays_dropped : int;  (** chaff absorbed by the server's guard *)
  observer_accuracy : float;
      (** fraction of flows whose size class (small vs. large) a
          count-thresholding on-path observer labels correctly *)
  srv_resyncs : int;
  retransmissions : int;
  timeouts : int;
  sim_end : Netsim.Sim_time.t;
}

val run : config -> report
(** @raise Invalid_argument on a non-positive flow count or grid, bad
    unit bounds, or a negative [pad_session]. *)

val arm_name : report -> string
(** ["shaped"] or ["unshaped"]. *)

val json_report : report -> Obs.Json.t
(** Schema-stable, wall-clock free: byte-identical for identical
    configs whatever the pool width. *)

val pp_report : Format.formatter -> report -> unit
