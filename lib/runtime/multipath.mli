(** The multipath scenario family (paper §5, ROADMAP item 3): one
    flow's packets split across two paths, each with its own sidecar,
    and the sender folds both quACKs into a single missing-set decode.

    {v
                            +-- sidecar 1 -- far_1 (cellular) ------+
      server --- splitter --+                                        +-- client
                            +-- sidecar 2 -- far_2 (congested cell) -+
    v}

    Each sidecar quACKs the packets {e it} saw, tagged with its own
    frame [src]. The server keeps the latest cumulative quACK per path
    and folds them with [Psum.merge] — power sums are linear, so the
    merged sketch is exactly the sketch of the union — then snaps the
    union back through [Quack.of_psum] (the seam that wraps the
    combined count to its wire width) and feeds one
    {!Sidecar_quack.Sender_state.on_quack} decode.

    A path sidecar whose state restarts (eviction + re-admission)
    regresses its emission index; the fold is then adopted as the new
    baseline via [resync_to] (§3.3), same as the single-path runtime.

    With [split = (k, 0)] every packet rides path 1: the single-path
    arm whose decode the merged two-path decode is differentially
    tested against. Deterministic: a pure function of [config]. *)

type config = {
  flows : int;
  table_flows : int;
  near : Sidecar_protocols.Path.segment;
  far_1 : Sidecar_protocols.Path.segment;
  far_2 : Sidecar_protocols.Path.segment;
  split : int * int;
      (** of every [fst + snd] data packets of a flow, the first [fst]
          take path 1, the rest path 2 *)
  mss : int;
  size_dist : Netsim.Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival : Netsim.Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Netsim.Sim_time.t;
}

val default_config : config
(** 1:1 split over a cellular and a congested-cell branch (delay-close
    paths: a shared RTT estimator cannot serve branches whose delays
    differ by multiples — that is MPTCP's per-subflow problem, not the
    quACK fold's), flash-crowd arrivals, 40 flows. *)

val arms : config -> (string * config) list
(** The family's compared arms over [base], in report order: [split]
    ([base] itself) and [single_path] (every packet on path 1). *)

type report = {
  flows : int;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy_1 : Proxy.stats;
  proxy_2 : Proxy.stats;
  path1_pkts : int;
  path2_pkts : int;
  folded_decodes : int;
  srv_resyncs : int;
  srv_replays_dropped : int;
      (** re-delivered path emissions dropped by the per-path
          {!Sidecar_quack.Replay_guard} before touching the fold *)
  retransmissions : int;
  timeouts : int;
  duplicates : int;
  sim_end : Netsim.Sim_time.t;
}

val run : config -> report
(** @raise Invalid_argument on non-positive flow count, bad unit
    bounds, or negative/empty split shares. *)

val json_report : report -> Obs.Json.t
(** Schema-stable, wall-clock free: byte-identical for identical
    configs regardless of jobs/shards. *)

val pp_report : Format.formatter -> report -> unit
