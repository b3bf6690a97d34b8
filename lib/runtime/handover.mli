(** The mobility scenario family (paper §5, ROADMAP item 3): a flow's
    path migrates from sidecar A to sidecar B mid-connection.

    Topology — one near segment from the server to a routing junction,
    then two parallel far branches, each with its own
    {!Sidecar_protocols.Migration} sidecar:

    {v
                         +-- sidecar A -- far_a (cellular) ------+
      server --- near ---+                                        +-- client
                         +-- sidecar B -- far_b (congested cell) -+
    v}

    Every flow starts on A; [migrate_after] into its life the junction
    flips it to B. Two takeover strategies:

    - [Resync]: B starts the flow fresh. Its first quACK carries a
      restarted emission index and baseline; the server's
      index-regression detection triggers a
      {!Sidecar_quack.Sender_state.resync_to} (the PR 3 epoch-resync
      machinery) and the flow re-converges within one quACK.
    - [Transfer]: A exports its sketch snapshot and B imports it after
      a modeled control-channel delay (EMQX session-takeover style).
      Counts and indices continue monotonically, so the sender never
      resyncs — unless the control message loses the race with
      migrated data, in which case the snapshot is merged into B's
      live state ([install_merges] counts those).

    The report compares the strategies head-to-head on FCT and
    spurious-retransmit cost; run with [migrate = false] for the
    no-migration baseline arm. Deterministic: a pure function of
    [config]. *)

type strategy = Resync | Transfer

val strategy_name : strategy -> string

type config = {
  strategy : strategy;
  migrate : bool;  (** [false] = baseline arm: every flow stays on A *)
  flows : int;
  table_flows : int;
  near : Sidecar_protocols.Path.segment;
  far_a : Sidecar_protocols.Path.segment;
  far_b : Sidecar_protocols.Path.segment;
  mss : int;
  size_dist : Netsim.Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival : Netsim.Workload.arrival;
  migrate_after : Netsim.Sim_time.span;
  ctrl_delay : Netsim.Sim_time.span;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Netsim.Sim_time.t;
}

val default_config : config
(** Flash-crowd arrivals; handover from a cellular A-path into a
    congested-cell B-path (same delay class, so the sender's one RTT
    estimator stays valid across the switch), [Transfer] strategy,
    40 flows. *)

val arms : config -> (string * config) list
(** The family's compared arms over [base], in report order:
    [baseline] (no migration), then the [resync] and [transfer]
    takeovers. *)

type report = {
  strategy : strategy;
  migrated : bool;
  flows : int;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy_a : Proxy.stats;
  proxy_b : Proxy.stats;
  migrations : int;
  transfers : int;
  transfer_bytes : int;
  install_merges : int;
  srv_resyncs : int;
  srv_replays_dropped : int;
      (** regressed-index quACKs byte-identical to a remembered
          emission: dropped by the server's {!Sidecar_quack.Replay_guard}
          instead of forcing a §3.3 resync *)
  retransmissions : int;
  timeouts : int;
  spurious_retx : int;  (** duplicate deliveries observed at clients *)
  sim_end : Netsim.Sim_time.t;
}

val run : config -> report
(** @raise Invalid_argument on non-positive flow count, bad unit
    bounds, non-positive [migrate_after], or negative [ctrl_delay]. *)

val json_report : report -> Obs.Json.t
(** Schema-stable, wall-clock free: byte-identical for identical
    configs regardless of jobs/shards. *)

val pp_report : Format.formatter -> report -> unit
