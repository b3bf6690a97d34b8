(** The always-on sharded flow runtime (ROADMAP item 2).

    Where {!Scenario} runs one bounded experiment through the
    event-driven engine, this module keeps a {e long-lived} sharded
    service: [shards] worker domains ({!Exec.Service}), each owning a
    disjoint set of flow-table {e partitions}, stepping a synthetic
    open-loop workload epoch by epoch — arrivals, one packet per
    active flow, quACK emission, completions — at 100k+ concurrent
    flows.

    {2 Partitions vs. shards}

    The logical topology is a {e fixed} partition count, independent
    of the worker count: flow [f] hashes to partition
    [route ~partitions f], the table capacity is split across
    partitions by {!split_capacity}, and {e every} admission, eviction
    and denial is decided by a partition against its own slice. A
    shard is pure execution placement: worker [s] owns partitions
    [{p | p mod shards = s}], with its own slab and epoch series —
    nothing on the packet path crosses a shard boundary, and no
    decision consults [shards]. Each partition's table is a
    {!Sidecar_fastpath.Flat_table} mapping a flow to a slot of its
    shard's {!Sidecar_fastpath.Slab}, so the packet path allocates
    nothing. Per-shard series merge cell-wise
    ({!Obs.Epochs.merge}, integer cells), partition summaries sort by
    partition id, and the report checksum folds per-partition
    checksums in id order. Hence the headline contract: the
    deterministic report is {e byte-identical for any} [shards] —
    pinned by [test/shard] and the CI shard-invariance step. On this
    single-CPU host the wall-clock speedup is honestly ≈1×; the claim
    is invariance, not speedup (EXPERIMENTS.md). *)

type policy = Lru | Idle_epochs of int  (** idle span, in epochs *)

type config = {
  shards : int;  (** worker domains; execution placement only *)
  partitions : int;  (** fixed logical topology; must be >= [shards] *)
  capacity : int;  (** total table slots, split by {!split_capacity} *)
  policy : policy;
  field : [ `Modular | `Log ];
  bits : int;
  threshold : int;
  flows : int;
  arrivals_per_epoch : int;
  size_dist : Netsim.Workload.size_dist;
  min_units : int;
  max_units : int;  (** flow lifetime clamp: one unit = one packet/epoch *)
  quack_every : int;  (** a tracked flow quACKs every n-th packet *)
  max_epochs : int;  (** safety horizon; overrun is reported, not fatal *)
  seed : int;
}

val default_config : config
(** The sustained-load scenario: 240k lognormal flows at 6k
    arrivals/epoch against a 2048-slot table over 16 partitions under
    idle eviction — steady state holds >100k concurrent flows. *)

val route : partitions:int -> int -> int
(** [route ~partitions key] is the owning partition — a pure function
    of exactly [key] and [partitions] (avalanche hash, mod), so
    placement never depends on shard count, arrival order or time.
    @raise Invalid_argument on a non-positive [partitions] or negative
    [key]. *)

val shard_of : shards:int -> partitions:int -> int -> int
(** The worker that runs the flow's partition:
    [route ~partitions key mod shards]. *)

val split_capacity : capacity:int -> partitions:int -> int array
(** Per-partition capacities summing to [capacity]: every partition
    gets [capacity / partitions], and the first [capacity mod
    partitions] partitions get one extra slot each (the documented
    remainder rule, pinned by [test/shard]). *)

type tstats = {
  admitted : int;
  evicted_lru : int;
  evicted_idle : int;
  removed : int;
  denied : int;
  hits : int;
  misses : int;
}

type part_summary = {
  pid : int;
  part_capacity : int;
  part_stats : tstats;
  part_peak : int;  (** peak occupancy of this partition's table *)
  part_checksum : int;  (** fold of every quACK this partition emitted *)
}

type report = {
  shards : int;
  partitions : int;
  capacity : int;
  policy : policy;
  field : [ `Modular | `Log ];
  bits : int;
  threshold : int;
  flows : int;
  arrivals_per_epoch : int;
  epochs : int;
  unfinished : int;  (** flows still active when [max_epochs] hit (0 normally) *)
  packets : int;
  tracked : int;
  degraded : int;
  quacks : int;
  completed : int;
  admitted : int;
  evicted : int;
  denied : int;
  removed : int;
  hits : int;
  peak_concurrent : int;  (** peak active flows across an epoch boundary *)
  peak_occupancy : int;  (** peak total table occupancy at an epoch boundary *)
  eviction_churn_per_epoch : float;
  checksum : int;  (** per-partition checksums folded in partition order *)
  per_partition : part_summary array;  (** ascending partition id *)
  series : Obs.Epochs.t;  (** merged per-epoch counters *)
}

val run : config -> report
(** Run the scenario to completion (or [max_epochs]) on
    [config.shards] worker domains and merge the per-shard results.
    @raise Invalid_argument on an inconsistent configuration
    (including [partitions < shards]: every shard must own at least
    one partition). *)

val json_report : ?deterministic:bool -> report -> Obs.Json.t
(** With [~deterministic:true] (the [BENCH_DETERMINISTIC=1] artifact)
    the config echoes allowed to vary without changing the output —
    the shard count (pure placement) and the field backend (an
    implementation choice under an equivalence contract) — are
    omitted, making the JSON the byte-comparable invariance witness.
    Nothing in the report is wall-clock-derived either way; timing is
    the caller's business. *)

val pp_report : Format.formatter -> report -> unit

val policy_string : policy -> string
(** ["lru"] or ["idle:<epochs>"]. *)
