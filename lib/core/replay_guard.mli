(** Replay discrimination for quACK streams.

    Every quACK emission carries a monotonically increasing per-flow
    index. Before this guard existed, every server seam treated
    [index <= last seen] as "the proxy's receiver state restarted" and
    adopted the stale power sums as its new baseline ({!Sender_state.resync_to},
    §3.3). That conflates two very different events:

    - a {e genuine restart}: the emitter re-created its sketch and its
      numbering began again — resyncing is correct and required;
    - a {e replay}: an on-path adversary re-transmits a captured
      emission byte-for-byte — resyncing rolls the sender's view back
      and triggers spurious retransmissions, so a single captured
      packet becomes a reusable denial-of-progress token.

    The guard distinguishes them by remembering the contents of the
    last [depth] accepted quACKs (index, bit widths, count and a copy of
    the power sums) and comparing them exactly: a regressed index whose
    contents match a remembered emission is a {!Replay} (drop it, count
    it); one with contents never seen before is a {!Regression}
    (restart — resync as before). A restarted emitter re-counts from a
    fresh sketch, so its emissions do not reproduce a remembered one. *)

type verdict =
  | Fresh  (** index advanced: apply normally *)
  | Replay  (** seen before, byte-identical: drop, do not resync *)
  | Regression  (** index regressed with novel contents: resync (§3.3) *)

val verdict_name : verdict -> string

type t

val create : ?depth:int -> unit -> t
(** [depth] (default 32) is how many recent emissions are remembered;
    replays older than that window are classified as {!Regression},
    which costs a resync but never admits forged state.
    @raise Invalid_argument if [depth < 1]. *)

val classify : t -> index:int -> Quack.t -> verdict
(** Classify one received emission and update the guard: {!Fresh} and
    {!Regression} advance the high-water mark and are remembered;
    {!Replay} leaves all state unchanged except its counter. *)

val last_index : t -> int
val replays : t -> int
val regressions : t -> int
val accepted : t -> int
