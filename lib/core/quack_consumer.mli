(** The §3.3 quACK consumer: one per flow, wherever quACKs are decoded.

    Holds the flow's {!Sender_state} and, optionally, a {!Replay_guard},
    and applies the rule "decode, else resync to the receiver's
    cumulative sums" in one place. Library code outside [lib/core]
    consumes quACKs only through {!consume} (or {!resync}); the
    sidelint [quack-consumer] rule keeps it that way.

    {!consume} yields exactly one outcome per quACK:

    - {!Decoded}: a non-stale decode, passed on whatever it found.
      That includes [unresolved > 0], a decode whose roots match no
      logged packet, which reaches the caller as a report that pruned
      nothing. Treating it as "no news" is today's policy; this is the
      one place to change it (ROADMAP item 1).
    - {!Stale}: the quACK is older than one already applied.
    - {!Resynced}: the decode failed ([Threshold_exceeded]), so the
      receiver's sums were adopted and the whole log abandoned.
    - {!Restarted}: the replay guard saw a regressed index with novel
      contents, so the emitter restarted; same resync, different
      cause. Callers that keep per-packet state (the retransmission
      proxy's copies) treat the two causes differently.
    - {!Replay}: the guard recognised a byte-identical re-delivery;
      dropped, never a resync trigger.
    - {!Mismatch}: the quACK's width, threshold or modulus is not the
      sender's. Dropped and counted; the sender state is untouched. *)

type 'meta outcome =
  | Decoded of 'meta Sender_state.report
  | Stale
  | Resynced of 'meta list  (** the abandoned log, oldest first *)
  | Restarted of 'meta list  (** the abandoned log, oldest first *)
  | Replay
  | Mismatch

type 'meta t

val create : ?replay_guard:bool -> Sender_state.config -> 'meta t
(** A fresh consumer; [replay_guard] (default [false]) adds a
    {!Replay_guard} of the default depth. *)

val state : 'meta t -> 'meta Sender_state.t

val on_send : 'meta t -> id:int -> 'meta -> unit
(** {!Sender_state.on_send} on the consumer's state. *)

val consume : 'meta t -> ?index:int -> Quack.t -> 'meta outcome
(** Apply one received quACK. A guarded consumer classifies it by the
    emission [index] first and requires one; an unguarded consumer
    ignores [index].
    @raise Invalid_argument if the consumer is guarded and [index] is
    missing. *)

val resync : 'meta t -> Quack.t -> 'meta outcome
(** A restart the caller detected itself (for example with its own
    guards): adopt the quACK's sums as in {!Restarted}, or return
    {!Mismatch} for a foreign quACK. *)

val resyncs : 'meta t -> int
(** {!Resynced} and {!Restarted} outcomes so far, from either entry
    point. *)

val replays : 'meta t -> int
val mismatches : 'meta t -> int
