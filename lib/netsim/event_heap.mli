(** Binary min-heap of timed events, ordered by (time, insertion seq)
    so simultaneous events fire in schedule order (a stable tie-break
    keeps simulations deterministic).

    Keys live in unboxed int arrays and values in slots that never move,
    so a push or pop allocates nothing (beyond an occasional doubling)
    and a sift writes no pointer. A popped value is released at once:
    its slot is overwritten with the [filler] given to {!create}, so the
    heap never keeps a fired event reachable. *)

type 'a t

val create : filler:'a -> 'a t
(** [filler] occupies every slot that holds no live value. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> time:Sim_time.t -> 'a -> unit

val min_time : 'a t -> Sim_time.t
(** Time of the next event to pop. Raises [Invalid_argument] when
    empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the event with the least (time, seq). Raises
    [Invalid_argument] when empty. *)
