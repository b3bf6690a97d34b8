(** Per-slot power-sum sketches for the flat datapaths.

    A slab holds one sketch per slot: a row of [threshold] power sums
    ([row.(i)] accumulates [x^(i+1)] mod p, exactly as
    {!Sidecar_quack.Psum}) and an element count. The rows are updated
    by {!Sidecar_quack.Kernel.add_powers} and [sub_powers], the same
    loops the reference sketch runs, so the two sketches share one
    implementation of the per-packet work.

    Admission acquires a slot, eviction releases it, and re-admission
    reuses it. Every row is allocated by {!create}, so the steady
    state allocates nothing on the packet path. The rows are ordinary
    OCaml arrays, promoted to the major heap soon after {!create}, but
    they hold only immediate ints: an update is a plain store with no
    write barrier, and the GC finds no pointer in them (Reverso's case
    for contiguous in-place state, PAPERS.md). *)

type t

val create :
  ?bits:int ->
  ?field:(module Sidecar_field.Modular.S) ->
  slots:int ->
  threshold:int ->
  unit ->
  t
(** [create ~slots ~threshold ()] allocates [slots] sketches of
    [threshold] power sums each. [bits] (default 32) and [field] choose
    the prime exactly as {!Sidecar_quack.Psum.create}; a
    {!Sidecar_field.Log_field} keeps its table multiply.
    @raise Invalid_argument on a non-positive slot count, a negative
    threshold, an unsupported width or a field/width mismatch. *)

val slots : t -> int
val threshold : t -> int
val modulus : t -> int

val acquire : t -> int
(** Take a free slot (its sums and count are all zero — the
    clean-handoff contract). @raise Invalid_argument when the slab is
    full: size slabs to the flow-table capacity so eviction always
    frees a slot before the next admission. *)

val release : t -> int -> unit
(** Return a slot to the free list, zeroing its sums and count so the
    next {!acquire} starts pristine. Idempotence is not provided:
    releasing a free slot is a programming error.
    @raise Invalid_argument on an out-of-range or already-free slot. *)

val live : t -> int -> bool
val live_count : t -> int
val free_count : t -> int

val bind_owner : t -> unit
(** Pin the slab to the calling domain. Per-shard ownership is a
    discipline, not a lock: after binding, every {!acquire} and
    {!release} checks (debug-gated, the slab-owner contract) that it
    runs on the owning domain, so a slab leaking across shards fails
    fast under [SIDECAR_INVARIANTS=1] instead of racing silently. The
    sharded runtime binds each shard's slab inside that shard's worker
    domain at init. Rebinding moves ownership (a whole-slab hand-off
    between rounds is legal; concurrent use never is). *)

val owner_id : t -> int option
(** The owning domain's id, when bound. *)

(** {2 Sketch operations}

    Each takes a slot handed out by {!acquire}; a freed slot must not
    be used (acquire and release remain the caller's — the flow
    table's — job). None of them allocates except {!sums}. *)

val insert : t -> int -> int -> unit
(** [insert t slot id] folds one identifier into the slot's sketch:
    [row.(i) += id^(i+1)], count + 1. The identifier is reduced into
    the field first. *)

val remove : t -> int -> int -> unit
(** The inverse of {!insert}. *)

val count : t -> int -> int
(** Inserts minus removes, full precision. *)

val sums_into : t -> int -> int array -> unit
(** [sums_into t slot dst] writes the slot's [threshold] sums into
    [dst]. @raise Invalid_argument when [dst] is shorter than the
    threshold. *)

val sums : t -> int -> int array
(** A copy of the slot's power sums. *)

val check_books : t -> string -> unit
(** Debug-gated slab-books twin (see the [\[@@@sidespec\]] contracts). *)
