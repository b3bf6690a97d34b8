(** Arena storage for flat power-sum sketches.

    One pre-sized [Bigarray] holds every flow's power sums
    contiguously: slot [s] owns [sums.[s*threshold .. (s+1)*threshold)]
    and a pending batch [pending.[s*batch .. (s+1)*batch)] of
    identifiers not yet folded in. Admission acquires a slot, eviction
    releases it, and re-admission reuses it — the steady state
    allocates nothing and touches no GC-managed heap on the packet
    path (ROADMAP item 1; Reverso's contiguous zero-copy argument).

    The arithmetic backend is chosen once per slab from the field
    modulus, so the per-batch flush in {!Psum_flat} runs a monomorphic
    loop instead of first-class-module closures. *)

type vec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** How {!Psum_flat} multiplies in this slab's field. Selected by
    {!create}; exposed so the flush loop can dispatch once per batch. *)
type arith =
  | Fast32  (** p = 2^32 - 5: inlined fold reduction (mirrors Kernel). *)
  | Fold of { p : int; b : int; c : int; mask : int }
      (** p = 2^b - c with 1 <= c <= 63 and 16 <= b <= 30 (the 16-,
          24- and 32*-bit preset primes; *2^32-5 has its own arm):
          integer fold reduction — 2^b == c (mod p), so
          [x -> (x lsr b) * c + (x land mask)] preserves residue and
          three rounds land any x < 2^62 below 2^b; no division, no
          float, no data-dependent branches. *)
  | Barrett of { p : int; invp : float }
      (** Other p < 2^26: division-free float-inverse reduction. Products
          stay below 2^52, so [float_of_int] is exact and the
          estimated quotient is within one of the true one. *)
  | Log of { log_ : int array; antilog : int array; p : int }
      (** Precomputed discrete-log tables (the paper's 16-bit
          precomputation, §4.2), shared by every slot. *)
  | Generic of {
      p : int;
      add : int -> int -> int;
      sub : int -> int -> int;
      mul : int -> int -> int;
    }  (** Anything else: the field's own closures. *)

type backend = [ `Auto | `Barrett | `Log | `Generic ]

type t

val create :
  ?bits:int ->
  ?field:(module Sidecar_field.Modular.S) ->
  ?backend:backend ->
  ?batch:int ->
  slots:int ->
  threshold:int ->
  unit ->
  t
(** [create ~slots ~threshold ()] sizes the arena for [slots]
    concurrent flows of [threshold] power sums each. [bits] (default
    32) and [field] choose the prime exactly as {!Sidecar_quack.Psum.create}.
    [batch] (default 16) is the pending-identifier capacity per slot —
    the flush granularity. [backend] defaults to [`Auto]: [Fast32] for
    the 32-bit preset, [Barrett] below 2^26, field closures otherwise;
    [`Log] forces the table backend (modulus ≤ 2^20), [`Barrett] and
    [`Generic] pin those paths for differential tests.
    @raise Invalid_argument on non-positive sizes, an unsupported
    width, a field/width mismatch, or a backend the modulus cannot
    support. *)

val slots : t -> int
val threshold : t -> int
val batch : t -> int
val bits : t -> int
val modulus : t -> int
val field : t -> (module Sidecar_field.Modular.S)
val arith : t -> arith

val acquire : t -> int
(** Take a free slot (its sums, pending batch and count are all
    zero — the clean-handoff contract). @raise Invalid_argument when
    the slab is full: size slabs to the flow-table capacity so
    eviction always frees a slot before the next admission. *)

val release : t -> int -> unit
(** Return a slot to the free list, zeroing its sums, pending batch
    and count so the next {!acquire} starts pristine. Idempotence is
    not provided: releasing a free slot is a programming error.
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

(** {2 Storage access}

    For {!Psum_flat} (and tests): the raw arena views. [sums_vec] and
    [pending_vec] are the whole arena — callers index by
    [slot * threshold + i] / [slot * batch + j]. [scratch] and
    [pend_scratch] are [batch]-sized arrays shared by the whole slab
    for an in-progress flush's running powers and its snapshot of the
    pending batch (flushes never nest). *)

val sums_vec : t -> vec
val pending_vec : t -> vec
val scratch : t -> int array
val pend_scratch : t -> int array

val npending : t -> int array
(** Per-slot pending-batch fill level. *)

val counts : t -> int array
(** Per-slot element count (inserts minus removes, pending included). *)

val check_books : t -> string -> unit
(** Debug-gated slab-books twin (see the [\[@@@sidespec\]] contracts). *)
