(** Loop-granular field kernels of the quACK core.

    Every per-element loop that {!Psum}, {!Decoder} and {!Sender_state}
    run over a prime field lives here, once: the power-row update of a
    sketch insert or remove, Newton's identities, Horner evaluation of
    the missing-packet polynomial and its in-place deflation. Each
    kernel is a whole loop, never a per-element helper, because a
    function called across modules is not inlined (the dev profile
    compiles with [-opaque]) and a local helper that captures variables
    is a heap-allocated closure (no flambda).

    Each kernel has three arms, chosen once by {!of_field}:
    - p = 2^32 - 5, the paper's b = 32 default: its fold reduction is
      written out inline with the constants;
    - a field that declares itself pseudo-Mersenne
      ([Modular.S.pseudo_mersenne = Some (k, c)]) with 16 <= k <= 30
      and c <= 63, such as every largest prime below 2^b for those
      widths: the same loops with a two-fold reduction by
      [2^k = c (mod p)], inlined;
    - every other field ([Log_field]'s table multiply, b = 31, widths
      below 16, moduli that are not pseudo-Mersenne) goes through its
      own [Modular.S] operations.

    The choice follows what the field declares about its reduction,
    not its modulus: a [Log_field] keeps its table multiply even over
    a modulus the fold arm would take. Field arithmetic is exact, so
    all three arms compute the same values.

    All kernels take field elements in [0, p) unless they say "raw", in
    which case the identifier is reduced into the field first, and all
    but {!inverses} allocate nothing. *)

type t
(** The arithmetic of one prime field. *)

val of_field : (module Sidecar_field.Modular.S) -> t
val modulus : t -> int

val arm : t -> [ `P32 | `Fold of int | `Closure ]
(** The arm {!of_field} chose: [`Fold k] folds by [2^k]. *)

val residue : t -> int -> int
(** [residue k id] reduces a raw identifier into [0, p). *)

val add_powers : t -> int array -> int -> int -> unit
(** [add_powers k sums len id] adds [x^(i+1)] to [sums.(i)] for every
    [i < len], where [x] is the raw [id] reduced. *)

val sub_powers : t -> int array -> int -> int -> unit
(** The inverse of {!add_powers}. *)

val inverses : t -> int -> int array
(** [inverses k n] is [a] with [a.(j) = j^-1] for [1 <= j <= n]
    ([a.(0) = 0]). @raise Invalid_argument when [n >= p]. *)

val newton : t -> inv:int array -> sums:int array -> int -> int array -> unit
(** [newton k ~inv ~sums m f] writes into [f.(0..m)] the monic
    polynomial of degree [m] whose roots have power sums
    [sums.(0..m-1)] (Newton's identities), using [inv] from
    {!inverses} for some [n >= m]. *)

val horner4 : t -> int array -> int -> int array -> int -> int
(** [horner4 k f deg ids off] evaluates the polynomial [f.(0..deg)] at
    the four raw identifiers [ids.(off..off+3)] in one pass over the
    coefficients, and returns a mask whose bit [j] is set iff
    [ids.(off+j)] is a root. *)

val is_root : t -> int array -> int -> int -> bool
(** [is_root k f deg id]: the one-identifier {!horner4}. *)

val deflate : t -> int array -> int -> int -> unit
(** [deflate k f deg id] divides [f.(0..deg)] by [(x - id)] in place,
    leaving the quotient in [f.(0..deg-1)]; the raw [id] must be a root
    of [f]. *)
