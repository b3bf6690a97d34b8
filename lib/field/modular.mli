(** Prime-field arithmetic [F_p] for moduli up to [2^32 - 1].

    All values are plain non-negative OCaml [int]s in the range [0, p).
    Multiplication is overflow-safe on 63-bit native integers: when the
    modulus does not fit in 31 bits, the multiplicand is split into
    16-bit halves so every intermediate product stays below [2^49]. *)

(** Input signature: the identifier width in bits and the prime modulus
    (the largest prime expressible in [bits] bits, per the paper §3.2). *)
module type MODULUS = sig
  val bits : int
  val modulus : int
end

(** A prime field. *)
module type S = sig
  type t = int
  (** A field element; invariant: [0 <= x < modulus]. *)

  val bits : int
  (** Identifier width [b] this field serves. *)

  val modulus : int
  (** The prime [p]. *)

  val pseudo_mersenne : (int * int) option
  (** [Some (k, e)] when [modulus = 2^k - e] and this field's [mul]
      reduces by folding [2^k = e (mod p)]; [None] when it multiplies
      some other way (division, log tables). A property of the field's
      reduction, not of its modulus alone: a caller that inlines the
      fold (the quACK core's [Kernel]) must not do so for a field that
      declares [None]. *)

  val zero : t
  val one : t

  val of_int : int -> t
  (** [of_int x] reduces an arbitrary integer (including negatives)
      into [0, p). *)

  val to_int : t -> int

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t

  val pow : t -> int -> t
  (** [pow x k] for [k >= 0]; [pow 0 0 = 1]. *)

  val inv : t -> t
  (** Multiplicative inverse. @raise Division_by_zero on [inv 0]. *)

  val div : t -> t -> t
  (** [div a b = mul a (inv b)]. @raise Division_by_zero when [b = 0]. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (M : MODULUS) : S

val mulmod : int -> int -> int -> int
(** [mulmod a b p] is [a * b mod p], overflow-safe for
    [0 <= a, b < p < 2^32]. Exposed for primality testing. *)

val powmod : int -> int -> int -> int
(** [powmod x k p] is [x^k mod p] for [k >= 0], same range as {!mulmod}. *)
