module type MODULUS = sig
  val bits : int
  val modulus : int
end

module type S = sig
  type t = int

  val bits : int
  val modulus : int
  val pseudo_mersenne : (int * int) option
  val zero : t
  val one : t
  val of_int : int -> t
  val to_int : t -> int
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val pow : t -> int -> t
  val inv : t -> t
  val div : t -> t -> t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

(* Split multiplication: with a < 2^32 we have hi = a lsr 16 < 2^16, so
   hi * b < 2^48 and ((hi * b mod p) lsl 16) + lo * b < 2^49, both well
   within the 63-bit native int range. *)
let mulmod a b p =
  let hi = a lsr 16 and lo = a land 0xffff in
  ((((hi * b) mod p) lsl 16) + (lo * b)) mod p

let powmod x k p =
  let rec go acc base k =
    if k = 0 then acc
    else
      let acc = if k land 1 = 1 then mulmod acc base p else acc in
      go acc (mulmod base base p) (k lsr 1)
  in
  go 1 (x mod p) k

(* Extended Euclid: returns x with a * x = 1 (mod p); a in [1, p). *)
let invmod a p =
  if a = 0 then raise Division_by_zero;
  let rec go r0 r1 s0 s1 = if r1 = 0 then (r0, s0) else go r1 (r0 mod r1) s1 (s0 - (r0 / r1 * s1)) in
  let g, s = go p a 0 1 in
  assert (g = 1);
  let s = s mod p in
  if s < 0 then s + p else s

module Make (M : MODULUS) : S = struct
  type t = int

  let bits = M.bits
  let modulus = M.modulus
  let () = assert (modulus > 1 && modulus < 1 lsl 32)
  let zero = 0
  let one = 1 mod modulus

  let of_int x =
    let r = x mod modulus in
    if r < 0 then r + modulus else r

  let to_int x = x
  let add a b = let s = a + b in if s >= modulus then s - modulus else s
  let sub a b = let d = a - b in if d < 0 then d + modulus else d
  let neg a = if a = 0 then 0 else modulus - a

  (* Multiplication strategy, chosen once at functor application.

     All the preset moduli are pseudo-Mersenne, p = 2^k - e with a
     small e (251 = 2^8-5, 65521 = 2^16-15, 16777213 = 2^24-3,
     4294967291 = 2^32-5). For those, reduction folds the high bits
     down — x = hi*2^k + lo ≡ hi*e + lo (mod p) — replacing the two
     hardware divisions of [mod] with a multiply and a mask; this is
     the construction hot path (§5's "nearly-zero overhead
     quACKing"). Other moduli fall back to division. *)
  let pseudo_mersenne =
    (* smallest k with 2^k >= modulus, and e = 2^k - modulus *)
    let rec bits_of k = if 1 lsl k >= modulus then k else bits_of (k + 1) in
    let k = bits_of 2 in
    let e = (1 lsl k) - modulus in
    if e > 0 && e * e < modulus && k <= 32 then Some (k, e) else None

  let mul =
    match pseudo_mersenne with
    | Some (k, e) ->
        let mask = (1 lsl k) - 1 in
        (* Reduce x < 2^(62-k+k) by folding twice then subtracting.
           After one fold of x < 2^62: hi < 2^(62-k), hi*e + lo <
           2^(62-k)*e + 2^k — small enough that a second fold lands
           below 2p. *)
        let reduce x =
          let x = ((x lsr k) * e) + (x land mask) in
          let x = ((x lsr k) * e) + (x land mask) in
          if x >= modulus then x - modulus else x
        in
        if modulus < 1 lsl 31 then fun a b -> reduce (a * b)
        else fun a b ->
          (* 32-bit residues: split one operand so every product fits
             in 62 bits, folding between the halves. *)
          let hi = a lsr 16 and lo = a land 0xffff in
          let upper = reduce (hi * b) in
          reduce ((upper lsl 16) + (lo * b))
    | None ->
        if modulus < 1 lsl 31 then fun a b -> a * b mod modulus
        else fun a b -> mulmod a b modulus

  let pow x k =
    if k < 0 then invalid_arg "Modular.pow: negative exponent";
    let rec go acc base k =
      if k = 0 then acc
      else
        let acc = if k land 1 = 1 then mul acc base else acc in
        go acc (mul base base) (k lsr 1)
    in
    go one (of_int x) k

  let inv a = invmod a modulus
  let div a b = mul a (inv b)
  let equal = Int.equal
  let compare = Int.compare
  let pp = Format.pp_print_int
end
