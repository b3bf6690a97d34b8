(* Find a generator of F_p^* by factoring p-1 (trial division — p is
   at most 2^20 here) and testing candidates. *)
let prime_factors n =
  let rec go n d acc =
    if n = 1 then acc
    else if d * d > n then n :: acc
    else if n mod d = 0 then
      let rec strip n = if n mod d = 0 then strip (n / d) else n in
      go (strip n) (d + 1) (d :: acc)
    else go n (d + 1) acc
  in
  go n 2 []

let tables (module F : Modular.S) =
  let p = F.modulus in
  if p > 1 lsl 20 then
    invalid_arg "Log_field: modulus too large for log tables";
  let factors = prime_factors (p - 1) in
  let is_generator g =
    List.for_all (fun q -> not (F.equal (F.pow g ((p - 1) / q)) F.one)) factors
  in
  let rec find g = if is_generator (F.of_int g) then g else find (g + 1) in
  let g = find 2 in
  (* antilog.(i) = g^i for i in [0, p-2]; log.(x) inverts it *)
  let antilog = Array.make (p - 1) 0 in
  let log = Array.make p (-1) in
  let acc = ref 1 in
  for i = 0 to p - 2 do
    antilog.(i) <- !acc;
    log.(!acc) <- i;
    acc := F.mul !acc (F.of_int g)
  done;
  (log, antilog)

let make (module F : Modular.S) : (module Modular.S) =
  let p = F.modulus in
  let log, antilog = tables (module F) in
  let order = p - 1 in
  (module struct
    type t = int

    let bits = F.bits
    let modulus = p

    (* The table multiply never folds, whatever the modulus. *)
    let pseudo_mersenne = None
    let zero = 0
    let one = 1
    let of_int = F.of_int
    let to_int x = x
    let add = F.add
    let sub = F.sub
    let neg = F.neg

    let mul a b =
      if a = 0 || b = 0 then 0
      else
        let s = log.(a) + log.(b) in
        antilog.(if s >= order then s - order else s)

    let inv a =
      if a = 0 then raise Division_by_zero
      else if a = 1 then 1
      else antilog.(order - log.(a))

    let div a b = mul a (inv b)

    let pow x k =
      if k < 0 then invalid_arg "Log_field.pow: negative exponent"
      else if x = 0 then if k = 0 then 1 else 0
      else
        (* reduce the exponent first so log(x) * k cannot overflow *)
        antilog.(log.(x) * (k mod order) mod order)

    let equal = Int.equal
    let compare = Int.compare
    let pp = Format.pp_print_int
  end)
