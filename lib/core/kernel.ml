module Modular = Sidecar_field.Modular

(* The field operations are fetched from the first-class module once,
   at creation. [fold] picks the loops: 32 selects the inlined
   p = 2^32 - 5 ones, a width w in [16, 30] the fold-reduced loops for
   p = 2^w - c, and 0 the field's own operations. One int rather than
   a variant carrying w, so the record keeps its six fields: there are
   about six kernels per flow. *)
type t = {
  p : int;
  fold : int;
  add : int -> int -> int;
  sub : int -> int -> int;
  mul : int -> int -> int;
  inv : int -> int;
}

let p32 = 4294967291
let mask32 = 0xFFFFFFFF

(* The fold arm is chosen from what the field declares about its own
   reduction, never from its modulus alone: a [Log_field] over 65521
   has F16's modulus and width but multiplies through tables, and must
   keep doing so (it is one side of the paper's §4.2 ablation).

   The gate is 16 <= w <= 30 and 1 <= c <= 63, for p = 2^w - c. Every
   fold-arm product has one factor below 2p (a reduced value plus at
   most one reduced addend, as the lazy Horner accumulators are) and
   the other below p, so x < 2p^2 < 2^(2w+1) <= 2^61 fits a native
   int. Folding x = hi*2^w + lo to hi*c + lo keeps x mod p, since
   2^w = c (mod p). The first fold has hi < 2^(w+1), leaving
   x < 127 * 2^w; the second has hi <= 126, leaving
   x < 126*63 + 2^w < 2^w + 2^13, which is below 2p = 2^(w+1) - 2c
   because 2^w >= 2^16 > 2^13 + 126. One conditional subtract then
   lands in [0, p). The same bound gates Slab's [Fold]; every largest
   prime below 2^b for 16 <= b <= 30 qualifies (c <= 57). At b = 31
   the 2p * p product overflows a native int, and a wider gate needs
   its own proof. *)
let fold_width (module F : Modular.S) =
  if F.modulus = p32 then 32
  else
    match F.pseudo_mersenne with
    | Some (w, c)
      when w >= 16 && w <= 30 && c >= 1 && c <= 63
           && (1 lsl w) - c = F.modulus ->
        w
    | Some _ | None -> 0

let of_field (module F : Modular.S) =
  {
    p = F.modulus;
    fold = fold_width (module F);
    add = F.add;
    sub = F.sub;
    mul = F.mul;
    inv = F.inv;
  }

let arm k =
  match k.fold with 32 -> `P32 | 0 -> `Closure | w -> `Fold w

let modulus k = k.p

let[@inline] reduce p id =
  if id >= 0 && id < p then id
  else begin
    (* sidelint: allow — reducing an untrusted caller int INTO the field *)
    let r = id mod p in
    if r < 0 then r + p else r
  end

let residue k id = reduce k.p id

(* ------------------------------------------------------------------ *)
(* p = 2^32 - 5. The only place the fold reduction is written; every
   p32 loop below inlines it (same module, [@inline]).                *)

let[@inline] reduce32 x =
  (* x < 2^50; two folds of x = hi*2^32 + lo ≡ 5*hi + lo (mod p) *)
  (* sidelint: allow — audited fast path: hi < 2^18 so 5*hi < 2^21 *)
  let x = ((x lsr 32) * 5) + (x land mask32) in
  (* sidelint: allow — second fold, same bound *)
  let x = ((x lsr 32) * 5) + (x land mask32) in
  if x >= p32 then x - p32 else x

(* [a < 2^33] — a reduced value plus at most one reduced addend, as the
   lazy Horner accumulators below are — and [b < 2^32]. *)
let[@inline] mul32 a b =
  (* sidelint: allow — (a lsr 16) < 2^17 and b < 2^32 keep the product < 2^49 *)
  let upper = reduce32 ((a lsr 16) * b) in
  (* sidelint: allow — low half: (a land 0xffff) * b < 2^48, sum < 2^49 *)
  reduce32 ((upper lsl 16) + ((a land 0xffff) * b))

(* s mod p for s in [0, 2p), without a branch: whether a sum of two
   random residues wraps is a coin flip, which a branch predictor
   cannot learn. d asr 62 is -1 exactly when d < 0. *)
let[@inline] fold2p s =
  let d = s - p32 in
  d + ((d asr 62) land p32)

(* sums.(k) +/- v for a reduced v. Subtraction adds p - v, which is p,
   and so a no-op after the fold, when v = 0. *)
let[@inline] acc32 sums k v neg =
  Array.unsafe_set sums k
    (fold2p (Array.unsafe_get sums k + if neg then p32 - v else v))

(* Four independent power chains x^(4j+1) .. x^(4j+4), each stepped by
   x^4, so the multiplies of one step overlap instead of each waiting
   on the last as in a single Horner chain. The last partial group
   (len mod 4 <> 0) is finished by the tail. *)
let powers32 sums len x neg =
  let x2 = mul32 x x in
  let x3 = mul32 x2 x and x4 = mul32 x2 x2 in
  let p1 = ref x and p2 = ref x2 and p3 = ref x3 and p4 = ref x4 in
  let i = ref 0 in
  while !i + 4 <= len do
    let k = !i in
    acc32 sums k !p1 neg;
    acc32 sums (k + 1) !p2 neg;
    acc32 sums (k + 2) !p3 neg;
    acc32 sums (k + 3) !p4 neg;
    if k + 4 < len then begin
      p1 := mul32 !p1 x4;
      p2 := mul32 !p2 x4;
      p3 := mul32 !p3 x4;
      p4 := mul32 !p4 x4
    end;
    i := k + 4
  done;
  let k = !i in
  if k < len then acc32 sums k !p1 neg;
  if k + 1 < len then acc32 sums (k + 1) !p2 neg;
  if k + 2 < len then acc32 sums (k + 2) !p3 neg

(* Horner accumulators stay lazily reduced in [0, 2p): mul32 returns a
   reduced value and one reduced coefficient is added, so a root reads
   0 or p. *)
let[@inline] hit32 a bit = if a = 0 || a = p32 then bit else 0

let horner4_32 f deg c0 c1 c2 c3 =
  let lead = Array.unsafe_get f deg in
  let a0 = ref lead and a1 = ref lead and a2 = ref lead and a3 = ref lead in
  for i = deg - 1 downto 0 do
    let fi = Array.unsafe_get f i in
    a0 := mul32 !a0 c0 + fi;
    a1 := mul32 !a1 c1 + fi;
    a2 := mul32 !a2 c2 + fi;
    a3 := mul32 !a3 c3 + fi
  done;
  hit32 !a0 1 lor hit32 !a1 2 lor hit32 !a2 4 lor hit32 !a3 8

let is_root32 f deg c =
  let a = ref (Array.unsafe_get f deg) in
  for i = deg - 1 downto 0 do
    a := mul32 !a c + Array.unsafe_get f i
  done;
  hit32 !a 1 = 1

(* Synthetic division by (x - r), walking down from the leading
   coefficient: each carry is the next quotient coefficient, written
   over the coefficient it was just read from. *)
let deflate32 f deg r =
  let carry = ref (Array.unsafe_get f deg) in
  for j = deg - 1 downto 0 do
    let orig = Array.unsafe_get f j in
    Array.unsafe_set f j !carry;
    carry := fold2p (mul32 !carry r + orig)
  done

(* f.(m - j) = -(1/j) * sum_{i=1..j} f.(m - j + i) * p_i: Newton's
   identity j e_j = sum_i (-1)^(i-1) e_(j-i) p_i with the signs of
   f.(m - j) = (-1)^j e_j folded in. *)
let newton32 inv sums m f =
  Array.unsafe_set f m 1;
  for j = 1 to m do
    let acc = ref 0 in
    for i = 1 to j do
      acc :=
        fold2p
          (!acc
          + mul32 (Array.unsafe_get f (m - j + i)) (Array.unsafe_get sums (i - 1)))
    done;
    let v = mul32 (Array.unsafe_get inv j) !acc in
    Array.unsafe_set f (m - j) (if v = 0 then 0 else p32 - v)
  done

(* ------------------------------------------------------------------ *)
(* p = 2^w - c, 16 <= w <= 30 (see [fold_width]). The only place its
   fold reduction is written; every loop below inlines it, with
   [c = 2^w - p] and [mask = 2^w - 1] computed once per call.         *)

let[@inline] reducew p w c mask x =
  (* x < 2^(2w+1); two folds of x = hi*2^w + lo == c*hi + lo (mod p) *)
  (* sidelint: allow — audited fold: hi < 2^(w+1) and c < 2^6, so hi*c < 2^(w+7) *)
  let x = ((x lsr w) * c) + (x land mask) in
  (* sidelint: allow — second fold: hi <= 126, so x < 2^w + 2^13 < 2p *)
  let x = ((x lsr w) * c) + (x land mask) in
  if x >= p then x - p else x

(* [a < 2p] — a reduced value plus at most one reduced addend, as the
   lazy Horner accumulators below are — and [b < p]. *)
let[@inline] mulw p w c mask a b =
  (* sidelint: allow — a * b < 2p^2 < 2^(2w+1) <= 2^61 *)
  reducew p w c mask (a * b)

(* [fold2p] for any p: s mod p for s in [0, 2p), without a branch. *)
let[@inline] fold2pw p s =
  let d = s - p in
  d + ((d asr 62) land p)

let[@inline] accw p sums k v neg =
  Array.unsafe_set sums k
    (fold2pw p (Array.unsafe_get sums k + if neg then p - v else v))

(* [powers32]'s four independent chains, over p = 2^w - c. *)
let powersw p w sums len x neg =
  let c = (1 lsl w) - p and mask = (1 lsl w) - 1 in
  let x2 = mulw p w c mask x x in
  let x3 = mulw p w c mask x2 x and x4 = mulw p w c mask x2 x2 in
  let p1 = ref x and p2 = ref x2 and p3 = ref x3 and p4 = ref x4 in
  let i = ref 0 in
  while !i + 4 <= len do
    let k = !i in
    accw p sums k !p1 neg;
    accw p sums (k + 1) !p2 neg;
    accw p sums (k + 2) !p3 neg;
    accw p sums (k + 3) !p4 neg;
    if k + 4 < len then begin
      p1 := mulw p w c mask !p1 x4;
      p2 := mulw p w c mask !p2 x4;
      p3 := mulw p w c mask !p3 x4;
      p4 := mulw p w c mask !p4 x4
    end;
    i := k + 4
  done;
  let k = !i in
  if k < len then accw p sums k !p1 neg;
  if k + 1 < len then accw p sums (k + 1) !p2 neg;
  if k + 2 < len then accw p sums (k + 2) !p3 neg

(* Lazy [0, 2p) accumulators, as in [horner4_32]: a root reads 0 or p. *)
let[@inline] hitw p a bit = if a = 0 || a = p then bit else 0

let horner4w p w f deg c0 c1 c2 c3 =
  let c = (1 lsl w) - p and mask = (1 lsl w) - 1 in
  let lead = Array.unsafe_get f deg in
  let a0 = ref lead and a1 = ref lead and a2 = ref lead and a3 = ref lead in
  for i = deg - 1 downto 0 do
    let fi = Array.unsafe_get f i in
    a0 := mulw p w c mask !a0 c0 + fi;
    a1 := mulw p w c mask !a1 c1 + fi;
    a2 := mulw p w c mask !a2 c2 + fi;
    a3 := mulw p w c mask !a3 c3 + fi
  done;
  hitw p !a0 1 lor hitw p !a1 2 lor hitw p !a2 4 lor hitw p !a3 8

let is_rootw p w f deg r =
  let c = (1 lsl w) - p and mask = (1 lsl w) - 1 in
  let a = ref (Array.unsafe_get f deg) in
  for i = deg - 1 downto 0 do
    a := mulw p w c mask !a r + Array.unsafe_get f i
  done;
  hitw p !a 1 = 1

let deflatew p w f deg r =
  let c = (1 lsl w) - p and mask = (1 lsl w) - 1 in
  let carry = ref (Array.unsafe_get f deg) in
  for j = deg - 1 downto 0 do
    let orig = Array.unsafe_get f j in
    Array.unsafe_set f j !carry;
    carry := fold2pw p (mulw p w c mask !carry r + orig)
  done

let newtonw p w inv sums m f =
  let c = (1 lsl w) - p and mask = (1 lsl w) - 1 in
  Array.unsafe_set f m 1;
  for j = 1 to m do
    let acc = ref 0 in
    for i = 1 to j do
      acc :=
        fold2pw p
          (!acc
          + mulw p w c mask
              (Array.unsafe_get f (m - j + i))
              (Array.unsafe_get sums (i - 1)))
    done;
    let v = mulw p w c mask (Array.unsafe_get inv j) !acc in
    Array.unsafe_set f (m - j) (if v = 0 then 0 else p - v)
  done

(* ------------------------------------------------------------------ *)
(* Any other field, through its own operations.                       *)

let powers_generic k sums len x neg =
  let pw = ref x in
  for i = 0 to len - 1 do
    let s = Array.unsafe_get sums i in
    Array.unsafe_set sums i (if neg then k.sub s !pw else k.add s !pw);
    if i < len - 1 then pw := k.mul !pw x
  done

let horner_generic k f deg c =
  let a = ref (Array.unsafe_get f deg) in
  for i = deg - 1 downto 0 do
    a := k.add (k.mul !a c) (Array.unsafe_get f i)
  done;
  !a

let deflate_generic k f deg r =
  let carry = ref (Array.unsafe_get f deg) in
  for j = deg - 1 downto 0 do
    let orig = Array.unsafe_get f j in
    Array.unsafe_set f j !carry;
    carry := k.add (k.mul !carry r) orig
  done

let newton_generic k inv sums m f =
  Array.unsafe_set f m 1;
  for j = 1 to m do
    let acc = ref 0 in
    for i = 1 to j do
      acc :=
        k.add !acc
          (k.mul (Array.unsafe_get f (m - j + i)) (Array.unsafe_get sums (i - 1)))
    done;
    Array.unsafe_set f (m - j) (k.sub 0 (k.mul (Array.unsafe_get inv j) !acc))
  done

(* ------------------------------------------------------------------ *)
(* Entry points: bounds checked once per call, then the unsafe loops. *)

let powers k sums len id neg =
  if len < 0 || len > Array.length sums then
    invalid_arg "Kernel: power row longer than the sums";
  if len > 0 then begin
    let x = reduce k.p id in
    if k.fold = 32 then powers32 sums len x neg
    else if k.fold > 0 then powersw k.p k.fold sums len x neg
    else powers_generic k sums len x neg
  end

let add_powers k sums len id = powers k sums len id false
let sub_powers k sums len id = powers k sums len id true

let inverses k n =
  if n >= k.p then invalid_arg "Kernel.inverses: n >= modulus";
  let a = Array.make (n + 1) 0 in
  if n >= 1 then begin
    (* One field inversion for all n: with fact.(j) = j!, walking the
       inverse of n! back down gives 1/j = (j-1)! / j!. *)
    let fact = Array.make (n + 1) 1 in
    for j = 2 to n do
      fact.(j) <- k.mul fact.(j - 1) j
    done;
    let inv_fact = ref (k.inv fact.(n)) in
    for j = n downto 1 do
      a.(j) <- k.mul !inv_fact fact.(j - 1);
      inv_fact := k.mul !inv_fact j
    done
  end;
  a

let newton k ~inv ~sums m f =
  if m < 0 || m >= Array.length f || m > Array.length sums
     || m >= Array.length inv
  then invalid_arg "Kernel.newton: scratch shorter than the degree";
  if k.fold = 32 then newton32 inv sums m f
  else if k.fold > 0 then newtonw k.p k.fold inv sums m f
  else newton_generic k inv sums m f

let check_poly f deg =
  if deg < 0 || deg >= Array.length f then
    invalid_arg "Kernel: degree outside the coefficient array"

let horner4 k f deg ids off =
  check_poly f deg;
  let c0 = reduce k.p ids.(off) and c1 = reduce k.p ids.(off + 1)
  and c2 = reduce k.p ids.(off + 2) and c3 = reduce k.p ids.(off + 3) in
  if k.fold = 32 then horner4_32 f deg c0 c1 c2 c3
  else if k.fold > 0 then horner4w k.p k.fold f deg c0 c1 c2 c3
  else
    (if horner_generic k f deg c0 = 0 then 1 else 0)
    lor (if horner_generic k f deg c1 = 0 then 2 else 0)
    lor (if horner_generic k f deg c2 = 0 then 4 else 0)
    lor if horner_generic k f deg c3 = 0 then 8 else 0

let is_root k f deg id =
  check_poly f deg;
  let c = reduce k.p id in
  if k.fold = 32 then is_root32 f deg c
  else if k.fold > 0 then is_rootw k.p k.fold f deg c
  else horner_generic k f deg c = 0

let deflate k f deg id =
  check_poly f deg;
  let r = reduce k.p id in
  if k.fold = 32 then deflate32 f deg r
  else if k.fold > 0 then deflatew k.p k.fold f deg r
  else deflate_generic k f deg r
