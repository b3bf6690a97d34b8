module Modular = Sidecar_field.Modular
module Quack = Sidecar_quack.Quack
module Invariant = Sidecar_quack.Invariant
module A1 = Bigarray.Array1

[@@@sidespec
  "flatpsum-in-field: every batch flush and every remove leaves all of \
   the slot's power sums inside [0, modulus)"]
[@@@sidespec
  "flatpsum-pending-bounded: a slot's pending-identifier count never \
   exceeds the slab batch size, and is zero right after a flush"]

(* The slab's vectors, arithmetic and geometry are cached here at
   view-creation time: without cross-module inlining every [Slab]
   accessor is a call, and [insert] runs once per packet. The caches
   alias the slab's own arrays, so [Slab.release]'s scrub is visible
   through them. *)
type t = {
  slab : Slab.t;
  slot : int;
  sums : Slab.vec;
  pend : Slab.vec;
  np : int array;
  counts : int array;
  p : int;
  batch : int;
  th : int;
  sbase : int;
  pbase : int;
}

let of_slot slab ~slot =
  if slot < 0 || slot >= Slab.slots slab then
    invalid_arg "Psum_flat.of_slot: slot out of range";
  let th = Slab.threshold slab and batch = Slab.batch slab in
  {
    slab;
    slot;
    sums = Slab.sums_vec slab;
    pend = Slab.pending_vec slab;
    np = Slab.npending slab;
    counts = Slab.counts slab;
    p = Slab.modulus slab;
    batch;
    th;
    sbase = slot * th;
    pbase = slot * batch;
  }

let create ?bits ?field ?backend ?batch ~threshold () =
  let slab = Slab.create ?bits ?field ?backend ?batch ~slots:1 ~threshold () in
  of_slot slab ~slot:(Slab.acquire slab)

let slab t = t.slab
let slot t = t.slot
let bits t = Slab.bits t.slab
let threshold t = Slab.threshold t.slab
let modulus t = Slab.modulus t.slab
let count t = t.counts.(t.slot)

(* Same contract as Psum.residue: reduce an untrusted caller int into
   the field before it touches the sums. *)
let[@inline] residue p id =
  if id >= 0 && id < p then id
  else begin
    (* sidelint: allow — reducing an untrusted caller int INTO the field *)
    let r = id mod p in
    if r < 0 then r + p else r
  end

let check_in_field t what =
  if Invariant.active () then
    Invariant.check ~name:("flatpsum-in-field: Psum_flat." ^ what) (fun () ->
        let p = Slab.modulus t.slab and th = Slab.threshold t.slab in
        let sums = Slab.sums_vec t.slab in
        let ok = ref true in
        for i = t.slot * th to ((t.slot + 1) * th) - 1 do
          let s = A1.get sums i in
          if s < 0 || s >= p then ok := false
        done;
        !ok)

let check_pending t what =
  if Invariant.active () then
    Invariant.check
      ~name:("flatpsum-pending-bounded: Psum_flat." ^ what)
      (fun () ->
        let np = (Slab.npending t.slab).(t.slot) in
        np >= 0 && np <= Slab.batch t.slab)

(* The batch flush: one pass over the slot's sum vector, with the
   running powers of all k pending identifiers advanced together.
   Each backend's inner loops are k independent multiply chains, so
   out-of-order hardware overlaps them where the reference sketch's
   single sequential Horner chain cannot. *)

let flush t =
  let k = t.np.(t.slot) in
  if k > 0 then begin
    let th = t.th in
    let sums = t.sums and pend = t.pend in
    let pw = Slab.scratch t.slab and px = Slab.pend_scratch t.slab in
    let sbase = t.sbase and pbase = t.pbase in
    for j = 0 to k - 1 do
      let x = A1.unsafe_get pend (pbase + j) in
      Array.unsafe_set pw j x;
      Array.unsafe_set px j x
    done;
    (match Slab.arith t.slab with
    | Slab.Fold { p; b; c; mask } ->
        (* 2^b == c (mod p): each round folds the bits above b back in
           as a multiple of c, with no division, no float, and no
           data-dependent branches. The running powers are kept only
           PSEUDO-reduced (< 2^b + 2^13): two rounds restore that
           bound after each multiply, because with 16 <= b <= 30 and
           c <= 63 a product of two such factors is < 2^62 and folds
           to < 64*2^b + 2^19, then to < 2^b + 4347. Only the sums —
           the observable state — need full reduction: a lazy
           accumulation of at most 4096 pseudo-reduced terms is
           < 2^(b+13), and three rounds plus one conditional subtract
           land it exactly in [0, p). The rounds are written out by
           hand: a local helper would be compiled as a heap-allocated
           closure over [b], [c] and [mask]. *)
        for i = 0 to th - 1 do
          let acc = ref (A1.unsafe_get sums (sbase + i)) in
          for j = 0 to k - 1 do
            acc := !acc + Array.unsafe_get pw j
          done;
          (* sidelint: allow — audited fold reduction, bounds above *)
          let x = ((!acc lsr b) * c) + (!acc land mask) in
          (* sidelint: allow — second round, same congruence *)
          let x = ((x lsr b) * c) + (x land mask) in
          (* sidelint: allow — third round lands below 2^b *)
          let x = ((x lsr b) * c) + (x land mask) in
          A1.unsafe_set sums (sbase + i) (if x >= p then x - p else x);
          if i < th - 1 then
            for j = 0 to k - 1 do
              let y = Array.unsafe_get pw j * Array.unsafe_get px j in
              (* sidelint: allow — first pseudo-reducing round *)
              let y = ((y lsr b) * c) + (y land mask) in
              (* sidelint: allow — second round, restores < 2^b + 2^13 *)
              let y = ((y lsr b) * c) + (y land mask) in
              Array.unsafe_set pw j y
            done
        done
    | Slab.Barrett { p; invp } ->
        (* Division-free reduction: q = trunc(x / p) estimated through
           the float inverse is within one of the true quotient for
           x < 2^52 (float_of_int exact, relative error < 2^-50), so
           two compare-and-correct branches land r in [0, p). Sums are
           accumulated lazily: k + 1 in-field terms stay below
           (4096 + 1) * 2^26 < 2^39, one reduction per sum index. *)
        for i = 0 to th - 1 do
          let acc = ref (A1.unsafe_get sums (sbase + i)) in
          for j = 0 to k - 1 do
            acc := !acc + Array.unsafe_get pw j
          done;
          let x = !acc in
          (* sidelint: allow — audited Barrett reduce, bounds above *)
          let q = int_of_float (float_of_int x *. invp) in
          let r = x - (q * p) in
          let r = if r < 0 then r + p else if r >= p then r - p else r in
          A1.unsafe_set sums (sbase + i) r;
          if i < th - 1 then
            for j = 0 to k - 1 do
              let y = Array.unsafe_get pw j * Array.unsafe_get px j in
              (* sidelint: allow — same Barrett reduce on y < p^2 < 2^52 *)
              let q = int_of_float (float_of_int y *. invp) in
              let r = y - (q * p) in
              let r = if r < 0 then r + p else if r >= p then r - p else r in
              Array.unsafe_set pw j r
            done
        done
    | Slab.Fast32 ->
        (* p = 2^32 - 5, mirroring Kernel's inlined fold reduction:
           x = hi * 2^32 + lo ≡ 5 * hi + lo (mod p). Lazy accumulation
           over k + 1 terms < 2^32 stays below 2^45, within the
           reducer's 2^50 domain. Folds are written out by hand — a
           local helper would be a heap-allocated closure. *)
        let p = 4294967291 and mask32 = 0xFFFFFFFF in
        for i = 0 to th - 1 do
          let acc = ref (A1.unsafe_get sums (sbase + i)) in
          for j = 0 to k - 1 do
            acc := !acc + Array.unsafe_get pw j
          done;
          (* sidelint: allow — audited fast path (see Kernel.reduce32) *)
          let x = ((!acc lsr 32) * 5) + (!acc land mask32) in
          (* sidelint: allow — second fold, same bound *)
          let x = ((x lsr 32) * 5) + (x land mask32) in
          A1.unsafe_set sums (sbase + i) (if x >= p then x - p else x);
          if i < th - 1 then
            for j = 0 to k - 1 do
              let a = Array.unsafe_get pw j
              and b = Array.unsafe_get px j in
              (* 16-bit split keeps every product < 2^48 *)
              (* sidelint: allow — high half (see Kernel.mul32) *)
              let u = ((a lsr 16) * b) in
              (* sidelint: allow — fold the high-half product *)
              let u = ((u lsr 32) * 5) + (u land mask32) in
              (* sidelint: allow — second fold *)
              let u = ((u lsr 32) * 5) + (u land mask32) in
              let upper = if u >= p then u - p else u in
              (* sidelint: allow — low half, sum < 2^49 *)
              let y = ((upper lsl 16) + ((a land 0xffff) * b)) in
              (* sidelint: allow — fold *)
              let y = ((y lsr 32) * 5) + (y land mask32) in
              (* sidelint: allow — second fold *)
              let y = ((y lsr 32) * 5) + (y land mask32) in
              Array.unsafe_set pw j (if y >= p then y - p else y)
            done
        done
    | Slab.Log { log_; antilog; p } ->
        (* Table multiply (two lookups and an add); zero short-circuits
           because 0 has no discrete log. Lazy accumulation over
           k + 1 terms < 2^20 stays below 2^33. *)
        let order = p - 1 in
        for i = 0 to th - 1 do
          let acc = ref (A1.unsafe_get sums (sbase + i)) in
          for j = 0 to k - 1 do
            acc := !acc + Array.unsafe_get pw j
          done;
          (* sidelint: allow — lazy sum of in-field terms, reduced here *)
          A1.unsafe_set sums (sbase + i) (!acc mod p);
          if i < th - 1 then
            for j = 0 to k - 1 do
              let a = Array.unsafe_get pw j
              and b = Array.unsafe_get px j in
              let r =
                if a = 0 || b = 0 then 0
                else begin
                  let s = Array.unsafe_get log_ a + Array.unsafe_get log_ b in
                  Array.unsafe_get antilog
                    (if s >= order then s - order else s)
                end
              in
              Array.unsafe_set pw j r
            done
        done
    | Slab.Generic { add; mul; _ } ->
        for i = 0 to th - 1 do
          let acc = ref (A1.unsafe_get sums (sbase + i)) in
          for j = 0 to k - 1 do
            acc := add !acc (Array.unsafe_get pw j)
          done;
          A1.unsafe_set sums (sbase + i) !acc;
          if i < th - 1 then
            for j = 0 to k - 1 do
              Array.unsafe_set pw j
                (mul (Array.unsafe_get pw j) (Array.unsafe_get px j))
            done
        done);
    t.np.(t.slot) <- 0;
    check_in_field t "flush";
    check_pending t "flush"
  end

let insert t id =
  let x = residue t.p id in
  let k = t.np.(t.slot) in
  A1.unsafe_set t.pend (t.pbase + k) x;
  t.np.(t.slot) <- k + 1;
  t.counts.(t.slot) <- t.counts.(t.slot) + 1;
  check_pending t "insert";
  if k + 1 = t.batch then flush t

let insert_batch t ids = Array.iter (insert t) ids

let remove t id =
  flush t;
  let module F = (val Slab.field t.slab) in
  let x = residue t.p id in
  let sums = t.sums and sbase = t.sbase in
  let pw = ref F.one in
  for i = 0 to t.th - 1 do
    pw := F.mul !pw x;
    A1.set sums (sbase + i) (F.sub (A1.get sums (sbase + i)) !pw)
  done;
  t.counts.(t.slot) <- t.counts.(t.slot) - 1;
  check_in_field t "remove"

let sums_into t dst =
  if Array.length dst < t.th then
    invalid_arg "Psum_flat.sums_into: destination shorter than threshold";
  flush t;
  for i = 0 to t.th - 1 do
    Array.unsafe_set dst i (A1.unsafe_get t.sums (t.sbase + i))
  done

let sums t =
  let dst = Array.make t.th 0 in
  sums_into t dst;
  dst

let to_quack ?(count_bits = 16) t =
  if count_bits < 0 || count_bits > 62 then
    invalid_arg "Psum_flat.to_quack: count_bits must be in [0, 62]";
  flush t;
  let wrapped =
    let c = count t in
    if count_bits = 0 || count_bits >= 62 then c
    else c land ((1 lsl count_bits) - 1)
  in
  (* Mirror Quack.of_psum: the quACK carries the canonical wire
     representative of the count, so ref and flat datapaths agree. *)
  { Quack.bits = bits t; modulus = modulus t; count_bits; sums = sums t;
    count = wrapped }

let reset t =
  for i = 0 to t.th - 1 do
    A1.set t.sums (t.sbase + i) 0
  done;
  for j = 0 to t.batch - 1 do
    A1.set t.pend (t.pbase + j) 0
  done;
  t.np.(t.slot) <- 0;
  t.counts.(t.slot) <- 0
