module Modular = Sidecar_field.Modular
module Primes = Sidecar_field.Primes

[@@@sidespec
  "psum-in-field: every mutation (insert, remove, merge, set_state) leaves \
   all power sums inside [0, modulus)"]
[@@@sidespec
  "psum-diff-in-field: the sender/receiver difference sketch is itself a \
   valid sketch — every differenced sum lies in [0, modulus)"]

type t = {
  field : (module Modular.S);
  kernel : Kernel.t;
  bits : int;
  modulus : int;
  threshold : int;
  sums : int array;
  mutable count : int;
}

let create ?(bits = 32) ?field ~threshold () =
  if threshold < 0 then invalid_arg "Psum.create: negative threshold";
  let field =
    match field with Some f -> f | None -> Primes.field_for_bits bits
  in
  let module F = (val field) in
  if F.bits <> bits then invalid_arg "Psum.create: field width mismatch";
  {
    field;
    kernel = Kernel.of_field field;
    bits;
    modulus = F.modulus;
    threshold;
    sums = Array.make threshold 0;
    count = 0;
  }

let bits t = t.bits
let threshold t = t.threshold
let modulus t = t.modulus
let count t = t.count
let field t = t.field
let kernel t = t.kernel

(* Debug-gated: every mutation must leave the sketch inside the field. *)
let check_in_field t what =
  if Invariant.active () then
    Invariant.check ~name:("psum-in-field: Psum." ^ what) (fun () ->
        Array.for_all (fun s -> s >= 0 && s < t.modulus) t.sums)

(* The per-packet construction cost is the headline number of §4; the
   power-row loop lives in [Kernel], with the 2^32 - 5 fold inlined. *)
let insert t id =
  Kernel.add_powers t.kernel t.sums t.threshold id;
  t.count <- t.count + 1;
  check_in_field t "insert"

let remove t id =
  Kernel.sub_powers t.kernel t.sums t.threshold id;
  t.count <- t.count - 1;
  check_in_field t "remove"

let insert_list t ids = List.iter (insert t) ids
let sums t = Array.copy t.sums

let copy t = { t with sums = Array.copy t.sums }

let reset t =
  Array.fill t.sums 0 t.threshold 0;
  t.count <- 0

let set_state t ~sums ~count =
  if Array.length sums <> t.threshold then
    invalid_arg "Psum.set_state: threshold mismatch";
  (* Validate every sum before writing any: a mid-array failure must
     not leave the sketch half-overwritten (the caller catches the
     exception and keeps using [t]). *)
  Array.iter
    (fun s ->
      if s < 0 || s >= t.modulus then
        invalid_arg "Psum.set_state: sum out of field range")
    sums;
  Array.blit sums 0 t.sums 0 t.threshold;
  t.count <- count

let merge a b =
  if a.bits <> b.bits || a.threshold <> b.threshold then
    invalid_arg "Psum.merge: mismatched sketches";
  (* Same width does not mean same field: a 16-bit sketch over 65521
     and one over 65519 have identical [bits] yet incompatible
     arithmetic, and adding their sums would silently corrupt both. *)
  if a.modulus <> b.modulus then invalid_arg "Psum.merge: mismatched moduli";
  let module F = (val a.field) in
  let merged = copy a in
  for i = 0 to a.threshold - 1 do
    merged.sums.(i) <- F.add a.sums.(i) b.sums.(i)
  done;
  merged.count <- a.count + b.count;
  check_in_field merged "merge";
  merged

let difference ?received_modulus ~sent ~received_sums () =
  (* The receiver's sums arrive as bare integers, so the range check
     below cannot tell a smaller co-resident field apart from this
     one; callers that know the sender's advertised modulus pass it so
     the mismatch fails loudly instead of decoding garbage roots. *)
  (match received_modulus with
  | Some m when m <> sent.modulus ->
      invalid_arg "Psum.difference: mismatched moduli"
  | Some _ | None -> ());
  if Array.length received_sums > sent.threshold then
    invalid_arg "Psum.difference: receiver advertises a larger threshold";
  let module F = (val sent.field) in
  let diff =
    Array.mapi
      (fun i r ->
        if r < 0 || r >= sent.modulus then
          invalid_arg "Psum.difference: received sum out of field range"
        else F.sub sent.sums.(i) r)
      received_sums
  in
  if Invariant.active () then
    Invariant.check ~name:"psum-diff-in-field: Psum.difference" (fun () ->
        Array.for_all (fun s -> s >= 0 && s < sent.modulus) diff);
  diff

let pp ppf t =
  Format.fprintf ppf "@[<h>psum{b=%d t=%d count=%d sums=[%a]}@]" t.bits
    t.threshold t.count
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    (Array.to_list t.sums)
