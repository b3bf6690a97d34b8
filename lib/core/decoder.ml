module Modular = Sidecar_field.Modular
module Newton = Sidecar_field.Newton
module Roots = Sidecar_field.Roots

[@@@sidespec
  "decoder-missing-subset: whatever strategy decodes the difference sketch, \
   the reported missing multiset is contained in the candidate multiset"]
[@@@sidespec
  "decoder-missing-bounded: reported missing plus the unresolved residue \
   never exceed the advertised number of missing packets"]

type strategy = [ `Plug_in | `Factor ]
type outcome = { missing : int list; unresolved : int }
type error = [ `Threshold_exceeded of int * int ]

let pp_error ppf (`Threshold_exceeded (m, t)) =
  Format.fprintf ppf "threshold exceeded: %d missing > t = %d" m t

(* Debug-gated sanity of a successful decode: whatever strategy ran,
   the reported missing set is a sub-multiset of the candidates and,
   together with the unresolved residue, never exceeds the advertised
   number of missing packets. *)
let checked ~num_missing ~ids ~len outcome =
  if Invariant.active () then begin
    let candidates = List.init len (fun i -> ids.(i)) in
    Invariant.check ~name:"decoder-missing-subset: missing ⊆ candidates"
      (fun () ->
        Invariant.int_multiset_subset ~sub:outcome.missing ~super:candidates);
    Invariant.check ~name:"decoder-missing-bounded: missing + unresolved ≤ m"
      (fun () ->
        List.length outcome.missing + outcome.unresolved <= num_missing)
  end;
  Ok outcome

(* Scratch for one field and threshold, reused across decodes: the
   reduced power sums, the missing-packet polynomial, and the inverses
   of 1..t that Newton's identities divide by (§4.2's precomputation). *)
type workspace = {
  field : (module Modular.S);
  kernel : Kernel.t;
  inv : int array;
  sums : int array;
  poly : int array;
}

let workspace ~field ~threshold =
  let kernel = Kernel.of_field field in
  let t = max 0 threshold in
  {
    field;
    kernel;
    inv = Kernel.inverses kernel (min t (Kernel.modulus kernel - 1));
    sums = Array.make t 0;
    poly = Array.make (t + 1) 0;
  }

(* Plug-in: evaluate the degree-m polynomial [f] at four candidates per
   pass over its coefficients, and deflate in place only on a hit. The
   lowest hit of a group is a root of the current polynomial. The
   group's later hits were roots before that deflation, so each is
   re-checked against the quotient: a repeated root stays a root, a
   single one does not. A miss stays a miss, since a root of the
   quotient is a root of [f]. *)
let plug_in k f m ids len =
  let deg = ref m and missing = ref [] and i = ref 0 in
  while !deg >= 1 && !i + 4 <= len do
    let off = !i in
    let mask = Kernel.horner4 k f !deg ids off in
    if mask <> 0 then begin
      let first = ref true in
      for j = 0 to 3 do
        if mask land (1 lsl j) <> 0 && !deg >= 1 then begin
          let c = ids.(off + j) in
          if !first || Kernel.is_root k f !deg c then begin
            first := false;
            Kernel.deflate k f !deg c;
            decr deg;
            missing := c :: !missing
          end
        end
      done
    end;
    i := off + 4
  done;
  while !deg >= 1 && !i < len do
    let c = ids.(!i) in
    if Kernel.is_root k f !deg c then begin
      Kernel.deflate k f !deg c;
      decr deg;
      missing := c :: !missing
    end;
    incr i
  done;
  (List.rev !missing, !deg)

let factor (module F : Modular.S) ~diff_sums ~num_missing ~ids ~len =
  let module N = Newton.Make (F) in
  let module R = Roots.Make (F) in
  let sums = Array.init num_missing (fun i -> F.of_int diff_sums.(i)) in
  let roots = R.find_all (N.polynomial_of_power_sums sums) in
  (* Match roots to candidates by reduced value; one candidate
     occurrence consumes one root occurrence. *)
  let avail : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to len - 1 do
    let c = ids.(i) in
    let key = F.of_int c in
    match Hashtbl.find_opt avail key with
    | Some l -> l := c :: !l
    | None -> Hashtbl.add avail key (ref [ c ])
  done;
  let take r =
    match Hashtbl.find_opt avail r with
    | Some ({ contents = c :: rest } as l) ->
        l := rest;
        Some c
    | Some { contents = [] } | None -> None
  in
  let missing, unresolved =
    List.fold_left
      (fun (acc, unresolved) r ->
        match take r with
        | Some c -> (c :: acc, unresolved)
        | None -> (acc, unresolved + 1))
      ([], 0) roots
  in
  { missing = List.rev missing; unresolved }

(* The outcomes that need no candidates: more missing than the sums
   can express, or none missing. *)
let trivial ~diff_sums ~num_missing =
  let t = Array.length diff_sums in
  if num_missing < 0 || num_missing > t then
    Some (Error (`Threshold_exceeded (num_missing, t)))
  else if num_missing = 0 then Some (Ok { missing = []; unresolved = 0 })
  else None

let decode_ids ?(strategy = `Plug_in) ws ~diff_sums ~num_missing ~ids ~len =
  if len < 0 || len > Array.length ids then
    invalid_arg "Decoder.decode_ids: len outside the id array";
  match trivial ~diff_sums ~num_missing with
  | Some outcome -> outcome
  | None -> (
    match strategy with
    | `Plug_in ->
        let k = ws.kernel and m = num_missing in
        if m >= Kernel.modulus k then
          invalid_arg "Decoder: too many power sums for this field";
        let ws =
          if m <= Array.length ws.sums then ws
          else workspace ~field:ws.field ~threshold:m
        in
        for i = 0 to m - 1 do
          ws.sums.(i) <- Kernel.residue k diff_sums.(i)
        done;
        Kernel.newton k ~inv:ws.inv ~sums:ws.sums m ws.poly;
        let missing, unresolved = plug_in k ws.poly m ids len in
        checked ~num_missing ~ids ~len { missing; unresolved }
    | `Factor ->
        checked ~num_missing ~ids ~len
          (factor ws.field ~diff_sums ~num_missing ~ids ~len))

let decode ?strategy ~field ~diff_sums ~num_missing ~candidates () =
  match trivial ~diff_sums ~num_missing with
  | Some outcome -> outcome
  | None ->
      let ids = Array.of_list candidates in
      decode_ids ?strategy
        (workspace ~field ~threshold:num_missing)
        ~diff_sums ~num_missing ~ids ~len:(Array.length ids)

let decode_between ?strategy ?count_bits ~sent ~quack ~candidates () =
  let q = match count_bits with
    | None -> quack
    | Some c -> { quack with Quack.count_bits = c }
  in
  let num_missing = Quack.missing_count q ~sender_count:(Psum.count sent) in
  let diff_sums =
    Psum.difference ~received_modulus:q.Quack.modulus ~sent
      ~received_sums:q.Quack.sums ()
  in
  decode ?strategy ~field:(Psum.field sent) ~diff_sums ~num_missing ~candidates ()
