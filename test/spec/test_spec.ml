(* Instantiates the executable spec (Spec) against the reference
   implementations AND the lib/fastpath flat-array variants: the same
   properties run differentially against both, so the fast path can
   never drift from the semantics the spec pins down. *)

module Modular = Sidecar_field.Modular
module Primes = Sidecar_field.Primes
module Log_field = Sidecar_field.Log_field
module Psum = Sidecar_quack.Psum
module Kernel = Sidecar_quack.Kernel
module Invariant = Sidecar_quack.Invariant
module Flow_table = Sidecar_runtime.Flow_table
module Time = Netsim.Sim_time
module Fp = Sidecar_fastpath

(* Field backends under test. *)
module F16 = (val Primes.field_for_bits 16)
module L16 = (val Log_field.make (Primes.field_for_bits 16))
module F24 = (val Primes.field_for_bits 24)
module F32 = (val Primes.field_for_bits 32)

module F16_laws = Spec.Field_spec (F16)
module F32_laws = Spec.Field_spec (F32)
module L16_laws = Spec.Field_spec (L16)
module Diff16 = Spec.Field_diff (F16) (L16)

(* Sketch implementations: the reference sketch over the 32-, 16- and
   24-bit presets (the kernel's inlined 2^32 - 5 loops and its
   fold-reduced arm), and the same 16-bit field served through the
   log/antilog tables, which keeps the kernel on its closure arm. *)
module Sketch_of (X : sig
  val bits : int
  val field : (module Modular.S)
end) : Spec.SKETCH = struct
  type t = Psum.t

  let create ~threshold = Psum.create ~bits:X.bits ~field:X.field ~threshold ()
  let modulus = Psum.modulus
  let count = Psum.count
  let sums = Psum.sums
  let insert = Psum.insert
  let remove = Psum.remove
end

module Ref32 = Sketch_of (struct
  let bits = 32
  let field = Primes.field_for_bits 32
end)

module Ref16 = Sketch_of (struct
  let bits = 16
  let field = Primes.field_for_bits 16
end)

module Ref24 = Sketch_of (struct
  let bits = 24
  let field = Primes.field_for_bits 24
end)

module Log16 = Sketch_of (struct
  let bits = 16
  let field = Log_field.make (Primes.field_for_bits 16)
end)

(* Flat-array sketches (lib/fastpath): a standalone single-slot slab
   per sketch, with a batch size that does not divide the usual insert
   counts so reads constantly exercise partial flushes. Backends
   covered: the 2^b - c integer fold (16- and 24-bit presets), the
   2^32 - 5 fast path, and the log-table multiply. *)
module Flat_of (X : sig
  val bits : int
  val backend : Fp.Slab.backend
end) : Spec.SKETCH = struct
  type t = Fp.Psum_flat.t

  let create ~threshold =
    Fp.Psum_flat.create ~bits:X.bits ~backend:X.backend ~batch:3 ~threshold ()

  let modulus = Fp.Psum_flat.modulus
  let count = Fp.Psum_flat.count
  let sums = Fp.Psum_flat.sums
  let insert = Fp.Psum_flat.insert
  let remove = Fp.Psum_flat.remove
end

module Flat16 = Flat_of (struct
  let bits = 16
  let backend = `Auto
end)

module Flat24 = Flat_of (struct
  let bits = 24
  let backend = `Auto
end)

module Flat32 = Flat_of (struct
  let bits = 32
  let backend = `Auto
end)

module FlatLog16 = Flat_of (struct
  let bits = 16
  let backend = `Log
end)

module Ref32_spec = Spec.Sketch_spec (Ref32)
module Ref16_spec = Spec.Sketch_spec (Ref16)
module Ref24_spec = Spec.Sketch_spec (Ref24)
module Log16_spec = Spec.Sketch_spec (Log16)
module Flat16_spec = Spec.Sketch_spec (Flat16)
module Flat24_spec = Spec.Sketch_spec (Flat24)
module Flat32_spec = Spec.Sketch_spec (Flat32)
module FlatLog16_spec = Spec.Sketch_spec (FlatLog16)
module Sketch_diff16 = Spec.Sketch_diff (Ref16) (Log16)
module Flat_diff16 = Spec.Sketch_diff (Ref16) (Flat16)
module Flat_diff24 = Spec.Sketch_diff (Ref24) (Flat24)
module Flat_diff32 = Spec.Sketch_diff (Ref32) (Flat32)
module Flat_diff_log16 = Spec.Sketch_diff (Flat16) (FlatLog16)
module Decode16 = Spec.Decoder_spec (F16) (Ref16)
module Decode24 = Spec.Decoder_spec (F24) (Ref24)
module Decode32 = Spec.Decoder_spec (F32) (Ref32)
module Decode16_flat = Spec.Decoder_spec (F16) (Flat16)
module Decode32_flat = Spec.Decoder_spec (F32) (Flat32)

(* The table-multiply field is the only one left on the kernel's
   closure arm, so its decoder keeps that arm's newton/horner4/deflate
   under test. *)
module DecodeLog16 = Spec.Decoder_spec (L16) (Log16)

(* Every width the field presets serve, plus two table-multiply fields,
   each with the kernel arm it must get: fold exactly inside the proven
   gate (b = 16..30), and never for a table multiply, whatever its
   modulus. *)
let kernel_fields =
  List.init 31 (fun i ->
      let b = i + 2 in
      let arm =
        if b = 32 then `P32 else if b >= 16 && b <= 30 then `Fold b else `Closure
      in
      (Printf.sprintf "Kernel%d" b, Primes.field_for_bits b, arm))
  @ [
      ("KernelLog16", (module L16 : Modular.S), `Closure);
      ("KernelLog20", Log_field.make (Primes.field_for_bits 20), `Closure);
    ]

let kernel_props =
  List.concat_map
    (fun (name, field, _) ->
      let module K = Spec.Kernel_spec ((val field : Modular.S)) in
      K.props name)
    kernel_fields

let test_kernel_arms () =
  let show = function
    | `P32 -> "p32"
    | `Fold w -> Printf.sprintf "fold %d" w
    | `Closure -> "closure"
  in
  List.iter
    (fun (name, field, arm) ->
      Alcotest.(check string) name (show arm)
        (show (Kernel.arm (Kernel.of_field field))))
    kernel_fields

(* Every arm's loops allocate nothing: a [Gc.minor_words] delta over
   many calls, so the counter's own boxed floats stay far below one
   word per call. *)
let test_kernel_no_alloc () =
  List.iter
    (fun (name, field, _) ->
      let k = Kernel.of_field field and t = 20 in
      let ids = Array.init t (fun i -> i + 1) in
      let sums = Array.make t 0 and f = Array.make (t + 1) 0 in
      let inv = Kernel.inverses k t in
      Array.iter (Kernel.add_powers k sums t) ids;
      let calls = 1000 in
      let before = Gc.minor_words () in
      for i = 1 to calls do
        Kernel.add_powers k sums t i;
        Kernel.sub_powers k sums t i;
        Kernel.newton k ~inv ~sums t f;
        ignore (Sys.opaque_identity (Kernel.horner4 k f t ids (i mod (t - 3))));
        ignore (Sys.opaque_identity (Kernel.is_root k f t i));
        Kernel.deflate k f t ids.(i mod t)
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words over %d calls" name words calls)
        true
        (words < float_of_int calls))
    (List.filter
       (fun (name, _, _) ->
         List.mem name [ "Kernel16"; "Kernel24"; "Kernel32"; "KernelLog16" ])
       kernel_fields)

module Flat_table_spec = Spec.Table_spec (struct
  type t = Fp.Flat_table.t

  let create ~capacity = Fp.Flat_table.create ~capacity ()
  let admit = Fp.Flat_table.admit
  let remove = Fp.Flat_table.remove
  let find = Fp.Flat_table.find
  let occupancy = Fp.Flat_table.occupancy
  let peak_occupancy = Fp.Flat_table.peak_occupancy
  let iter = Fp.Flat_table.iter
  let admitted t = (Fp.Flat_table.stats t).Fp.Flat_table.admitted

  let evicted t =
    let s = Fp.Flat_table.stats t in
    s.Fp.Flat_table.evicted_lru + s.Fp.Flat_table.evicted_idle

  let removed t = (Fp.Flat_table.stats t).Fp.Flat_table.removed
end)

(* Fastpath-specific properties the generic seams cannot express. *)
let fastpath_props =
  let ids_arb =
    QCheck.list_of_size (QCheck.Gen.int_range 0 64) (QCheck.map abs QCheck.int)
  in
  [
    (* Batching is an invisible optimisation: a flat sketch fed one
       insert_batch call agrees with the reference Psum fed the same
       identifiers one at a time, for every batch granularity. *)
    QCheck.Test.make ~count:200
      ~name:"Psum_flat: batched inserts = sequential reference Psum"
      (QCheck.pair (QCheck.int_range 1 8) ids_arb)
      (fun (batch, ids) ->
        let flat =
          Fp.Psum_flat.create ~bits:24 ~batch ~threshold:10 ()
        in
        let reference = Psum.create ~bits:24 ~threshold:10 () in
        Fp.Psum_flat.insert_batch flat (Array.of_list ids);
        List.iter (Psum.insert reference) ids;
        Fp.Psum_flat.sums flat = Psum.sums reference
        && Fp.Psum_flat.count flat = Psum.count reference);
    (* Slot recycling never leaks state: whatever a slot held before
       release, re-acquiring hands out a scrubbed sketch, and the
       live/free partition of the arena stays exact. *)
    QCheck.Test.make ~count:200
      ~name:"Slab: released slots come back scrubbed, arena partition holds"
      (QCheck.list_of_size (QCheck.Gen.int_range 0 40)
         (QCheck.pair (QCheck.int_range 0 3) (QCheck.map abs QCheck.int)))
      (fun trace ->
        let slots = 4 in
        let slab = Fp.Slab.create ~bits:16 ~batch:3 ~slots ~threshold:6 () in
        let views =
          Array.init slots (fun slot -> Fp.Psum_flat.of_slot slab ~slot)
        in
        let ok = ref true in
        List.iter
          (fun (_, id) ->
            (if Fp.Slab.free_count slab > 0 then begin
               let slot = Fp.Slab.acquire slab in
               let v = views.(slot) in
               (* freshly acquired: scrubbed, whatever its past life *)
               if
                 Fp.Psum_flat.count v <> 0
                 || not (Array.for_all (( = ) 0) (Fp.Psum_flat.sums v))
               then ok := false;
               Fp.Psum_flat.insert v id;
               Fp.Psum_flat.insert v (id + 1)
             end
             else
               (* full: release the slot the id points at *)
               Fp.Slab.release slab (id mod slots));
            if Fp.Slab.live_count slab + Fp.Slab.free_count slab <> slots then
              ok := false)
          trace;
        !ok);
  ]

(* Satellite of the sidespec contracts: prove the runtime twins
   actually execute when the debug gate is up, so CI running with
   SIDECAR_INVARIANTS=1 is exercising them rather than no-ops. *)
let test_invariant_twins_fire () =
  let was = Invariant.active () in
  Invariant.set_active true;
  let before = Invariant.checks_run () in
  (* psum-in-field + psum-diff-in-field *)
  let p = Psum.create ~threshold:4 () in
  Psum.insert p 42;
  Psum.remove p 42;
  ignore (Psum.difference ~sent:p ~received_sums:(Psum.sums p) ());
  (* flowtable-occupancy + flowtable-bounded *)
  let ft = Flow_table.create ~capacity:2 () in
  let admit k now =
    ignore (Flow_table.admit ft ~now:(Time.ms now) k (fun () -> k))
  in
  admit 1 1;
  admit 2 2;
  admit 3 3;
  ignore (Flow_table.remove ft 2);
  Invariant.set_active was;
  let fired = Invariant.checks_run () - before in
  Alcotest.(check bool)
    (Printf.sprintf "runtime twins executed (%d checks fired)" fired)
    true (fired > 0)

(* The reference sketches (Psum16/24/32) and their decoders at every
   threshold of [Spec.thresholds]; threshold 12 keeps its historical
   place in each group below. *)
let at_thresholds (props : ?threshold:int -> string -> QCheck2.Test.t list) impl =
  List.concat_map
    (fun threshold -> if threshold = 12 then [] else props ~threshold impl)
    Spec.thresholds

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spec"
    [
      ( "field-laws",
        q (F16_laws.props "F16" @ F32_laws.props "F32" @ L16_laws.props "Log16")
      );
      ("field-diff", q (Diff16.props "Modular16=Log16"));
      ( "sketch-spec",
        q
          (Ref32_spec.props "Psum32" @ Ref16_spec.props "Psum16"
         @ Log16_spec.props "PsumLog16" @ Flat16_spec.props "Flat16"
         @ Flat24_spec.props "Flat24" @ Flat32_spec.props "Flat32"
         @ FlatLog16_spec.props "FlatLog16" @ Ref24_spec.props "Psum24"
         @ at_thresholds Ref16_spec.props "Psum16"
         @ at_thresholds Ref24_spec.props "Psum24"
         @ at_thresholds Ref32_spec.props "Psum32") );
      ( "sketch-diff",
        q
          (Sketch_diff16.props "Psum16=PsumLog16"
          @ Flat_diff16.props "Psum16=Flat16"
          @ Flat_diff32.props "Psum32=Flat32"
          @ Flat_diff_log16.props "Flat16=FlatLog16"
          @ Flat_diff24.props "Psum24=Flat24"
          @ at_thresholds Flat_diff16.props "Psum16=Flat16"
          @ at_thresholds Flat_diff24.props "Psum24=Flat24"
          @ at_thresholds Flat_diff32.props "Psum32=Flat32") );
      ( "decoder-spec",
        q
          (Decode16.props "Decoder16" @ Decode32.props "Decoder32"
         @ Decode16_flat.props "Decoder16/flat"
         @ Decode32_flat.props "Decoder32/flat" @ Decode24.props "Decoder24"
         @ Decode16.oracle_props "Decoder16"
         @ Decode24.oracle_props "Decoder24"
         @ Decode32.oracle_props "Decoder32"
         @ at_thresholds Decode16.props "Decoder16"
         @ at_thresholds Decode24.props "Decoder24"
         @ at_thresholds Decode32.props "Decoder32"
         @ at_thresholds Decode16.oracle_props "Decoder16"
         @ at_thresholds Decode24.oracle_props "Decoder24"
         @ at_thresholds Decode32.oracle_props "Decoder32"
         @ DecodeLog16.props "DecoderLog16"
         @ DecodeLog16.oracle_props "DecoderLog16"
         @ at_thresholds DecodeLog16.props "DecoderLog16"
         @ at_thresholds DecodeLog16.oracle_props "DecoderLog16") );
      ( "kernel-diff",
        Alcotest.test_case "arm follows the declared reduction" `Quick
          test_kernel_arms
        :: Alcotest.test_case "no arm allocates" `Quick test_kernel_no_alloc
        :: q kernel_props );
      ( "flow-table-spec",
        q
          (Spec.Flow_table_spec.props "Flow_table"
          @ Flat_table_spec.props "Flat_table") );
      ("fastpath-spec", q fastpath_props);
      ( "invariant-twins",
        [
          Alcotest.test_case "twins fire under the debug gate" `Quick
            test_invariant_twins_fire;
        ] );
    ]
