open Sidecar_quack

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let int_list = Alcotest.(list int)

let ids_of_range key ~bits lo hi =
  List.init (hi - lo) (fun i -> Identifier.of_counter key ~bits (lo + i))

(* sidelint: allow — tests index into freshly generated lists whose
   length they just chose; an out-of-range index is itself a test bug *)
let nth = List.nth

let key = Identifier.key_of_int 7

(* ------------------------------------------------------------------ *)
(* Identifier                                                          *)

let test_identifier_determinism () =
  let a = Identifier.of_counter key ~bits:32 42 in
  let b = Identifier.of_counter key ~bits:32 42 in
  check int "same ctr same id" a b;
  let c = Identifier.of_counter key ~bits:32 43 in
  check bool "different ctr different id" true (a <> c);
  let other = Identifier.key_of_int 8 in
  check bool "different key different id" true
    (a <> Identifier.of_counter other ~bits:32 42)

let test_identifier_width () =
  List.iter
    (fun bits ->
      for ctr = 0 to 999 do
        let id = Identifier.of_counter key ~bits ctr in
        if id < 0 || id >= 1 lsl bits then
          Alcotest.failf "id %d out of %d-bit range" id bits
      done)
    [ 8; 16; 24; 32 ]

let test_identifier_of_bytes () =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 4 0x1122334455667788L;
  check int "masked 16" 0x7788 (Identifier.of_bytes b ~off:4 ~bits:16);
  check int "masked 32" 0x55667788 (Identifier.of_bytes b ~off:4 ~bits:32);
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Identifier.of_bytes: need 8 bytes") (fun () ->
      ignore (Identifier.of_bytes b ~off:12 ~bits:32))

let test_identifier_distribution () =
  (* Crude uniformity check: low bit should be ~50/50. *)
  let n = 10_000 in
  let ones = ref 0 in
  for ctr = 0 to n - 1 do
    if Identifier.of_counter key ~bits:32 ctr land 1 = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  check bool "low bit roughly uniform" true (frac > 0.47 && frac < 0.53)

(* ------------------------------------------------------------------ *)
(* Psum                                                                *)

let test_psum_insert_remove_roundtrip () =
  let s = Psum.create ~threshold:10 () in
  let ids = ids_of_range key ~bits:32 0 50 in
  Psum.insert_list s ids;
  check int "count" 50 (Psum.count s);
  List.iter (Psum.remove s) ids;
  check int "count back to 0" 0 (Psum.count s);
  check bool "sums all zero" true (Array.for_all (( = ) 0) (Psum.sums s))

let test_psum_order_independent () =
  let a = Psum.create ~threshold:8 () in
  let b = Psum.create ~threshold:8 () in
  let ids = ids_of_range key ~bits:32 0 20 in
  Psum.insert_list a ids;
  Psum.insert_list b (List.rev ids);
  check bool "sums equal regardless of order" true (Psum.sums a = Psum.sums b)

let test_psum_difference_is_missing_sums () =
  let sent = Psum.create ~threshold:5 () in
  let received = Psum.create ~threshold:5 () in
  let ids = ids_of_range key ~bits:32 0 10 in
  Psum.insert_list sent ids;
  List.iteri (fun i id -> if i <> 3 && i <> 7 then Psum.insert received id) ids;
  let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
  let expect = Psum.create ~threshold:5 () in
  Psum.insert expect (nth ids 3);
  Psum.insert expect (nth ids 7);
  check bool "difference = sums of missing" true (diff = Psum.sums expect)

let test_psum_threshold_zero () =
  let s = Psum.create ~threshold:0 () in
  Psum.insert s 12345;
  check int "count still tracked" 1 (Psum.count s);
  check int "no sums" 0 (Array.length (Psum.sums s))

let test_psum_modulus_reduction () =
  let s = Psum.create ~bits:32 ~threshold:3 () in
  (* id >= p must be reduced, not crash *)
  Psum.insert s 4294967295;
  check int "count" 1 (Psum.count s);
  let s16 = Psum.create ~bits:16 ~threshold:3 () in
  Psum.insert s16 65535;
  (* 65535 mod 65521 = 14; power sums must match inserting 14 *)
  let s16' = Psum.create ~bits:16 ~threshold:3 () in
  Psum.insert s16' 14;
  check bool "id reduced mod p" true (Psum.sums s16 = Psum.sums s16')

let test_psum_bad_create () =
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Psum.create: negative threshold") (fun () ->
      ignore (Psum.create ~threshold:(-1) ()))

let test_psum_merge () =
  (* multipath: per-interface sketches compose into one (§5) *)
  let a = Psum.create ~threshold:6 () in
  let b = Psum.create ~threshold:6 () in
  let whole = Psum.create ~threshold:6 () in
  let ids = ids_of_range key ~bits:32 0 40 in
  List.iteri
    (fun i id ->
      Psum.insert whole id;
      if i mod 2 = 0 then Psum.insert a id else Psum.insert b id)
    ids;
  let merged = Psum.merge a b in
  check bool "merged sums = single-sketch sums" true (Psum.sums merged = Psum.sums whole);
  check int "merged count" 40 (Psum.count merged);
  let c = Psum.create ~threshold:5 () in
  Alcotest.check_raises "threshold mismatch"
    (Invalid_argument "Psum.merge: mismatched sketches") (fun () ->
      ignore (Psum.merge a c))

(* Same bit width, different prime: 65521 is the default 16-bit field,
   65519 the next prime down. Before the modulus check, merging (or
   differencing) these passed the bits/threshold validation and
   produced silently-corrupt sums. *)
module F16_alt = Sidecar_field.Modular.Make (struct
  let bits = 16
  let modulus = 65519
end)

let test_psum_modulus_mismatch () =
  let a = Psum.create ~bits:16 ~threshold:4 () in
  let b = Psum.create ~bits:16 ~field:(module F16_alt) ~threshold:4 () in
  check bool "same width" true (Psum.bits a = Psum.bits b);
  check bool "different primes" true (Psum.modulus a <> Psum.modulus b);
  Psum.insert_list a [ 1; 2; 3 ];
  Psum.insert_list b [ 4; 5 ];
  Alcotest.check_raises "merge rejects mismatched moduli"
    (Invalid_argument "Psum.merge: mismatched moduli") (fun () ->
      ignore (Psum.merge a b));
  Alcotest.check_raises "difference rejects mismatched moduli"
    (Invalid_argument "Psum.difference: mismatched moduli") (fun () ->
      ignore
        (Psum.difference ~received_modulus:(Psum.modulus b) ~sent:a
           ~received_sums:(Psum.sums b) ()));
  (* the declared-modulus path accepts a matching field *)
  let b' = Psum.create ~bits:16 ~threshold:4 () in
  Psum.insert_list b' [ 1; 2 ];
  let diff =
    Psum.difference ~received_modulus:(Psum.modulus a) ~sent:a
      ~received_sums:(Psum.sums b') ()
  in
  let expect = Psum.create ~bits:16 ~threshold:4 () in
  Psum.insert expect 3;
  check bool "matching moduli still subtract" true (diff = Psum.sums expect)

(* ------------------------------------------------------------------ *)
(* Quack + Wire                                                        *)

let test_quack_sizes_match_paper () =
  let s = Psum.create ~bits:32 ~threshold:20 () in
  let q = Quack.of_psum ~count_bits:16 s in
  check int "656 bits" 656 (Quack.size_bits q);
  check int "82 bytes" 82 (Quack.size_bytes q);
  check int "packed size" 82
    (Wire.packed_size ~bits:32 ~threshold:20 ~count_bits:16)

let test_quack_count_wraparound () =
  let q =
    { Quack.bits = 32; modulus = 4294967291; count_bits = 16; sums = [||];
      count = 65535 }
  in
  (* sender has sent 65540 total; receiver count wrapped *)
  check int "m across wrap" 5 (Quack.missing_count q ~sender_count:65540);
  let q2 = { q with Quack.count = 10 } in
  check int "no wrap" 2 (Quack.missing_count q2 ~sender_count:12)

let test_wire_packed_roundtrip () =
  List.iter
    (fun (bits, threshold, count_bits) ->
      let s = Psum.create ~bits ~threshold () in
      Psum.insert_list s (ids_of_range key ~bits 0 100);
      let q = Quack.of_psum ~count_bits s in
      let encoded = Wire.encode_packed q in
      check int
        (Printf.sprintf "size b=%d t=%d" bits threshold)
        (Wire.packed_size ~bits ~threshold ~count_bits)
        (String.length encoded);
      match Wire.decode_packed ~bits ~threshold ~count_bits encoded with
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e
      | Ok q' ->
          check bool "sums roundtrip" true (q.Quack.sums = q'.Quack.sums);
          (* with the count omitted (c = 0) the decoder yields 0; the
             protocol knows the count out of band in that mode *)
          let expect_count =
            if count_bits = 0 then 0 else Quack.wrap_count q q.Quack.count
          in
          check int "count roundtrip" expect_count q'.Quack.count)
    [ (32, 20, 16); (16, 10, 16); (24, 5, 16); (8, 3, 8); (32, 20, 0) ]

let test_wire_framed_roundtrip () =
  let s = Psum.create ~bits:24 ~threshold:7 () in
  Psum.insert_list s (ids_of_range key ~bits:24 0 42);
  let q = Quack.of_psum ~count_bits:16 s in
  match Wire.decode_framed (Wire.encode_framed q) with
  | Error e -> Alcotest.failf "framed decode failed: %a" Wire.pp_error e
  | Ok q' ->
      check int "bits" 24 q'.Quack.bits;
      check int "count" 42 q'.Quack.count;
      check bool "sums" true (q.Quack.sums = q'.Quack.sums)

let test_wire_errors () =
  let s = Psum.create ~bits:32 ~threshold:4 () in
  let q = Quack.of_psum s in
  let encoded = Wire.encode_framed q in
  (match Wire.decode_framed "XY" with
  | Error `Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  (match Wire.decode_framed ("XX" ^ String.sub encoded 2 (String.length encoded - 2)) with
  | Error `Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (match Wire.decode_packed ~bits:32 ~threshold:4 ~count_bits:16 "short" with
  | Error `Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  (* A sum >= modulus must be rejected: craft all-0xff payload. *)
  (match
     Wire.decode_packed ~bits:32 ~threshold:1 ~count_bits:0 "\xff\xff\xff\xff"
   with
  | Error (`Sum_out_of_range 0) -> ()
  | _ -> Alcotest.fail "expected Sum_out_of_range")

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)

let decode_scenario ?strategy ~bits ~threshold ~total ~missing_idx () =
  let sent = Psum.create ~bits ~threshold () in
  let received = Psum.create ~bits ~threshold () in
  let ids = ids_of_range key ~bits 0 total in
  Psum.insert_list sent ids;
  List.iteri
    (fun i id -> if not (List.mem i missing_idx) then Psum.insert received id)
    ids;
  let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
  let expect = List.map (nth ids) missing_idx in
  ( Decoder.decode ?strategy ~field:(Psum.field sent) ~diff_sums:diff
      ~num_missing:(List.length missing_idx) ~candidates:ids (),
    expect )

let test_decode_none_missing () =
  match decode_scenario ~bits:32 ~threshold:10 ~total:100 ~missing_idx:[] () with
  | Ok { missing = []; unresolved = 0 }, _ -> ()
  | Ok _, _ -> Alcotest.fail "expected empty decode"
  | Error e, _ -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

let test_decode_single () =
  match decode_scenario ~bits:32 ~threshold:10 ~total:100 ~missing_idx:[ 17 ] () with
  | Ok { missing; unresolved = 0 }, expect ->
      check int_list "single missing" expect missing
  | Ok _, _ -> Alcotest.fail "unresolved should be 0"
  | Error e, _ -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

let test_decode_paper_scale () =
  (* n = 1000, t = 20, m = 20 — the headline configuration. *)
  let missing_idx = List.init 20 (fun i -> i * 47) in
  match
    decode_scenario ~bits:32 ~threshold:20 ~total:1000 ~missing_idx ()
  with
  | Ok { missing; unresolved = 0 }, expect ->
      check int_list "20 of 1000" (List.sort compare expect) (List.sort compare missing)
  | Ok { unresolved; _ }, _ -> Alcotest.failf "unresolved = %d" unresolved
  | Error e, _ -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

let test_decode_factor_strategy () =
  let missing_idx = [ 3; 141; 592; 653 ] in
  match
    decode_scenario ~strategy:`Factor ~bits:32 ~threshold:8 ~total:700
      ~missing_idx ()
  with
  | Ok { missing; unresolved = 0 }, expect ->
      check int_list "factor strategy" (List.sort compare expect)
        (List.sort compare missing)
  | Ok { unresolved; _ }, _ -> Alcotest.failf "unresolved = %d" unresolved
  | Error e, _ -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

let test_decode_all_bit_widths () =
  List.iter
    (fun bits ->
      let missing_idx = [ 5; 10; 15 ] in
      match decode_scenario ~bits ~threshold:5 ~total:50 ~missing_idx () with
      | Ok { missing; _ }, expect ->
          (* At 8 bits collisions in a 50-packet log are plausible but
             the multiset cardinality must match. *)
          check int (Printf.sprintf "b=%d cardinality" bits) (List.length expect)
            (List.length missing)
      | Error e, _ -> Alcotest.failf "b=%d error: %a" bits Decoder.pp_error e)
    [ 16; 24; 32 ]

let test_decode_large_scale_factoring () =
  (* 50k outstanding packets: the factoring decoder's polynomial work
     depends only on t, so this stays fast and exact *)
  let n = 50_000 in
  let missing_idx = List.init 20 (fun i -> i * 2_347) in
  match
    decode_scenario ~strategy:`Factor ~bits:32 ~threshold:20 ~total:n
      ~missing_idx ()
  with
  | Ok { missing; unresolved = 0 }, expect ->
      check int_list "50k-candidate decode" (List.sort compare expect)
        (List.sort compare missing)
  | Ok { unresolved; _ }, _ -> Alcotest.failf "unresolved = %d" unresolved
  | Error e, _ -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

let test_decode_threshold_exceeded () =
  match
    decode_scenario ~bits:32 ~threshold:3 ~total:50 ~missing_idx:[ 1; 2; 3; 4 ] ()
  with
  | Error (`Threshold_exceeded (4, 3)), _ -> ()
  | Error e, _ -> Alcotest.failf "wrong error: %a" Decoder.pp_error e
  | Ok _, _ -> Alcotest.fail "expected threshold error"

let test_decode_duplicate_ids () =
  (* The same identifier sent twice, one copy missing: multiset decode
     must report exactly one occurrence missing. *)
  let bits = 32 and threshold = 4 in
  let sent = Psum.create ~bits ~threshold () in
  let received = Psum.create ~bits ~threshold () in
  let dup = 0xDEADBEEF in
  let others = ids_of_range key ~bits 0 10 in
  List.iter (Psum.insert sent) (dup :: dup :: others);
  List.iter (Psum.insert received) (dup :: others);
  let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
  match
    Decoder.decode ~field:(Psum.field sent) ~diff_sums:diff ~num_missing:1
      ~candidates:(dup :: dup :: others) ()
  with
  | Ok { missing = [ m ]; unresolved = 0 } -> check int "the dup id" dup m
  | Ok _ -> Alcotest.fail "expected exactly one missing"
  | Error e -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

let test_decode_repeated_missing_multiplicity () =
  (* Both copies of a duplicated identifier lost: the difference
     polynomial has a double root, and each strategy must report the
     id with multiplicity 2 — `Factor depends on the root finder
     recovering multiplicities by repeated deflation, not just the set
     of distinct roots. *)
  let bits = 32 and threshold = 6 in
  let dup = 0xDEADBEEF in
  let others = ids_of_range key ~bits 0 12 in
  let decode strategy =
    let sent = Psum.create ~bits ~threshold () in
    let received = Psum.create ~bits ~threshold () in
    List.iter (Psum.insert sent) (dup :: dup :: others);
    List.iter (Psum.insert received) others;
    let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
    Decoder.decode ~strategy ~field:(Psum.field sent) ~diff_sums:diff
      ~num_missing:2
      ~candidates:(dup :: dup :: others)
      ()
  in
  List.iter
    (fun (name, strategy) ->
      match decode strategy with
      | Ok { missing; unresolved = 0 } ->
          check int_list
            (Printf.sprintf "%s: dup reported twice" name)
            [ dup; dup ] (List.sort compare missing)
      | Ok { missing; unresolved } ->
          Alcotest.failf "%s: %d missing, %d unresolved" name
            (List.length missing) unresolved
      | Error e -> Alcotest.failf "%s: unexpected error: %a" name Decoder.pp_error e)
    [ ("plug_in", `Plug_in); ("factor", `Factor) ]

let test_decode_unresolved_when_candidates_incomplete () =
  let missing_idx = [ 2; 4 ] in
  let sent = Psum.create ~bits:32 ~threshold:5 () in
  let received = Psum.create ~bits:32 ~threshold:5 () in
  let ids = ids_of_range key ~bits:32 0 20 in
  Psum.insert_list sent ids;
  List.iteri (fun i id -> if not (List.mem i missing_idx) then Psum.insert received id) ids;
  let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
  (* Withhold one of the missing ids from the candidate list. *)
  let candidates = List.filteri (fun i _ -> i <> 2) ids in
  match
    Decoder.decode ~field:(Psum.field sent) ~diff_sums:diff ~num_missing:2
      ~candidates ()
  with
  | Ok { missing = [ m ]; unresolved = 1 } ->
      check int "found the other" (nth ids 4) m
  | Ok { missing; unresolved } ->
      Alcotest.failf "got %d missing, %d unresolved" (List.length missing) unresolved
  | Error e -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

let test_decode_between () =
  let sent = Psum.create ~bits:32 ~threshold:10 () in
  let recv = Receiver_state.create ~threshold:10 () in
  let ids = ids_of_range key ~bits:32 0 200 in
  List.iteri
    (fun i id ->
      Psum.insert sent id;
      if i mod 50 <> 49 then ignore (Receiver_state.on_receive recv id))
    ids;
  let q = Receiver_state.emit recv in
  match Decoder.decode_between ~sent ~quack:q ~candidates:ids () with
  | Ok { missing; unresolved = 0 } ->
      let expect = List.filteri (fun i _ -> i mod 50 = 49) ids in
      check int_list "every 50th missing" (List.sort compare expect)
        (List.sort compare missing)
  | Ok { unresolved; _ } -> Alcotest.failf "unresolved = %d" unresolved
  | Error e -> Alcotest.failf "unexpected error: %a" Decoder.pp_error e

(* QCheck: random multisets and random missing subsets always decode. *)
let qcheck_decode =
  let open QCheck in
  let scenario =
    (* (total <= 300, up to 12 distinct missing indices) *)
    let gen =
      Gen.(
        map
          (fun (total, raw) ->
            let idxs = List.sort_uniq compare (List.map (fun x -> x mod total) raw) in
            (total, idxs))
          (pair (int_range 1 300) (list_size (int_bound 12) (int_bound 100_000))))
    in
    make gen
  in
  [
    Test.make ~name:"random scenarios decode exactly" ~count:100 scenario
      (fun (total, missing_idx) ->
        match
          decode_scenario ~bits:32 ~threshold:12 ~total ~missing_idx ()
        with
        | Ok { missing; unresolved = 0 }, expect ->
            List.sort compare missing = List.sort compare expect
        | _ -> false);
    Test.make ~name:"factor and plug-in agree" ~count:50 scenario
      (fun (total, missing_idx) ->
        let r1, _ = decode_scenario ~strategy:`Plug_in ~bits:32 ~threshold:12 ~total ~missing_idx () in
        let r2, _ = decode_scenario ~strategy:`Factor ~bits:32 ~threshold:12 ~total ~missing_idx () in
        match (r1, r2) with
        | Ok a, Ok b ->
            List.sort compare a.Decoder.missing = List.sort compare b.Decoder.missing
            && a.Decoder.unresolved = b.Decoder.unresolved
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Strawmen                                                            *)

let test_strawman1_roundtrip () =
  let s = Strawman1.create ~bits:32 in
  let ids = ids_of_range key ~bits:32 0 100 in
  let missing_idx = [ 4; 44; 77 ] in
  List.iteri (fun i id -> if not (List.mem i missing_idx) then Strawman1.insert s id) ids;
  let payload = Strawman1.encode s in
  check int "wire size is b*n bits" (97 * 4) (String.length payload);
  let missing = Strawman1.decode ~bits:32 payload ~log:ids in
  check int_list "missing" (List.map (nth ids) missing_idx) missing;
  check int_list "in-memory agrees" missing (Strawman1.missing s ~log:ids)

let test_strawman1_multiset () =
  let s = Strawman1.create ~bits:32 in
  Strawman1.insert s 5;
  let missing = Strawman1.missing s ~log:[ 5; 5 ] in
  check int_list "one of two copies" [ 5 ] missing

let test_strawman1_table2_size () =
  (* n = 1000 at b = 32: 32000 bits = 4000 bytes (Table 2). *)
  let s = Strawman1.create ~bits:32 in
  List.iter (Strawman1.insert s) (ids_of_range key ~bits:32 0 1000);
  check int "32000 bits" 32000 (Strawman1.size_bits s)

let test_strawman2_roundtrip_tiny () =
  let s = Strawman2.create ~bits:32 in
  let ids = ids_of_range key ~bits:32 0 12 in
  let missing_idx = [ 2; 9 ] in
  List.iteri (fun i id -> if not (List.mem i missing_idx) then Strawman2.insert s id) ids;
  match
    Strawman2.decode ~digest:(Strawman2.digest s) ~log:ids ~num_missing:2 ()
  with
  | Found missing ->
      check int_list "missing" (List.map (nth ids) missing_idx) missing
  | Gave_up n -> Alcotest.failf "gave up after %d attempts" n

let test_strawman2_gives_up () =
  let ids = ids_of_range key ~bits:32 0 40 in
  let bogus = String.make 32 '\000' in
  match Strawman2.decode ~max_attempts:50 ~digest:bogus ~log:ids ~num_missing:5 () with
  | Gave_up n -> check int "attempt cap respected" 50 n
  | Found _ -> Alcotest.fail "cannot find a bogus digest"

let test_strawman2_zero_missing () =
  let s = Strawman2.create ~bits:32 in
  let ids = ids_of_range key ~bits:32 0 5 in
  List.iter (Strawman2.insert s) ids;
  match Strawman2.decode ~digest:(Strawman2.digest s) ~log:ids ~num_missing:0 () with
  | Found [] -> ()
  | _ -> Alcotest.fail "zero missing should verify instantly"

let test_strawman2_combinatorics () =
  let c = Strawman2.subsets_to_search ~n:10 ~m:3 in
  check (Alcotest.float 0.001) "C(10,3)" 120. c;
  let c2 = Strawman2.subsets_to_search ~n:1000 ~m:20 in
  check bool "C(1000,20) astronomically large" true (c2 > 1e40);
  let days = Strawman2.estimated_decode_days ~n:1000 ~m:20 ~seconds_per_attempt:1e-6 in
  check bool "days >> 1e6" true (days > 1e6)

let test_strawman2_size_constant () =
  check int "272 bits" 272 (Strawman2.size_bits ~count_bits:16)

(* ------------------------------------------------------------------ *)
(* Collision                                                           *)

let test_collision_table3 () =
  let expect =
    [ (8, 0.98); (16, 0.015); (24, 6.0e-05); (32, 2.3e-07) ]
  in
  List.iter
    (fun (bits, paper) ->
      let p = Collision.probability ~n:1000 ~bits in
      let rel = Float.abs (p -. paper) /. paper in
      if rel > 0.05 then
        Alcotest.failf "b=%d: got %.3g, paper %.3g" bits p paper)
    expect

let test_collision_edge () =
  check (Alcotest.float 1e-12) "n=1" 0. (Collision.probability ~n:1 ~bits:8);
  check (Alcotest.float 1e-12) "n=0" 0. (Collision.probability ~n:0 ~bits:8);
  check bool "monotone in n" true
    (Collision.probability ~n:2000 ~bits:16 > Collision.probability ~n:1000 ~bits:16);
  check bool "monotone in bits" true
    (Collision.probability ~n:1000 ~bits:16 > Collision.probability ~n:1000 ~bits:24)

let test_collision_monte_carlo () =
  let analytic = Collision.probability ~n:1000 ~bits:8 in
  let empirical = Collision.monte_carlo ~trials:2000 ~n:1000 ~bits:8 () in
  check bool
    (Printf.sprintf "MC %.3f vs analytic %.3f" empirical analytic)
    true
    (Float.abs (empirical -. analytic) < 0.05)

(* ------------------------------------------------------------------ *)
(* Frequency                                                           *)

let test_frequency_paper_example () =
  (* §4.3: 60 ms RTT on 200 Mbit/s at 1500 B/packet → ~1000 packets per
     RTT; 2% loss → t = 20. *)
  let l = Frequency.paper_link in
  check int "n = 1000" 1000 (Frequency.packets_per_rtt l);
  check int "t = 20" 20 (Frequency.threshold_for l);
  let plan = Frequency.cc_division l in
  check int "quACK = 82 bytes" 82 plan.Frequency.quack_bytes;
  check bool "overhead ~1.4 kB/s" true
    (plan.Frequency.overhead_bytes_per_s > 1000. && plan.Frequency.overhead_bytes_per_s < 2000.)

let test_frequency_ack_reduction () =
  let plan = Frequency.ack_reduction ~every:32 ~threshold:10 () in
  (* count omitted: t*b bits = 40 bytes *)
  check int "40 bytes" 40 plan.Frequency.quack_bytes;
  check int "interval" 32 plan.Frequency.interval_packets;
  (* must beat Strawman 1 over the same 32 packets: 32*4 = 128 bytes *)
  check bool "smaller than strawman1" true (plan.Frequency.quack_bytes < 128)

let test_frequency_retransmission () =
  let l = Frequency.paper_link in
  let plan = Frequency.retransmission l in
  check int "interval targets t/loss" 1000 plan.Frequency.interval_packets;
  check bool "has overhead estimate" true (plan.Frequency.overhead_bytes_per_s > 0.)

let test_frequency_adaptation () =
  (* Loss doubles → interval halves (targeting constant missing). *)
  let i1 = Frequency.adapt_interval ~current:1000 ~observed_loss:0.02 ~target_missing:20 in
  check int "2% loss" 1000 i1;
  let i2 = Frequency.adapt_interval ~current:1000 ~observed_loss:0.04 ~target_missing:20 in
  check int "4% loss" 500 i2;
  let i3 = Frequency.adapt_interval ~current:1000 ~observed_loss:0.0 ~target_missing:20 in
  check int "no loss: back off" 2000 i3;
  let i4 = Frequency.adapt_interval ~current:16 ~observed_loss:0.9 ~target_missing:20 in
  check int "clamped low" 22 i4;
  let i5 = Frequency.adapt_interval ~current:16 ~observed_loss:1.0 ~target_missing:1 in
  check int "clamp floor" 16 i5

(* ------------------------------------------------------------------ *)
(* Receiver_state                                                      *)

let test_receiver_policy () =
  let r = Receiver_state.create ~policy:(Receiver_state.Every_packets 3) ~threshold:4 () in
  let emissions = ref 0 in
  for i = 0 to 8 do
    match Receiver_state.on_receive r (Identifier.of_counter key ~bits:32 i) with
    | Some q ->
        incr emissions;
        check int "count at emission" (i + 1) q.Quack.count
    | None -> ()
  done;
  check int "3 emissions over 9 packets" 3 !emissions;
  check int "received" 9 (Receiver_state.received r)

let test_receiver_manual () =
  let r = Receiver_state.create ~threshold:4 () in
  for i = 0 to 9 do
    match Receiver_state.on_receive r i with
    | Some _ -> Alcotest.fail "manual policy must not auto-emit"
    | None -> ()
  done;
  let q = Receiver_state.emit r in
  check int "count" 10 q.Quack.count

let test_receiver_bad_policy () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Receiver_state.create: emit interval must be positive")
    (fun () ->
      ignore (Receiver_state.create ~policy:(Receiver_state.Every_packets 0) ~threshold:4 ()))

(* ------------------------------------------------------------------ *)
(* Sender_state                                                        *)

(* Lock-step tests: the receiver has seen everything sent before each
   quACK, so disable the live-pipeline tail-in-flight grace. *)
let cfg ?(strikes = 1) ?(threshold = 20) ?(tail_in_flight = false) () =
  {
    Sender_state.default_config with
    threshold;
    strikes_to_lose = strikes;
    tail_in_flight;
  }

let send_ids sender ids = List.iter (fun id -> Sender_state.on_send sender ~id id) ids

let test_sender_all_received () =
  let s = Sender_state.create (cfg ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 100 in
  send_ids s ids;
  List.iter (fun id -> ignore (Receiver_state.on_receive r id)) ids;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check int "all acked" 100 (List.length rep.Sender_state.acked);
      check int "none lost" 0 (List.length rep.Sender_state.lost);
      check int "log drained" 0 (Sender_state.outstanding s)
  | Error e -> Alcotest.failf "unexpected error: %a" Sender_state.pp_error e

let test_sender_losses_declared () =
  let s = Sender_state.create (cfg ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 100 in
  send_ids s ids;
  List.iteri
    (fun i id -> if i mod 10 <> 0 then ignore (Receiver_state.on_receive r id))
    ids;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      let expect_lost = List.filteri (fun i _ -> i mod 10 = 0) ids in
      check int_list "lost" (List.sort compare expect_lost)
        (List.sort compare rep.Sender_state.lost);
      check int "acked" 90 (List.length rep.Sender_state.acked);
      check int "log drained" 0 (Sender_state.outstanding s)
  | Error e -> Alcotest.failf "unexpected error: %a" Sender_state.pp_error e

let test_sender_reorder_grace () =
  (* strikes_to_lose = 2: first quACK marks suspect, not lost; packet
     arrives late; second quACK acks it. *)
  let s = Sender_state.create (cfg ~strikes:2 ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 10 in
  send_ids s ids;
  let late = nth ids 4 in
  List.iter (fun id -> if id <> late then ignore (Receiver_state.on_receive r id)) ids;
  (match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check int_list "suspect" [ late ] rep.Sender_state.suspect;
      check int "not lost yet" 0 (List.length rep.Sender_state.lost);
      check int "still outstanding" 1 (Sender_state.outstanding s)
  | Error e -> Alcotest.failf "first quACK: %a" Sender_state.pp_error e);
  (* the straggler arrives *)
  ignore (Receiver_state.on_receive r late);
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check int_list "acked late" [ late ] rep.Sender_state.acked;
      check int "log empty" 0 (Sender_state.outstanding s)
  | Error e -> Alcotest.failf "second quACK: %a" Sender_state.pp_error e

let test_sender_strikes_exhaust () =
  let s = Sender_state.create (cfg ~strikes:2 ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 10 in
  send_ids s ids;
  let gone = nth ids 7 in
  List.iter (fun id -> if id <> gone then ignore (Receiver_state.on_receive r id)) ids;
  (match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep -> check int_list "suspect first" [ gone ] rep.Sender_state.suspect
  | Error e -> Alcotest.failf "first: %a" Sender_state.pp_error e);
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check int_list "lost second time" [ gone ] rep.Sender_state.lost;
      check int "log empty" 0 (Sender_state.outstanding s)
  | Error e -> Alcotest.failf "second: %a" Sender_state.pp_error e

let test_sender_threshold_reset () =
  (* After losses are declared and removed, later losses must decode
     against a clean threshold (§3.3 "resetting the threshold"). *)
  let s = Sender_state.create (cfg ~threshold:3 ()) in
  let r = Receiver_state.create ~threshold:3 () in
  (* round 1: 3 losses (exactly t) *)
  let ids1 = ids_of_range key ~bits:32 0 50 in
  send_ids s ids1;
  List.iteri (fun i id -> if i > 2 then ignore (Receiver_state.on_receive r id)) ids1;
  (match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep -> check int "3 lost" 3 (List.length rep.Sender_state.lost)
  | Error e -> Alcotest.failf "round 1: %a" Sender_state.pp_error e);
  (* round 2: 3 more losses — works only if round-1 losses were reset *)
  let ids2 = ids_of_range key ~bits:32 50 100 in
  send_ids s ids2;
  List.iteri (fun i id -> if i > 2 then ignore (Receiver_state.on_receive r id)) ids2;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep -> check int "3 more lost" 3 (List.length rep.Sender_state.lost)
  | Error e -> Alcotest.failf "round 2: %a" Sender_state.pp_error e

let test_sender_in_flight_truncation () =
  (* m > t, but the excess is a trailing suffix still in flight. *)
  let s = Sender_state.create (cfg ~threshold:5 ()) in
  let r = Receiver_state.create ~threshold:5 () in
  let ids = ids_of_range key ~bits:32 0 100 in
  send_ids s ids;
  (* receiver saw the first 60 except 2 real losses; last 40 in flight *)
  List.iteri
    (fun i id -> if i < 60 && i <> 10 && i <> 20 then ignore (Receiver_state.on_receive r id))
    ids;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      (* m = 42 total unaccounted; t = 5 → 37 treated as in flight.
         But our truncation keeps log length n+t: the 2 real losses
         plus 3 of the in-flight packets are decoded; the in-flight 3
         are the newest of the prefix and genuinely unreceived, so
         they come back as suspects/losses. The 2 real losses must be
         among them. *)
      check int "in flight" 37 rep.Sender_state.in_flight;
      check bool "real losses found" true
        (List.mem (nth ids 10) rep.Sender_state.lost
        && List.mem (nth ids 20) rep.Sender_state.lost)
  | Error e -> Alcotest.failf "unexpected: %a" Sender_state.pp_error e

let test_sender_threshold_exceeded_error () =
  (* More genuine losses than t and no in-flight escape hatch: the
     suffix-truncation decode reports the tail as lost/suspect instead;
     a true overflow needs interleaved losses beyond t in the covered
     prefix — easiest trigger: every other packet lost. *)
  let s = Sender_state.create (cfg ~threshold:2 ()) in
  let r = Receiver_state.create ~threshold:2 () in
  let ids = ids_of_range key ~bits:32 0 40 in
  send_ids s ids;
  List.iteri (fun i id -> if i mod 2 = 0 then ignore (Receiver_state.on_receive r id)) ids;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      (* Truncation decodes the oldest n+t packets; losses interleave so
         the decode has > t roots in the prefix → unresolved, nothing
         pruned. Either outcome (error or unresolved>0) is acceptable;
         silent wrong acks are not. *)
      check bool "no false acks" true (rep.Sender_state.acked = []);
      check bool "flagged unresolved" true (rep.Sender_state.unresolved > 0)
  | Error (`Threshold_exceeded _) -> ()
  | Error e -> Alcotest.failf "unexpected error kind: %a" Sender_state.pp_error e

let test_sender_tail_in_flight () =
  (* With the live-pipeline grace on, missing packets at the very tail
     of the log are "in transit", not lost (§3.3); a gap followed by a
     received packet is still a loss. *)
  let s = Sender_state.create (cfg ~tail_in_flight:true ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 10 in
  send_ids s ids;
  (* receiver saw 0..6 except 3; 7, 8, 9 still in flight *)
  List.iteri (fun i id -> if i < 7 && i <> 3 then ignore (Receiver_state.on_receive r id)) ids;
  (match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check int_list "only the gap is lost" [ nth ids 3 ] rep.Sender_state.lost;
      check int "tail treated as in flight" 3 rep.Sender_state.in_flight;
      check int "acked" 6 (List.length rep.Sender_state.acked);
      check int "tail stays logged" 3 (Sender_state.outstanding s)
  | Error e -> Alcotest.failf "unexpected: %a" Sender_state.pp_error e);
  (* the tail arrives; next quACK acks it *)
  List.iteri (fun i id -> if i >= 7 then ignore (Receiver_state.on_receive r id)) ids;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check int "tail acked" 3 (List.length rep.Sender_state.acked);
      check int "log empty" 0 (Sender_state.outstanding s)
  | Error e -> Alcotest.failf "unexpected: %a" Sender_state.pp_error e

let test_sender_resync () =
  let s = Sender_state.create (cfg ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 60 in
  send_ids s ids;
  (* receiver saw only 10 packets: 50 missing >> t = 20 *)
  List.iteri (fun i id -> if i < 10 then ignore (Receiver_state.on_receive r id)) ids;
  let q = Receiver_state.emit r in
  (match Sender_state.on_quack s q with
  | Error (`Threshold_exceeded _) -> ()
  | Ok rep ->
      (* in-flight truncation may absorb it; force the resync path anyway *)
      ignore rep
  | Error e -> Alcotest.failf "unexpected: %a" Sender_state.pp_error e);
  let abandoned = Sender_state.resync_to s q in
  check int "abandoned = whole log" (List.length abandoned) (List.length abandoned);
  check int "log cleared" 0 (Sender_state.outstanding s);
  (* after resync, normal operation resumes *)
  let ids2 = ids_of_range key ~bits:32 60 100 in
  send_ids s ids2;
  List.iteri (fun i id -> if i <> 5 then ignore (Receiver_state.on_receive r id)) ids2;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check int_list "post-resync loss found" [ nth ids2 5 ] rep.Sender_state.lost;
      check int "post-resync acks" 39 (List.length rep.Sender_state.acked)
  | Error e -> Alcotest.failf "post-resync: %a" Sender_state.pp_error e

let test_sender_readmission_resync () =
  (* The proxy eviction/re-admission cycle: the receiver's cumulative
     quACK covers packets a *fresh* sender state never logged, so its
     count is ahead of ours and the wrapped missing count is
     meaningless. That must surface as Threshold_exceeded (not as a
     stale quACK, which would be skipped forever), and resync_to must
     adopt the receiver's baseline so decoding resumes. *)
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 40 in
  (* the receiver saw 40 packets from a previous sender incarnation *)
  List.iter (fun id -> ignore (Receiver_state.on_receive r id)) ids;
  let s = Sender_state.create (cfg ()) in
  let ids2 = ids_of_range key ~bits:32 40 70 in
  send_ids s ids2;
  (* none of the new sends have arrived yet: count 40 vs sender 30 *)
  let q = Receiver_state.emit r in
  (match Sender_state.on_quack s q with
  | Error (`Threshold_exceeded _) -> ()
  | Ok rep ->
      Alcotest.failf "expected reset, got report (stale=%b)" rep.Sender_state.stale
  | Error e -> Alcotest.failf "unexpected: %a" Sender_state.pp_error e);
  let abandoned = Sender_state.resync_to s q in
  check int "whole log abandoned" 30 (List.length abandoned);
  (* re-send the abandoned packets; the receiver gets all but one *)
  send_ids s ids2;
  List.iteri (fun i id -> if i <> 7 then ignore (Receiver_state.on_receive r id)) ids2;
  match Sender_state.on_quack s (Receiver_state.emit r) with
  | Ok rep ->
      check bool "not stale after resync" false rep.Sender_state.stale;
      check int_list "post-resync loss found" [ nth ids2 7 ] rep.Sender_state.lost;
      check int "post-resync acks" 29 (List.length rep.Sender_state.acked)
  | Error e -> Alcotest.failf "post-resync: %a" Sender_state.pp_error e

let test_sender_stale_quack () =
  let s = Sender_state.create (cfg ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 30 in
  send_ids s ids;
  List.iteri (fun i id -> if i < 10 then ignore (Receiver_state.on_receive r id)) ids;
  let old_quack = Receiver_state.emit r in
  List.iteri (fun i id -> if i >= 10 then ignore (Receiver_state.on_receive r id)) ids;
  let new_quack = Receiver_state.emit r in
  (match Sender_state.on_quack s new_quack with
  | Ok rep -> check int "all acked" 30 (List.length rep.Sender_state.acked)
  | Error e -> Alcotest.failf "new quack: %a" Sender_state.pp_error e);
  match Sender_state.on_quack s old_quack with
  | Ok rep -> check bool "stale detected" true rep.Sender_state.stale
  | Error e -> Alcotest.failf "old quack: %a" Sender_state.pp_error e

let test_sender_dropped_quacks_harmless () =
  (* Only every third quACK arrives; final state identical. *)
  let s = Sender_state.create (cfg ()) in
  let r = Receiver_state.create ~threshold:20 () in
  let lost_total = ref 0 and acked_total = ref 0 in
  for round = 0 to 8 do
    let ids = ids_of_range key ~bits:32 (round * 50) ((round + 1) * 50) in
    send_ids s ids;
    List.iteri
      (fun i id -> if (round + i) mod 25 <> 3 then ignore (Receiver_state.on_receive r id))
      ids;
    if round mod 3 = 2 then begin
      match Sender_state.on_quack s (Receiver_state.emit r) with
      | Ok rep ->
          lost_total := !lost_total + List.length rep.Sender_state.lost;
          acked_total := !acked_total + List.length rep.Sender_state.acked
      | Error e -> Alcotest.failf "round %d: %a" round Sender_state.pp_error e
    end
  done;
  check int "every loss eventually found" (450 - Receiver_state.received r) !lost_total;
  check int "everything else acked" (Receiver_state.received r) !acked_total

let test_sender_count_wraparound () =
  (* Force the 16-bit count to wrap by pre-loading both sides past
     65535 synthetically: send and receive 70k packets in batches. *)
  let s = Sender_state.create (cfg ~threshold:5 ()) in
  let r = Receiver_state.create ~threshold:5 () in
  for batch = 0 to 6 do
    let ids = ids_of_range key ~bits:32 (batch * 10_000) ((batch + 1) * 10_000) in
    send_ids s ids;
    List.iter (fun id -> ignore (Receiver_state.on_receive r id)) ids;
    match Sender_state.on_quack s (Receiver_state.emit r) with
    | Ok rep ->
        check int
          (Printf.sprintf "batch %d acked" batch)
          10_000
          (List.length rep.Sender_state.acked)
    | Error e -> Alcotest.failf "batch %d: %a" batch Sender_state.pp_error e
  done;
  check bool "sender count wrapped past 16 bits" true (Sender_state.sent s > 65536)

let test_sender_declare_lost_manual () =
  let s = Sender_state.create (cfg ()) in
  send_ids s [ 111; 222; 333 ];
  (match Sender_state.declare_lost s ~id:222 with
  | Some meta -> check int "meta returned" 222 meta
  | None -> Alcotest.fail "222 is outstanding");
  check int "outstanding" 2 (Sender_state.outstanding s);
  check bool "absent id" true (Sender_state.declare_lost s ~id:999 = None);
  check int_list "remaining ids" [ 111; 333 ] (Sender_state.outstanding_ids s)

let test_sender_config_mismatch () =
  let s = Sender_state.create (cfg ()) in
  let r16 = Receiver_state.create ~bits:16 ~threshold:20 () in
  ignore (Receiver_state.on_receive r16 5);
  match Sender_state.on_quack s (Receiver_state.emit r16) with
  | Error (`Config_mismatch _) -> ()
  | Ok _ -> Alcotest.fail "expected config mismatch"
  | Error e -> Alcotest.failf "wrong error: %a" Sender_state.pp_error e

let test_sender_reset () =
  let s = Sender_state.create (cfg ()) in
  send_ids s [ 1; 2; 3 ];
  Sender_state.reset s;
  check int "sent" 0 (Sender_state.sent s);
  check int "outstanding" 0 (Sender_state.outstanding s)

(* End-to-end qcheck: random loss patterns over multiple rounds always
   classify every packet correctly with immediate strikes. *)
let qcheck_sender =
  let open QCheck in
  let scenario = small_list (list_of_size Gen.(return 30) bool) in
  [
    Test.make ~name:"multi-round random loss bookkeeping" ~count:40 scenario
      (fun rounds ->
        let s = Sender_state.create (cfg ~threshold:30 ()) in
        let r = Receiver_state.create ~threshold:30 () in
        let ctr = ref 0 in
        let ok = ref true in
        List.iter
          (fun round ->
            let ids =
              List.map
                (fun received ->
                  let id = Identifier.of_counter key ~bits:32 !ctr in
                  incr ctr;
                  (id, received))
                round
            in
            List.iter (fun (id, _) -> Sender_state.on_send s ~id id) ids;
            List.iter
              (fun (id, received) ->
                if received then ignore (Receiver_state.on_receive r id))
              ids;
            match Sender_state.on_quack s (Receiver_state.emit r) with
            | Ok rep ->
                let expect_lost =
                  List.filter_map (fun (id, rc) -> if rc then None else Some id) ids
                in
                if
                  List.sort compare rep.Sender_state.lost
                  <> List.sort compare expect_lost
                then ok := false
            | Error _ -> ok := false)
          rounds;
        !ok && Sender_state.outstanding s = 0);
  ]

(* Exactly-once classification under arbitrary interleavings: every
   dropped packet is reported lost exactly once, every delivered packet
   acked exactly once, no matter how deliveries, reorderings and quACKs
   interleave. *)
let qcheck_sender_exactly_once =
  let open QCheck in
  (* per-packet fate: 0 = delivered now, 1 = delivered late, 2 = dropped;
     interspersed quACK after each packet with probability ~1/4 *)
  let scenario = list_of_size Gen.(int_range 5 120) (int_bound 7) in
  [
    Test.make ~name:"exactly-once acked/lost classification" ~count:60 scenario
      (fun fates ->
        (* Re-ordering is bounded by the strike grace (a packet that
           out-lives the grace is legitimately declared lost — the
           paper's §3.3 caveat), so "late" packets here arrive within
           one quACK round: one strike, never two. *)
        let s =
          Sender_state.create
            { Sender_state.default_config with threshold = 130; strikes_to_lose = 2 }
        in
        let r = Receiver_state.create ~threshold:130 () in
        let acked = ref [] and lost = ref [] in
        let late_next = ref [] and late_new = ref [] in
        let absorb () =
          List.iter (fun id -> ignore (Receiver_state.on_receive r id)) !late_next;
          late_next := !late_new;
          late_new := [];
          match Sender_state.on_quack s (Receiver_state.emit r) with
          | Ok rep ->
              acked := rep.Sender_state.acked @ !acked;
              lost := rep.Sender_state.lost @ !lost
          | Error _ -> ()
        in
        let delivered = ref [] and dropped = ref [] in
        List.iteri
          (fun i fate ->
            let id = Identifier.of_counter key ~bits:32 (1000 + i) in
            Sender_state.on_send s ~id i;
            (match fate land 3 with
            | 0 | 3 ->
                ignore (Receiver_state.on_receive r id);
                delivered := i :: !delivered
            | 1 ->
                late_new := id :: !late_new;
                delivered := i :: !delivered
            | _ -> dropped := i :: !dropped);
            if fate land 4 = 0 then absorb ())
          fates;
        (* stragglers arrive; a delivered flush packet caps the log so a
           tail loss is distinguishable from in-flight (the same reason
           TCP needs a tail-loss probe); then quACKs exhaust strikes *)
        List.iter (fun id -> ignore (Receiver_state.on_receive r id))
          (!late_next @ !late_new);
        late_next := [];
        late_new := [];
        let flush_i = List.length fates in
        let flush_id = Identifier.of_counter key ~bits:32 (1000 + flush_i) in
        Sender_state.on_send s ~id:flush_id flush_i;
        ignore (Receiver_state.on_receive r flush_id);
        delivered := flush_i :: !delivered;
        for _ = 1 to 4 do
          absorb ()
        done;
        let sort = List.sort compare in
        sort !acked = sort !delivered
        && sort !lost = sort !dropped
        && Sender_state.outstanding s = 0);
  ]

(* ------------------------------------------------------------------ *)
(* IBF quACK (extension)                                               *)

let ibf_pair ~cells =
  (Ibf.create ~cells (), Ibf.create ~cells ())

let test_ibf_roundtrip () =
  let sent, received = ibf_pair ~cells:(Ibf.capacity_hint ~differences:6) in
  let ids = ids_of_range key ~bits:32 0 200 in
  let missing_idx = [ 3; 77; 150 ] in
  List.iteri
    (fun i id ->
      Ibf.insert sent id;
      if not (List.mem i missing_idx) then Ibf.insert received id)
    ids;
  match Ibf.decode (Ibf.subtract ~sent ~received) with
  | Ok (missing, extra) ->
      check int_list "missing decoded"
        (List.sort compare (List.map (nth ids) missing_idx))
        (List.sort compare missing);
      check int_list "no extras" [] extra
  | Error (`Peel_stuck n) -> Alcotest.failf "peel stuck with %d cells" n

let test_ibf_bidirectional () =
  (* the IBF also reveals packets only the receiver saw (duplication) *)
  let sent, received = ibf_pair ~cells:16 in
  Ibf.insert sent 100;
  Ibf.insert sent 200;
  Ibf.insert received 100;
  Ibf.insert received 999;
  match Ibf.decode (Ibf.subtract ~sent ~received) with
  | Ok (missing, extra) ->
      check int_list "missing" [ 200 ] missing;
      check int_list "extra" [ 999 ] extra
  | Error _ -> Alcotest.fail "tiny case must peel"

let test_ibf_empty_difference () =
  let sent, received = ibf_pair ~cells:16 in
  let ids = ids_of_range key ~bits:32 0 50 in
  List.iter (fun id -> Ibf.insert sent id; Ibf.insert received id) ids;
  match Ibf.decode (Ibf.subtract ~sent ~received) with
  | Ok ([], []) -> ()
  | Ok _ -> Alcotest.fail "expected empty difference"
  | Error _ -> Alcotest.fail "empty difference must decode"

let test_ibf_overload_detected () =
  (* far more differences than cells: decode must fail loudly *)
  let sent, received = ibf_pair ~cells:8 in
  List.iter (fun id -> Ibf.insert sent id) (ids_of_range key ~bits:32 0 100);
  match Ibf.decode (Ibf.subtract ~sent ~received) with
  | Error (`Peel_stuck _) -> ()
  | Ok (missing, _) ->
      (* tiny chance peeling succeeds anyway; then it must be exact *)
      check int "if it decodes it is exact" 100 (List.length missing)

let test_ibf_geometry_mismatch () =
  let a = Ibf.create ~cells:16 () and b = Ibf.create ~cells:32 () in
  Alcotest.check_raises "mismatch" (Invalid_argument "Ibf.subtract: mismatched filters")
    (fun () -> ignore (Ibf.subtract ~sent:a ~received:b))

let qcheck_ibf =
  let open QCheck in
  [
    Test.make ~name:"ibf decodes random differences within capacity" ~count:100
      (pair (int_range 0 12) (int_range 20 200))
      (fun (m, total) ->
        let m = min m total in
        let cells = Ibf.capacity_hint ~differences:(max 1 m) in
        let sent = Ibf.create ~cells () and received = Ibf.create ~cells () in
        let ids = ids_of_range key ~bits:32 0 total in
        List.iteri
          (fun i id ->
            Ibf.insert sent id;
            if i >= m then Ibf.insert received id)
          ids;
        match Ibf.decode (Ibf.subtract ~sent ~received) with
        | Ok (missing, []) ->
            List.sort compare missing
            = List.sort compare (List.filteri (fun i _ -> i < m) ids)
        | Ok _ -> false
        | Error (`Peel_stuck _) -> true (* allowed, must not be wrong *));
  ]

(* ------------------------------------------------------------------ *)
(* Authenticated wire framing                                          *)

let test_wire_authed_roundtrip () =
  let s = Psum.create ~threshold:8 () in
  Psum.insert_list s (ids_of_range key ~bits:32 0 64);
  let q = Quack.of_psum s in
  let blob = Wire.encode_authed ~key:"shared-secret" q in
  (match Wire.decode_authed ~key:"shared-secret" blob with
  | Ok q' -> check bool "sums intact" true (q.Quack.sums = q'.Quack.sums)
  | Error _ -> Alcotest.fail "valid tag rejected");
  (match Wire.decode_authed ~key:"wrong-key" blob with
  | Error `Bad_tag -> ()
  | _ -> Alcotest.fail "wrong key accepted");
  (* flip one bit of a power sum *)
  let tampered = Bytes.of_string blob in
  Bytes.set tampered 10 (Char.chr (Char.code (Bytes.get tampered 10) lxor 1));
  match Wire.decode_authed ~key:"shared-secret" (Bytes.to_string tampered) with
  | Error `Bad_tag -> ()
  | _ -> Alcotest.fail "tampered quACK accepted"

(* ------------------------------------------------------------------ *)
(* Psum over a custom (log-table) field                                *)

let test_psum_log_field () =
  let field16 = Sidecar_field.Log_field.make (module Sidecar_field.Primes.F16) in
  let a = Psum.create ~bits:16 ~field:field16 ~threshold:10 () in
  let b = Psum.create ~bits:16 ~threshold:10 () in
  let ids = ids_of_range key ~bits:16 0 500 in
  Psum.insert_list a ids;
  Psum.insert_list b ids;
  check bool "log-table sums = default-field sums" true (Psum.sums a = Psum.sums b);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Psum.create: field width mismatch") (fun () ->
      ignore (Psum.create ~bits:32 ~field:field16 ~threshold:4 ()))

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let test_planner_paper_example () =
  let d = Planner.plan Planner.default_requirements in
  check int "b = 32 at a strict budget" 32 d.Planner.bits;
  check int "interval = once per RTT = 1000" 1000 d.Planner.interval_packets;
  (* t = ceil(1000 * 0.02 * 1.5) = 30 *)
  check int "threshold with margin" 30 d.Planner.threshold;
  check bool "overhead well under 0.1%" true (d.Planner.overhead_fraction < 0.001)

let test_planner_width_scales_with_budget () =
  let loose =
    Planner.plan { Planner.default_requirements with Planner.max_indeterminate = 0.05 }
  in
  check int "loose budget tolerates 16-bit ids" 16 loose.Planner.bits;
  let medium =
    Planner.plan { Planner.default_requirements with Planner.max_indeterminate = 1e-3 }
  in
  check int "medium budget picks 24-bit ids" 24 medium.Planner.bits;
  let strict =
    Planner.plan { Planner.default_requirements with Planner.max_indeterminate = 1e-6 }
  in
  check int "strict budget demands 32-bit ids" 32 strict.Planner.bits

let test_planner_ack_reduction_omits_count () =
  let d =
    Planner.plan
      { Planner.default_requirements with Planner.protocol = Planner.Ack_reduction 32 }
  in
  check int "count omitted" 0 d.Planner.count_bits;
  check int "interval" 32 d.Planner.interval_packets;
  (* must beat strawman 1 over the same interval: 32 ids * 4 B *)
  check bool "smaller than echoing ids" true (d.Planner.quack_bytes < 128)

let test_planner_retransmission_interval () =
  let d =
    Planner.plan
      { Planner.default_requirements with Planner.protocol = Planner.Retransmission 20 }
  in
  check int "interval = target/loss" 1000 d.Planner.interval_packets

let test_planner_rejects_impossible () =
  Alcotest.check_raises "impossible budget"
    (Invalid_argument
       "Planner.plan: no supported identifier width meets the indeterminacy budget")
    (fun () ->
      ignore
        (Planner.plan
           { Planner.default_requirements with Planner.max_indeterminate = 1e-12 }))

(* ------------------------------------------------------------------ *)
(* Wire fuzzing: hostile bytes must produce errors, never exceptions   *)

let qcheck_wire_fuzz =
  let open QCheck in
  [
    Test.make ~name:"decode_framed never raises" ~count:500 string (fun s ->
        match Wire.decode_framed s with Ok _ | Error _ -> true);
    Test.make ~name:"decode_packed never raises" ~count:500
      (* hostile parameters included: negative / enormous thresholds
         and count widths must come back as [Error _], never as an
         exception — these are attacker-reachable via a forged framed
         header *)
      (pair string (pair (int_range (-100) 100_000) (int_range (-64) 64)))
      (fun (s, (t, c)) ->
        match Wire.decode_packed ~bits:32 ~threshold:t ~count_bits:c s with
        | Ok _ | Error _ -> true);
    Test.make ~name:"decode_packed total over hostile bit widths" ~count:500
      (pair string (pair (int_range (-8) 64) (int_range (-100) 100_000)))
      (fun (s, (bits, t)) ->
        match Wire.decode_packed ~bits ~threshold:t ~count_bits:16 s with
        | Ok _ | Error _ -> true);
    Test.make ~name:"decode_authed never raises" ~count:500 string (fun s ->
        match Wire.decode_authed ~key:"k" s with Ok _ | Error _ -> true);
    Test.make ~name:"valid frame survives arbitrary prefix mangling check" ~count:200
      (int_bound 255)
      (fun byte ->
        let s = Psum.create ~threshold:4 () in
        Psum.insert_list s [ 1; 2; 3 ];
        let blob = Wire.encode_framed (Quack.of_psum s) in
        let b = Bytes.of_string blob in
        Bytes.set b 0 (Char.chr byte);
        match Wire.decode_framed (Bytes.to_string b) with
        | Ok _ | Error _ -> true);
  ]

(* ------------------------------------------------------------------ *)
(* Replay guard: replays vs genuine restarts at quACK seams            *)

let quack_of_ids ?(threshold = 20) ids =
  let r = Receiver_state.create ~threshold () in
  List.iter (fun id -> ignore (Receiver_state.on_receive r id)) ids;
  Receiver_state.emit r

let test_replay_guard_classification () =
  let g = Replay_guard.create () in
  let q1 = quack_of_ids (ids_of_range key ~bits:32 0 5) in
  let q2 = quack_of_ids (ids_of_range key ~bits:32 0 10) in
  check bool "first emission fresh" true (Replay_guard.classify g ~index:1 q1 = Replay_guard.Fresh);
  check bool "advancing index fresh" true (Replay_guard.classify g ~index:2 q2 = Replay_guard.Fresh);
  (* byte-identical re-delivery of emission 1 *)
  check bool "replayed emission" true (Replay_guard.classify g ~index:1 q1 = Replay_guard.Replay);
  check int "replay counted" 1 (Replay_guard.replays g);
  check int "high-water mark unchanged by replay" 2 (Replay_guard.last_index g);
  (* regressed index with contents never accepted: a genuine restart *)
  let q_restart = quack_of_ids (ids_of_range key ~bits:32 100 103) in
  check bool "novel regressed emission is a restart" true
    (Replay_guard.classify g ~index:1 q_restart = Replay_guard.Regression);
  check int "regression counted" 1 (Replay_guard.regressions g);
  check int "restart re-bases the high-water mark" 1 (Replay_guard.last_index g);
  Alcotest.check_raises "bad depth" (Invalid_argument "Replay_guard.create: depth must be positive")
    (fun () -> ignore (Replay_guard.create ~depth:0 ()))

(* The regression this PR pins: before the guard existed every server
   seam treated [index <= last] as a restart and resynced onto the
   presented sums — so ONE captured quACK, re-sent, rolled the
   sender's baseline back and forced spurious recovery. A replayed
   packet must now be dropped without a resync and without disturbing
   subsequent progress. *)
let test_replay_guard_one_packet_cannot_resync () =
  let s = Sender_state.create (cfg ()) in
  let g = Replay_guard.create () in
  let resyncs = ref 0 in
  let acked = ref 0 in
  (* the server seam, exactly as the runtime scenarios wire it *)
  let on_quack ~index q =
    match Replay_guard.classify g ~index q with
    | Replay_guard.Fresh -> (
        match Sender_state.on_quack s q with
        | Ok rep -> acked := !acked + List.length rep.Sender_state.acked
        | Error _ -> ())
    | Replay_guard.Replay -> ()
    | Replay_guard.Regression ->
        incr resyncs;
        ignore (Sender_state.resync_to s q)
  in
  let r = Receiver_state.create ~threshold:20 () in
  let ids = ids_of_range key ~bits:32 0 10 in
  send_ids s ids;
  List.iter (fun id -> ignore (Receiver_state.on_receive r id)) ids;
  let captured = Receiver_state.emit r in
  on_quack ~index:1 captured;
  check int "first batch acked" 10 !acked;
  (* the attacker re-sends the captured emission — repeatedly *)
  for _ = 1 to 5 do
    on_quack ~index:1 captured
  done;
  check int "no resync from replays" 0 !resyncs;
  check int "replays dropped" 5 (Replay_guard.replays g);
  (* progress continues unharmed after the replay burst *)
  let more = ids_of_range key ~bits:32 10 20 in
  send_ids s more;
  List.iter (fun id -> ignore (Receiver_state.on_receive r id)) more;
  on_quack ~index:2 (Receiver_state.emit r);
  check int "second batch acked" 20 !acked;
  check int "still no resyncs" 0 !resyncs

let test_replay_guard_depth_eviction () =
  (* a replay older than the remembered window degrades to Regression:
     it costs a resync (safe, as before the guard) but is never
     applied as fresh state *)
  let g = Replay_guard.create ~depth:2 () in
  let quacks =
    List.init 4 (fun i -> quack_of_ids (ids_of_range key ~bits:32 0 (i + 1)))
  in
  List.iteri (fun i q -> ignore (Replay_guard.classify g ~index:(i + 1) q)) quacks;
  (* emission 4 is still remembered *)
  check bool "recent replay still caught" true
    (Replay_guard.classify g ~index:4 (nth quacks 3) = Replay_guard.Replay);
  (* emission 1 has been evicted from the 2-deep ring *)
  check bool "evicted replay degrades to restart" true
    (Replay_guard.classify g ~index:1 (nth quacks 0) = Replay_guard.Regression)

(* The guard as it was when it remembered SHA-256 digests instead of
   contents, kept here only as the oracle: the guard must reach the
   same verdicts and counts on any stream. *)
module Digest_guard = struct
  type t = {
    depth : int;
    ring : (int * string) array;
    mutable pos : int;
    mutable last_index : int;
    mutable replays : int;
    mutable regressions : int;
    mutable accepted : int;
  }

  let create ~depth =
    { depth; ring = Array.make depth (-1, ""); pos = 0; last_index = 0;
      replays = 0; regressions = 0; accepted = 0 }

  let digest (q : Quack.t) =
    Sidecar_hash.Sha256.digest_int_list
      (q.Quack.bits :: q.Quack.count_bits :: q.Quack.count :: Array.to_list q.Quack.sums)

  let classify t ~index q =
    let d = digest q in
    let accept () =
      t.last_index <- index;
      t.accepted <- t.accepted + 1;
      t.ring.(t.pos) <- (index, d);
      t.pos <- (t.pos + 1) mod t.depth
    in
    if index > t.last_index then (accept (); Replay_guard.Fresh)
    else if Array.exists (fun (i, h) -> i = index && String.equal h d) t.ring then begin
      t.replays <- t.replays + 1;
      Replay_guard.Replay
    end
    else begin
      t.regressions <- t.regressions + 1;
      accept ();
      Replay_guard.Regression
    end
end

(* A quACK drawn from a seed, over small value ranges so that distinct
   draws often share some fields. *)
let random_quack seed : Quack.t =
  let st = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  {
    Quack.bits = pick [| 16; 24; 32 |];
    modulus = pick [| 65521; 4294967291 |];
    count_bits = pick [| 0; 16; 62 |];
    count = Random.State.int st 4;
    sums = Array.init (1 + Random.State.int st 3) (fun _ -> Random.State.int st 4);
  }

(* One field changed: a sum, the count, count_bits, bits or (which the
   guard must ignore) the modulus. *)
let near_miss (q : Quack.t) which : Quack.t =
  match which mod 5 with
  | 0 ->
      let sums = Array.copy q.Quack.sums in
      let i = which / 5 mod Array.length sums in
      sums.(i) <- sums.(i) + 1;
      { q with Quack.sums }
  | 1 -> { q with Quack.count = q.Quack.count + 1 }
  | 2 -> { q with Quack.count_bits = q.Quack.count_bits + 1 }
  | 3 -> { q with Quack.bits = q.Quack.bits + 1 }
  | _ -> { q with Quack.modulus = q.Quack.modulus + 2 }

let qcheck_replay_guard =
  let open QCheck in
  [
    (* Streams mix fresh emissions, verbatim replays (recent, and older
       than the guard's depth), regressions with novel contents, and
       near misses of a past emission. Every array handed to the guard
       is scribbled over right after, as a caller reusing its buffer
       would, so a guard that kept the caller's sums would diverge. *)
    Test.make ~name:"verdicts and counters = digest guard" ~count:300
      (make
         ~print:Print.(pair int (list (quad int int int int)))
         Gen.(
           pair (int_range 1 6)
             (list_size (int_range 1 60)
                (quad (int_bound 5) (int_bound 1000) (int_bound 1000) (int_bound 1000)))))
      (fun (depth, ops) ->
        let g = Replay_guard.create ~depth () in
        let oracle = Digest_guard.create ~depth in
        let history = ref [||] in
        let last = ref 0 in
        let past a = !history.(a mod Array.length !history) in
        List.for_all
          (fun (kind, a, b, c) ->
            let index, q =
              match kind with
              | (1 | 2) when Array.length !history > 0 ->
                  (* verbatim replay: the most recent emissions or any *)
                  let n = Array.length !history in
                  if kind = 1 then !history.(n - 1 - (a mod min n 3)) else past a
              | 3 when Array.length !history > 0 ->
                  let index, q = past a in
                  (index, near_miss q b)
              | 4 -> (a mod (!last + 1), random_quack ((b * 1001) + c))
              | _ -> (!last + 1 + (a mod 3), random_quack ((b * 1001) + c))
            in
            history := Array.append !history [| (index, q) |];
            let handed = { q with Quack.sums = Array.copy q.Quack.sums } in
            let v = Replay_guard.classify g ~index handed in
            Array.fill handed.Quack.sums 0 (Array.length handed.Quack.sums) (-7);
            let w = Digest_guard.classify oracle ~index q in
            last := oracle.Digest_guard.last_index;
            v = w
            && Replay_guard.last_index g = oracle.Digest_guard.last_index
            && Replay_guard.replays g = oracle.Digest_guard.replays
            && Replay_guard.regressions g = oracle.Digest_guard.regressions
            && Replay_guard.accepted g = oracle.Digest_guard.accepted)
          ops);
  ]

let test_replay_guard_keeps_its_own_copy () =
  let g = Replay_guard.create () in
  let q = quack_of_ids (ids_of_range key ~bits:32 0 5) in
  let original = { q with Quack.sums = Array.copy q.Quack.sums } in
  ignore (Replay_guard.classify g ~index:1 q);
  q.Quack.sums.(0) <- q.Quack.sums.(0) + 1;
  check bool "mutated caller array is not a replay" true
    (Replay_guard.classify g ~index:1 q = Replay_guard.Regression);
  check bool "the accepted contents still are" true
    (Replay_guard.classify g ~index:1 original = Replay_guard.Replay)

(* ------------------------------------------------------------------ *)
(* Quack_consumer: the §3.3 decode-else-resync rule, written once      *)

(* The oracle is the server seam the runtime scenarios wrote out by
   hand before the consumer existed (Sender_state + Replay_guard),
   mapped onto the consumer's outcomes. Where that seam handed a
   foreign quACK to [resync_to] it raised and aborted the run; the
   consumer reports [Mismatch] there instead. *)
let seam_oracle ss guard ~index q =
  let resync wrap =
    match Sender_state.resync_to ss q with
    | abandoned -> wrap abandoned
    | exception Invalid_argument _ -> Quack_consumer.Mismatch
  in
  let decode () =
    match Sender_state.on_quack ss q with
    | Ok rep when not rep.Sender_state.stale -> Quack_consumer.Decoded rep
    | Ok _ -> Quack_consumer.Stale
    | Error (`Threshold_exceeded _) -> resync (fun l -> Quack_consumer.Resynced l)
    | Error (`Config_mismatch _) -> Quack_consumer.Mismatch
  in
  match guard with
  | None -> decode ()
  | Some g -> (
      match Replay_guard.classify g ~index q with
      | Replay_guard.Fresh -> decode ()
      | Replay_guard.Replay -> Quack_consumer.Replay
      | Replay_guard.Regression -> resync (fun l -> Quack_consumer.Restarted l))

let consumer_t = 6
let consumer_cfg = { Sender_state.default_config with Sender_state.threshold = consumer_t }

(* Same multiset, parameters the sender does not share. *)
let foreign_variant (q : Quack.t) k : Quack.t =
  match k mod 4 with
  | 0 -> { q with Quack.bits = 31 }
  | 1 -> { q with Quack.modulus = q.Quack.modulus - 2 }
  | 2 -> { q with Quack.sums = Array.sub q.Quack.sums 0 (consumer_t - 2) }
  | _ -> { q with Quack.sums = Array.append q.Quack.sums [| 0; 0 |] }

let outcome_kind = function
  | Quack_consumer.Decoded _ -> "decoded"
  | Quack_consumer.Stale -> "stale"
  | Quack_consumer.Resynced _ -> "resynced"
  | Quack_consumer.Restarted _ -> "restarted"
  | Quack_consumer.Replay -> "replay"
  | Quack_consumer.Mismatch -> "mismatch"

(* One flow's quACK stream, fed to a consumer and to the oracle. Ops:
   0 send 1-4 packets; 1 a fresh quACK with the newest 0..t+3 pending
   packets still missing (and, sometimes, one lost for good); 2 a past
   quACK's contents under a fresh index (stale); 3 a verbatim replay of
   a recent emission; 4 of any past emission, beyond the guard's depth
   once the history is long; 5 a receiver restart: novel sums under a
   regressed index; 6 a quACK with foreign parameters, at a fresh or a
   regressed index. *)
let consumer_agrees ~guarded ops =
  let consumer = Quack_consumer.create ~replay_guard:guarded consumer_cfg in
  let ss = Sender_state.create consumer_cfg in
  let guard = if guarded then Some (Replay_guard.create ()) else None in
  let resyncs = ref 0 and mismatches = ref 0 in
  let rx = ref (Receiver_state.create ~threshold:consumer_t ()) in
  let pending = ref [] (* sent, not yet at the receiver; newest first *) in
  let sent = ref 0 in
  let index = ref 0 in
  let history = ref [||] in
  let deliver ~missing ~lose =
    let in_flight = List.filteri (fun i _ -> i < missing) !pending in
    let arriving = List.rev (List.filteri (fun i _ -> i >= missing) !pending) in
    let arriving = if lose then List.tl arriving else arriving in
    List.iter (fun id -> ignore (Receiver_state.on_receive !rx id)) arriving;
    pending := in_flight
  in
  let past a = !history.(a mod Array.length !history) in
  List.for_all
    (fun (kind, a, b) ->
      let n = Array.length !history in
      let feed =
        match kind with
        | 0 ->
            for _ = 0 to a mod 4 do
              let id = Identifier.of_counter key ~bits:32 !sent in
              Quack_consumer.on_send consumer ~id !sent;
              Sender_state.on_send ss ~id !sent;
              pending := id :: !pending;
              incr sent
            done;
            None
        | 2 when n > 0 ->
            incr index;
            Some (!index, snd (past a))
        | 3 when n > 0 -> Some !history.(n - 1 - (a mod min n 3))
        | 4 when n > 0 -> Some (past a)
        | 5 ->
            rx := Receiver_state.create ~threshold:consumer_t ();
            deliver ~missing:(b mod (consumer_t + 4)) ~lose:false;
            index := a mod (!index + 1);
            Some (!index, Receiver_state.emit !rx)
        | 6 ->
            let q = foreign_variant (Receiver_state.emit !rx) b in
            if a mod 2 = 0 then begin
              incr index;
              Some (!index, q)
            end
            else Some (a mod (!index + 1), q)
        | _ ->
            deliver
              ~missing:(a mod (consumer_t + 4))
              ~lose:(b mod 4 = 0 && List.length !pending > a mod (consumer_t + 4));
            incr index;
            Some (!index, Receiver_state.emit !rx)
      in
      match feed with
      | None -> true
      | Some (index, q) ->
          history := Array.append !history [| (index, q) |];
          let got = Quack_consumer.consume consumer ~index q in
          let want = seam_oracle ss guard ~index q in
          (match want with
          | Quack_consumer.Resynced _ | Quack_consumer.Restarted _ -> incr resyncs
          | Quack_consumer.Mismatch -> incr mismatches
          | _ -> ());
          let ok =
            got = want
            && Sender_state.outstanding_ids (Quack_consumer.state consumer)
               = Sender_state.outstanding_ids ss
            && Quack_consumer.resyncs consumer = !resyncs
            && Quack_consumer.mismatches consumer = !mismatches
            && Quack_consumer.replays consumer
               = (match guard with Some g -> Replay_guard.replays g | None -> 0)
          in
          if not ok then
            QCheck.Test.fail_reportf "op (%d,%d,%d) at index %d: consumer %s, oracle %s"
              kind a b index (outcome_kind got) (outcome_kind want);
          ok)
    ops

let qcheck_consumer =
  let open QCheck in
  let stream =
    make
      ~print:Print.(list (triple int int int))
      Gen.(
        list_size (int_range 1 160)
          (triple (frequency [ (3, return 0); (3, return 1); (1, int_bound 6) ])
             (int_bound 1000) (int_bound 1000)))
  in
  [
    Test.make ~name:"consumer = hand-written seam (guarded)" ~count:200 stream
      (consumer_agrees ~guarded:true);
    Test.make ~name:"consumer = hand-written seam (unguarded)" ~count:200 stream
      (consumer_agrees ~guarded:false);
  ]

let test_consumer_mismatch_is_dropped () =
  List.iter
    (fun guarded ->
      let c = Quack_consumer.create ~replay_guard:guarded consumer_cfg in
      let ids = ids_of_range key ~bits:32 0 5 in
      List.iteri (fun i id -> Quack_consumer.on_send c ~id i) ids;
      let before = Sender_state.outstanding_ids (Quack_consumer.state c) in
      let q = quack_of_ids ~threshold:consumer_t ids in
      (* width, modulus, and a threshold above the sender's: a smaller
         receiver threshold is a legal configuration, not a mismatch *)
      List.iteri
        (fun k variant ->
          let f = foreign_variant q variant in
          (* a fresh index, then a regressed one the guard reads as a restart *)
          check bool "fresh: Mismatch" true
            (Quack_consumer.consume c ~index:(k + 2) f = Quack_consumer.Mismatch);
          check bool "regressed: Mismatch" true
            (Quack_consumer.consume c ~index:1 f = Quack_consumer.Mismatch);
          check bool "resync: Mismatch" true
            (Quack_consumer.resync c f = Quack_consumer.Mismatch))
        [ 0; 1; 3 ];
      check int_list "log untouched" before
        (Sender_state.outstanding_ids (Quack_consumer.state c));
      check int "every mismatch counted" 9 (Quack_consumer.mismatches c);
      check int "no resync" 0 (Quack_consumer.resyncs c);
      match Quack_consumer.consume c ~index:10 q with
      | Quack_consumer.Decoded rep ->
          check int_list "the genuine quACK still decodes" [ 0; 1; 2; 3; 4 ]
            rep.Sender_state.acked
      | o -> Alcotest.failf "genuine quACK: %s" (outcome_kind o))
    [ false; true ]

let test_consumer_guard_needs_index () =
  let c = Quack_consumer.create ~replay_guard:true consumer_cfg in
  Alcotest.check_raises "guarded consume without ~index"
    (Invalid_argument "Quack_consumer.consume: a guarded consumer needs ~index")
    (fun () -> ignore (Quack_consumer.consume c (quack_of_ids ~threshold:consumer_t [])))

(* ------------------------------------------------------------------ *)
(* IBF capacity characterisation                                       *)

let test_ibf_capacity_hint_mostly_decodes () =
  (* at the recommended provisioning, the decode failure rate across
     random instances must be low *)
  let trials = 200 in
  let failures = ref 0 in
  for trial = 1 to trials do
    let m = 1 + (trial mod 16) in
    let cells = Ibf.capacity_hint ~differences:m in
    let sent = Ibf.create ~salt:trial ~cells () in
    let received = Ibf.create ~salt:trial ~cells () in
    let ids = ids_of_range (Identifier.key_of_int trial) ~bits:32 0 100 in
    List.iteri
      (fun i id ->
        Ibf.insert sent id;
        if i >= m then Ibf.insert received id)
      ids;
    match Ibf.decode (Ibf.subtract ~sent ~received) with
    | Ok _ -> ()
    | Error (`Peel_stuck _) -> incr failures
  done;
  check bool
    (Printf.sprintf "%d/%d peel failures" !failures trials)
    true
    (!failures * 33 < trials) (* < 3% *)

(* ------------------------------------------------------------------ *)
(* Invariant (debug-gated runtime checks)                              *)

let with_invariants f =
  let was = Invariant.active () in
  Invariant.set_active true;
  Fun.protect ~finally:(fun () -> Invariant.set_active was) f

let test_invariant_gating () =
  let was = Invariant.active () in
  Invariant.set_active false;
  let ran = ref false in
  Invariant.check ~name:"never forced" (fun () -> ran := true; false);
  check bool "thunk not forced when inactive" false !ran;
  Invariant.set_active true;
  Alcotest.check_raises "violation raised" (Invariant.Violation "bad")
    (fun () -> Invariant.check ~name:"bad" (fun () -> false));
  Invariant.check ~name:"ok" (fun () -> true);
  Invariant.set_active was

let test_invariant_multiset_subset () =
  let sub = Invariant.int_multiset_subset in
  check bool "empty sub" true (sub ~sub:[] ~super:[ 1 ]);
  check bool "respects multiplicity" true (sub ~sub:[ 1; 1 ] ~super:[ 1; 2; 1 ]);
  check bool "excess multiplicity fails" false (sub ~sub:[ 1; 1 ] ~super:[ 1; 2 ]);
  check bool "foreign element fails" false (sub ~sub:[ 3 ] ~super:[ 1; 2 ])

let test_invariant_checks_fire_in_pipeline () =
  (* With checks on, a full sketch/decode round trip must actually
     exercise the instrumentation and raise nothing. *)
  with_invariants (fun () ->
      let before = Invariant.checks_run () in
      let sent = Psum.create ~threshold:12 () in
      let received = Psum.create ~threshold:12 () in
      let ids = ids_of_range key ~bits:32 0 60 in
      List.iter (Psum.insert sent) ids;
      let missing = [ nth ids 7; nth ids 33; nth ids 34 ] in
      List.iter
        (fun id -> if not (List.memq id missing) then Psum.insert received id)
        ids;
      let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
      (match
         Decoder.decode ~field:(Psum.field sent) ~diff_sums:diff
           ~num_missing:3 ~candidates:ids ()
       with
      | Ok { Decoder.missing = m; unresolved } ->
          check int "unresolved" 0 unresolved;
          check int_list "decoded the three missing ids"
            (List.sort compare missing) (List.sort compare m)
      | Error _ -> Alcotest.fail "decode failed");
      check bool "instrumentation fired" true (Invariant.checks_run () > before))

let test_invariant_sender_state_checked () =
  with_invariants (fun () ->
      let before = Invariant.checks_run () in
      let s =
        Sender_state.create { Sender_state.default_config with threshold = 8 }
      in
      let r = Receiver_state.create ~threshold:8 () in
      let ids = ids_of_range key ~bits:32 0 20 in
      List.iteri (fun i id -> Sender_state.on_send s ~id i) ids;
      List.iteri
        (fun i id -> if i <> 4 then ignore (Receiver_state.on_receive r id))
        ids;
      (match Sender_state.on_quack s (Receiver_state.emit r) with
      | Ok rep -> check int "one loss suspected/lost" 1
            (List.length rep.Sender_state.lost
            + List.length rep.Sender_state.suspect)
      | Error _ -> Alcotest.fail "on_quack failed");
      check bool "sender-state checks fired" true (Invariant.checks_run () > before))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sidecar_quack"
    [
      ( "identifier",
        [
          Alcotest.test_case "determinism" `Quick test_identifier_determinism;
          Alcotest.test_case "width" `Quick test_identifier_width;
          Alcotest.test_case "of_bytes" `Quick test_identifier_of_bytes;
          Alcotest.test_case "distribution" `Quick test_identifier_distribution;
        ] );
      ( "psum",
        [
          Alcotest.test_case "insert/remove roundtrip" `Quick test_psum_insert_remove_roundtrip;
          Alcotest.test_case "order independent" `Quick test_psum_order_independent;
          Alcotest.test_case "difference = missing sums" `Quick test_psum_difference_is_missing_sums;
          Alcotest.test_case "threshold zero" `Quick test_psum_threshold_zero;
          Alcotest.test_case "modulus reduction" `Quick test_psum_modulus_reduction;
          Alcotest.test_case "bad create" `Quick test_psum_bad_create;
          Alcotest.test_case "merge (multipath)" `Quick test_psum_merge;
          Alcotest.test_case "modulus mismatch rejected" `Quick
            test_psum_modulus_mismatch;
        ] );
      ( "quack-wire",
        [
          Alcotest.test_case "paper sizes" `Quick test_quack_sizes_match_paper;
          Alcotest.test_case "count wraparound" `Quick test_quack_count_wraparound;
          Alcotest.test_case "packed roundtrip" `Quick test_wire_packed_roundtrip;
          Alcotest.test_case "framed roundtrip" `Quick test_wire_framed_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_wire_errors;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "none missing" `Quick test_decode_none_missing;
          Alcotest.test_case "single missing" `Quick test_decode_single;
          Alcotest.test_case "paper scale n=1000 t=20" `Quick test_decode_paper_scale;
          Alcotest.test_case "factor strategy" `Quick test_decode_factor_strategy;
          Alcotest.test_case "all bit widths" `Quick test_decode_all_bit_widths;
          Alcotest.test_case "50k-candidate factoring" `Slow test_decode_large_scale_factoring;
          Alcotest.test_case "threshold exceeded" `Quick test_decode_threshold_exceeded;
          Alcotest.test_case "duplicate ids (multiset)" `Quick test_decode_duplicate_ids;
          Alcotest.test_case "repeated missing id (multiplicity)" `Quick
            test_decode_repeated_missing_multiplicity;
          Alcotest.test_case "incomplete candidates" `Quick test_decode_unresolved_when_candidates_incomplete;
          Alcotest.test_case "decode_between" `Quick test_decode_between;
        ] );
      ("decoder-props", q qcheck_decode);
      ( "strawman1",
        [
          Alcotest.test_case "roundtrip" `Quick test_strawman1_roundtrip;
          Alcotest.test_case "multiset" `Quick test_strawman1_multiset;
          Alcotest.test_case "table 2 size" `Quick test_strawman1_table2_size;
        ] );
      ( "strawman2",
        [
          Alcotest.test_case "roundtrip tiny" `Quick test_strawman2_roundtrip_tiny;
          Alcotest.test_case "gives up" `Quick test_strawman2_gives_up;
          Alcotest.test_case "zero missing" `Quick test_strawman2_zero_missing;
          Alcotest.test_case "combinatorics" `Quick test_strawman2_combinatorics;
          Alcotest.test_case "constant size" `Quick test_strawman2_size_constant;
        ] );
      ( "collision",
        [
          Alcotest.test_case "table 3 values" `Quick test_collision_table3;
          Alcotest.test_case "edge cases" `Quick test_collision_edge;
          Alcotest.test_case "monte carlo agrees" `Slow test_collision_monte_carlo;
        ] );
      ( "frequency",
        [
          Alcotest.test_case "paper worked example" `Quick test_frequency_paper_example;
          Alcotest.test_case "ack reduction" `Quick test_frequency_ack_reduction;
          Alcotest.test_case "retransmission" `Quick test_frequency_retransmission;
          Alcotest.test_case "adaptation" `Quick test_frequency_adaptation;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "every-k policy" `Quick test_receiver_policy;
          Alcotest.test_case "manual policy" `Quick test_receiver_manual;
          Alcotest.test_case "bad policy" `Quick test_receiver_bad_policy;
        ] );
      ( "sender",
        [
          Alcotest.test_case "all received" `Quick test_sender_all_received;
          Alcotest.test_case "losses declared" `Quick test_sender_losses_declared;
          Alcotest.test_case "reorder grace" `Quick test_sender_reorder_grace;
          Alcotest.test_case "strikes exhaust" `Quick test_sender_strikes_exhaust;
          Alcotest.test_case "threshold reset" `Quick test_sender_threshold_reset;
          Alcotest.test_case "in-flight truncation" `Quick test_sender_in_flight_truncation;
          Alcotest.test_case "threshold exceeded" `Quick test_sender_threshold_exceeded_error;
          Alcotest.test_case "tail in-flight grace" `Quick test_sender_tail_in_flight;
          Alcotest.test_case "resync recovery" `Quick test_sender_resync;
          Alcotest.test_case "re-admission resync" `Quick
            test_sender_readmission_resync;
          Alcotest.test_case "stale quACK" `Quick test_sender_stale_quack;
          Alcotest.test_case "dropped quACKs harmless" `Quick test_sender_dropped_quacks_harmless;
          Alcotest.test_case "count wraparound" `Quick test_sender_count_wraparound;
          Alcotest.test_case "manual declare_lost" `Quick test_sender_declare_lost_manual;
          Alcotest.test_case "config mismatch" `Quick test_sender_config_mismatch;
          Alcotest.test_case "reset" `Quick test_sender_reset;
        ] );
      ("sender-props", q qcheck_sender);
      ("sender-exactly-once", q qcheck_sender_exactly_once);
      ( "ibf",
        [
          Alcotest.test_case "roundtrip" `Quick test_ibf_roundtrip;
          Alcotest.test_case "bidirectional" `Quick test_ibf_bidirectional;
          Alcotest.test_case "empty difference" `Quick test_ibf_empty_difference;
          Alcotest.test_case "overload detected" `Quick test_ibf_overload_detected;
          Alcotest.test_case "geometry mismatch" `Quick test_ibf_geometry_mismatch;
        ] );
      ("ibf-props", q qcheck_ibf);
      ( "wire-auth",
        [ Alcotest.test_case "hmac roundtrip/tamper" `Quick test_wire_authed_roundtrip ] );
      ( "psum-fields",
        [ Alcotest.test_case "log-table field" `Quick test_psum_log_field ] );
      ( "planner",
        [
          Alcotest.test_case "paper example" `Quick test_planner_paper_example;
          Alcotest.test_case "width scales with budget" `Quick test_planner_width_scales_with_budget;
          Alcotest.test_case "ack-reduction omits count" `Quick test_planner_ack_reduction_omits_count;
          Alcotest.test_case "retransmission interval" `Quick test_planner_retransmission_interval;
          Alcotest.test_case "rejects impossible" `Quick test_planner_rejects_impossible;
        ] );
      ("wire-fuzz", q qcheck_wire_fuzz);
      ( "replay-guard",
        [
          Alcotest.test_case "classification" `Quick test_replay_guard_classification;
          Alcotest.test_case "one replayed packet cannot resync" `Quick
            test_replay_guard_one_packet_cannot_resync;
          Alcotest.test_case "depth eviction degrades safely" `Quick
            test_replay_guard_depth_eviction;
          Alcotest.test_case "caller's sums may change after classify" `Quick
            test_replay_guard_keeps_its_own_copy;
        ]
        @ q qcheck_replay_guard );
      ( "quack-consumer",
        [
          Alcotest.test_case "a mismatch is dropped, never raised" `Quick
            test_consumer_mismatch_is_dropped;
          Alcotest.test_case "a guarded consumer needs the index" `Quick
            test_consumer_guard_needs_index;
        ]
        @ q qcheck_consumer );
      ( "ibf-capacity",
        [ Alcotest.test_case "hint mostly decodes" `Quick test_ibf_capacity_hint_mostly_decodes ] );
      ( "invariant",
        [
          Alcotest.test_case "gating and raising" `Quick test_invariant_gating;
          Alcotest.test_case "multiset subset" `Quick test_invariant_multiset_subset;
          Alcotest.test_case "pipeline checks fire" `Quick
            test_invariant_checks_fire_in_pipeline;
          Alcotest.test_case "sender-state checked" `Quick
            test_invariant_sender_state_checked;
        ] );
    ]
