(* Sharded-runtime tests: the shard-count-invariance contract and the
   pieces it stands on — pure routing, the capacity remainder rule,
   order-independent epoch merging — plus golden reports pinned across
   commits and the per-partition capacity regression. *)

module Sr = Sidecar_runtime.Shard_runtime

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Routing and capacity split                                           *)

let qcheck_topology =
  let open QCheck in
  [
    Test.make ~name:"route: pure function of (key, partitions), in range"
      ~count:500
      (make
         ~print:Print.(pair int int)
         Gen.(pair (int_range 1 64) (int_bound 1_000_000)))
      (fun (partitions, key) ->
        let p = Sr.route ~partitions key in
        p >= 0 && p < partitions && p = Sr.route ~partitions key);
    Test.make ~name:"shard_of = route mod shards" ~count:500
      (make
         ~print:Print.(triple int int int)
         Gen.(triple (int_range 1 8) (int_range 8 64) (int_bound 1_000_000)))
      (fun (shards, partitions, key) ->
        Sr.shard_of ~shards ~partitions key
        = Sr.route ~partitions key mod shards);
    Test.make ~name:"split_capacity sums to capacity, spread <= 1" ~count:300
      (make
         ~print:Print.(pair int int)
         Gen.(pair (int_bound 10_000) (int_range 1 64)))
      (fun (capacity, partitions) ->
        let caps = Sr.split_capacity ~capacity ~partitions in
        let sum = Array.fold_left ( + ) 0 caps in
        let mx = Array.fold_left max 0 caps
        and mn = Array.fold_left min max_int caps in
        sum = capacity && mx - mn <= 1
        (* wider partitions come first *)
        && Array.for_all (fun c -> c <= caps.(0)) caps);
  ]

let test_split_remainder_rule () =
  (* 64 slots over 5 partitions: 64 = 5*12 + 4, so the first four
     partitions get 13 and the last gets 12 — pinned. *)
  check
    Alcotest.(array int)
    "64 over 5" [| 13; 13; 13; 13; 12 |]
    (Sr.split_capacity ~capacity:64 ~partitions:5);
  check
    Alcotest.(array int)
    "3 over 4 leaves a zero-width partition" [| 1; 1; 1; 0 |]
    (Sr.split_capacity ~capacity:3 ~partitions:4)

(* ------------------------------------------------------------------ *)
(* Epoch-series merging                                                 *)

let qcheck_epochs =
  let open QCheck in
  let cell = Gen.(triple (int_bound 19) (int_bound 2) (int_range (-50) 50)) in
  [
    Test.make
      ~name:"Epochs.merge: any grouping of notes equals direct accumulation"
      ~count:200
      (make
         ~print:Print.(pair int (list (triple int int int)))
         Gen.(pair (int_range 1 5) (list_size (int_bound 60) cell)))
      (fun (groups, notes) ->
        let columns = [ "a"; "b"; "c" ] in
        let direct = Obs.Epochs.create ~columns in
        List.iter
          (fun (epoch, c, v) -> Obs.Epochs.note direct ~epoch c v)
          notes;
        (* scatter the same notes across [groups] series (simulating
           per-shard accumulation), merge in order *)
        let shards = Array.init groups (fun _ -> Obs.Epochs.create ~columns) in
        List.iteri
          (fun i (epoch, c, v) ->
            Obs.Epochs.note shards.(i mod groups) ~epoch c v)
          notes;
        let merged = Obs.Epochs.create ~columns in
        Array.iter (fun s -> Obs.Epochs.merge ~into:merged s) shards;
        Obs.Json.to_string (Obs.Epochs.to_json merged)
        = Obs.Json.to_string (Obs.Epochs.to_json direct));
  ]

(* ------------------------------------------------------------------ *)
(* Shard-count invariance                                               *)

(* Small enough to run two configurations x three shard counts in a
   unit test, large enough to exercise admission denial, eviction and
   completion churn (600 flows against 48 table slots). *)
let small cfg_policy =
  {
    Sr.default_config with
    Sr.flows = 600;
    arrivals_per_epoch = 40;
    capacity = 48;
    partitions = 8;
    policy = cfg_policy;
    threshold = 4;
    quack_every = 4;
    min_units = 2;
    max_units = 60;
    max_epochs = 400;
    seed = 0xC0FFEE;
  }

let det_json cfg =
  Obs.Json.to_string (Sr.json_report ~deterministic:true (Sr.run cfg))

let test_shard_invariance () =
  List.iter
    (fun (policy, label) ->
      let base = det_json { (small policy) with Sr.shards = 1 } in
      List.iter
        (fun shards ->
          check string
            (Printf.sprintf "%s: shards=%d == shards=1" label shards)
            base
            (det_json { (small policy) with Sr.shards }))
        [ 2; 3; 4 ])
    [ (Sr.Idle_epochs 3, "idle"); (Sr.Lru, "lru") ]

(* ------------------------------------------------------------------ *)
(* Golden reports                                                       *)

(* The deterministic report of [small] under three settings, pinned
   across commits: both eviction policies, and the log-table field at
   16 bits. A change that moves an admission decision, a sketch sum or an
   epoch cell shows up here as a diff, where the invariance test above
   (one build compared with itself) would still pass.

   Regenerate (only when a behaviour change is intended and understood):
     dune exec test/shard/test_shard.exe -- gen <abs path to test/shard/golden>
*)
let golden_configs =
  [
    ("idle3", small (Sr.Idle_epochs 3));
    ("lru", small Sr.Lru);
    ("idle3_log16", { (small (Sr.Idle_epochs 3)) with Sr.field = `Log; bits = 16 });
  ]

let golden_snap cfg =
  Format.asprintf "%a@." Obs.Json.pp (Sr.json_report ~deterministic:true (Sr.run cfg))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let gen dir =
  List.iter
    (fun (name, cfg) ->
      let path = Filename.concat dir (name ^ ".json") in
      write_file path (golden_snap cfg);
      Printf.printf "wrote %s\n%!" path)
    golden_configs

let golden_case (name, cfg) =
  Alcotest.test_case name `Quick (fun () ->
      let expected = read_file (Filename.concat "golden" (name ^ ".json")) in
      check string (name ^ " matches the committed report") expected
        (golden_snap cfg))

(* ------------------------------------------------------------------ *)
(* Report structure                                                     *)

let test_per_partition_capacity () =
  (* The small fix pinned: capacities flow through per-partition with
     the remainder rule, for a capacity not divisible by the partition
     count, and survive into the report unchanged. *)
  let cfg =
    { (small (Sr.Idle_epochs 3)) with Sr.capacity = 50; partitions = 8 }
  in
  let r = Sr.run cfg in
  let caps = Array.map (fun p -> p.Sr.part_capacity) r.Sr.per_partition in
  check Alcotest.(array int) "remainder rule in report"
    (Sr.split_capacity ~capacity:50 ~partitions:8)
    caps;
  check int "partition ids ascending and dense" (8 * 7 / 2)
    (Array.fold_left (fun a p -> a + p.Sr.pid) 0 r.Sr.per_partition);
  Array.iter
    (fun p ->
      Alcotest.check Alcotest.bool "peak within slice" true
        (p.Sr.part_peak <= p.Sr.part_capacity))
    r.Sr.per_partition

let test_run_accounting () =
  let r = Sr.run { (small (Sr.Idle_epochs 3)) with Sr.shards = 2 } in
  check int "every flow completed" 0 r.Sr.unfinished;
  check int "completed = flows" r.Sr.flows r.Sr.completed;
  check int "packets split tracked/degraded" r.Sr.packets
    (r.Sr.tracked + r.Sr.degraded);
  Alcotest.check Alcotest.bool "sustained concurrency positive" true
    (r.Sr.peak_concurrent > 0);
  Alcotest.check Alcotest.bool "admission control exercised" true
    (r.Sr.denied > 0);
  (* deterministic JSON omits the shard count, plain JSON keeps it *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let det = Obs.Json.to_string (Sr.json_report ~deterministic:true r) in
  let plain = Obs.Json.to_string (Sr.json_report r) in
  Alcotest.check Alcotest.bool "no shards field when deterministic" false
    (contains det "\"shards\"");
  Alcotest.check Alcotest.bool "shards field otherwise" true
    (contains plain "\"shards\"")

let test_config_validation () =
  let expect_invalid label cfg =
    match Sr.run cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (label ^ ": accepted")
  in
  let ok = small (Sr.Idle_epochs 3) in
  expect_invalid "shards 0" { ok with Sr.shards = 0 };
  expect_invalid "more shards than partitions"
    { ok with Sr.shards = 9; partitions = 8 };
  expect_invalid "no flows" { ok with Sr.flows = 0 };
  expect_invalid "zero arrivals" { ok with Sr.arrivals_per_epoch = 0 };
  expect_invalid "zero quack interval" { ok with Sr.quack_every = 0 };
  expect_invalid "idle span 0" { ok with Sr.policy = Sr.Idle_epochs 0 };
  expect_invalid "bad unit bounds" { ok with Sr.min_units = 5; max_units = 4 }

(* ------------------------------------------------------------------ *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: _ -> gen dir
  | _ ->
  Alcotest.run "shard"
    [
      ( "topology",
        Alcotest.test_case "capacity remainder rule pinned" `Quick
          test_split_remainder_rule
        :: q qcheck_topology );
      ("epochs", q qcheck_epochs);
      ( "invariance",
        [
          Alcotest.test_case "report byte-identical for shards 1..4" `Quick
            test_shard_invariance;
        ] );
      ( "report",
        [
          Alcotest.test_case "per-partition capacities" `Quick
            test_per_partition_capacity;
          Alcotest.test_case "accounting identities" `Quick test_run_accounting;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ("golden", List.map golden_case golden_configs);
    ]
