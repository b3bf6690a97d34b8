(* lib/exec tests: the determinism contract (results complete, in
   submission order, byte-identical for any job count), exception
   propagation without deadlock, and a reduced golden jobs-invariance
   sweep over runtime scenarios. *)

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Determinism properties                                              *)

(* The reference semantics: what any pool must compute. *)
let sequential ~seed ~f items =
  List.mapi
    (fun i x ->
      let s = Netsim.Rng.derive seed ~index:i in
      f i s (Netsim.Rng.create s) x)
    items

let qcheck_pool =
  let open QCheck in
  let scenario =
    (* (pool size 1..8, batch seed, up to 40 tasks) *)
    let gen =
      Gen.(triple (int_range 1 8) (int_bound 10_000) (list_size (int_bound 40) small_int))
    in
    make ~print:Print.(triple int int (list int)) gen
  in
  [
    Test.make ~name:"map = sequential, complete, in order" ~count:60 scenario
      (fun (jobs, seed, items) ->
        let f index seed rng x =
          (* depends on every ctx field a task may legitimately use *)
          (index, x * 3, seed land 0xffff, Netsim.Rng.int rng 1000)
        in
        let got =
          Exec.map ~jobs ~seed
            ~f:(fun ctx x ->
              f ctx.Exec.index ctx.Exec.seed ctx.Exec.rng x)
            items
        in
        got = sequential ~seed ~f items);
    Test.make ~name:"job count never changes results" ~count:40 scenario
      (fun (jobs, seed, items) ->
        let f ctx x = (ctx.Exec.index, x + Netsim.Rng.int ctx.Exec.rng 50) in
        Exec.map ~jobs ~seed ~f items = Exec.map ~jobs:1 ~seed ~f items);
  ]

(* ------------------------------------------------------------------ *)
(* Exceptions                                                          *)

exception Boom of int

let test_exception_propagates () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      let ran = Array.make 20 false in
      (* Two failing tasks: the lowest-indexed one must win, and the
         batch must neither deadlock nor skip the remaining tasks. *)
      (match
         Exec.Pool.map pool
           ~f:(fun ctx x ->
             ran.(ctx.Exec.index) <- true;
             if x = 7 || x = 13 then raise (Boom x);
             x)
           (List.init 20 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> check int "lowest-indexed failure wins" 7 x);
      check int "every task still ran" 20
        (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 ran);
      (* The pool survives a failed batch. *)
      let r = Exec.Pool.map pool ~f:(fun _ x -> x * x) [ 1; 2; 3 ] in
      check Alcotest.(list int) "pool usable after failure" [ 1; 4; 9 ] r)

let test_jobs_validation () =
  (match Exec.Pool.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | pool ->
      Exec.Pool.shutdown pool;
      Alcotest.fail "jobs:0 accepted");
  let pool = Exec.Pool.create ~jobs:2 () in
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool;
  (* idempotent *)
  match Exec.Pool.map pool ~f:(fun _ x -> x) [ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "map on shut-down pool accepted"

(* ------------------------------------------------------------------ *)
(* Sink merging                                                        *)

let merged_metrics_json ~jobs =
  let into = Obs.Sink.create () in
  let _ =
    Exec.Pool.with_pool ~jobs (fun pool ->
        Exec.Pool.map_merge pool ~into
          ~f:(fun ctx x ->
            let m = Obs.Sink.metrics ctx.Exec.sink in
            Obs.Metrics.Counter.add (Obs.Metrics.counter m "task.units") x;
            Obs.Metrics.Counter.incr (Obs.Metrics.counter m "task.count");
            x)
          [ 5; 11; 2; 9 ])
  in
  Obs.Json.to_string (Obs.Metrics.to_json (Obs.Sink.metrics into))

let test_map_merge_jobs_invariant () =
  check string "merged metrics identical at jobs=1 and jobs=4"
    (merged_metrics_json ~jobs:1) (merged_metrics_json ~jobs:4)

(* ------------------------------------------------------------------ *)
(* Golden jobs-invariance: a reduced runtime sweep                     *)

(* The end-to-end contract the bench relies on: fanning full
   Scenario.run simulations (event loops, RNGs, flow tables, traces)
   over the pool yields byte-identical JSON for any job count. *)
let reduced_sweep ~jobs =
  let module Scenario = Sidecar_runtime.Scenario in
  let points =
    [ (`Cc, 8); (`Cc, 16); (`Ack, 8); (`Retx, 8) ]
  in
  let reports =
    Exec.map ~jobs ~seed:0xB5EED
      ~f:(fun ctx (protocol, flows) ->
        let cfg =
          {
            Scenario.default_config with
            Scenario.protocol;
            flows;
            table_flows = 4;
            seed = ctx.Exec.seed;
          }
        in
        Scenario.json_report (Scenario.run cfg))
      points
  in
  Obs.Json.to_string (Obs.Json.List reports)

let test_golden_sweep_jobs_invariant () =
  let one = reduced_sweep ~jobs:1 in
  let four = reduced_sweep ~jobs:4 in
  check string "reduced sweep byte-identical at jobs=1 and jobs=4" one four

(* ------------------------------------------------------------------ *)
(* Service: persistent workers with state affinity                      *)

let test_service_affinity () =
  (* init runs in the owning worker's domain, the state persists
     across rounds, and only worker i ever touches state i. Workers
     only report the domain they ran on; every check runs here, on the
     calling domain, because Alcotest is not domain-safe. *)
  Exec.Service.with_service ~workers:3
    ~init:(fun i -> ((Domain.self () :> int), ref (100 * i)))
    (fun svc ->
      check int "worker count" 3 (Exec.Service.workers svc);
      let homes =
        List.map
          (fun (home, ran_on) ->
            check int "round runs on the init domain" home ran_on;
            home)
          (Exec.Service.round svc ~f:(fun i (home, cell) ->
               cell := !cell + i;
               (home, (Domain.self () :> int))))
      in
      check int "three distinct worker domains" 3
        (List.length (List.sort_uniq compare homes));
      let again =
        Exec.Service.round svc ~f:(fun _ (home, cell) -> (home, !cell))
      in
      let homes = Array.of_list homes in
      List.iteri
        (fun i (home, v) ->
          check int "same domain every round" homes.(i) home;
          check int "state persisted across rounds" (100 * i + i) v)
        again)

let test_service_worker_order () =
  Exec.Service.with_service ~workers:4 ~init:Fun.id (fun svc ->
      let r = Exec.Service.round svc ~f:(fun i s -> (i, s)) in
      check
        Alcotest.(list (pair int int))
        "results in worker order"
        [ (0, 0); (1, 1); (2, 2); (3, 3) ]
        r)

let test_service_single_worker_inline () =
  (* workers = 1 is the determinism baseline: same code path, run
     inline in the caller's domain *)
  let here = (Domain.self () :> int) in
  Exec.Service.with_service ~workers:1
    ~init:(fun i ->
      check int "init inline" here ((Domain.self () :> int));
      ref i)
    (fun svc ->
      let r =
        Exec.Service.round svc ~f:(fun i cell ->
            check int "round inline" here ((Domain.self () :> int));
            !cell + i)
      in
      check Alcotest.(list int) "single inline result" [ 0 ] r)

let test_service_round_exception () =
  Exec.Service.with_service ~workers:4 ~init:Fun.id (fun svc ->
      let ran = Array.make 4 false in
      (match
         Exec.Service.round svc ~f:(fun i _ ->
             ran.(i) <- true;
             if i = 1 || i = 3 then raise (Boom i);
             i)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check int "lowest-indexed failure wins" 1 i);
      check int "every worker still ran the round" 4
        (Array.fold_left (fun a b -> if b then a + 1 else a) 0 ran);
      let r = Exec.Service.round svc ~f:(fun i s -> i + s) in
      check Alcotest.(list int) "service usable after failure"
        [ 0; 2; 4; 6 ] r)

let test_service_init_failure_parked () =
  Exec.Service.with_service ~workers:3
    ~init:(fun i -> if i = 1 then raise (Boom i) else i)
    (fun svc ->
      match Exec.Service.round svc ~f:(fun _ s -> s) with
      | _ -> Alcotest.fail "expected parked init failure"
      | exception Boom i -> check int "init exception re-raised" 1 i)

let test_service_validation () =
  (match Exec.Service.create ~workers:0 ~init:Fun.id () with
  | exception Invalid_argument _ -> ()
  | svc ->
      Exec.Service.shutdown svc;
      Alcotest.fail "workers:0 accepted");
  let svc = Exec.Service.create ~workers:2 ~init:Fun.id () in
  Exec.Service.shutdown svc;
  Exec.Service.shutdown svc;
  (* idempotent *)
  match Exec.Service.round svc ~f:(fun _ s -> s) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "round on shut-down service accepted"

let qcheck_service =
  let open QCheck in
  [
    (* Worker [i]'s result is a pure function of (i, state i): domains
       and scheduling never show through, so every round equals the
       inline sequential map over the per-worker states — the same
       baseline the [workers = 1] code path runs. *)
    Test.make ~name:"round = sequential map over per-worker states" ~count:30
      (make
         ~print:Print.(pair int int)
         Gen.(pair (int_range 1 6) (int_bound 10_000)))
      (fun (workers, seed) ->
        let state i = Netsim.Rng.derive seed ~index:i in
        let expect_a = List.init workers (fun i -> state i lxor i) in
        let expect_b = List.init workers (fun i -> state i + i) in
        Exec.Service.with_service ~workers ~init:state (fun svc ->
            let a = Exec.Service.round svc ~f:(fun i s -> s lxor i) in
            let b = Exec.Service.round svc ~f:(fun i s -> s + i) in
            a = expect_a && b = expect_b));
  ]

(* ------------------------------------------------------------------ *)

let test_recommended_jobs_positive () =
  check Alcotest.bool "at least one job" true (Exec.recommended_jobs () >= 1)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [
      ("determinism", q qcheck_pool);
      ( "exceptions",
        [
          Alcotest.test_case "lowest-index failure, no deadlock" `Quick
            test_exception_propagates;
          Alcotest.test_case "jobs validation + shutdown" `Quick
            test_jobs_validation;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "map_merge jobs-invariant" `Quick
            test_map_merge_jobs_invariant;
        ] );
      ( "golden",
        [
          Alcotest.test_case "reduced runtime sweep jobs-invariant" `Quick
            test_golden_sweep_jobs_invariant;
        ] );
      ( "service",
        [
          Alcotest.test_case "state affinity across rounds" `Quick
            test_service_affinity;
          Alcotest.test_case "results in worker order" `Quick
            test_service_worker_order;
          Alcotest.test_case "workers=1 runs inline" `Quick
            test_service_single_worker_inline;
          Alcotest.test_case "round exceptions, no deadlock" `Quick
            test_service_round_exception;
          Alcotest.test_case "init failure parked" `Quick
            test_service_init_failure_parked;
          Alcotest.test_case "validation + shutdown" `Quick
            test_service_validation;
        ]
        @ q qcheck_service );
      ( "config",
        [
          Alcotest.test_case "recommended_jobs" `Quick
            test_recommended_jobs_positive;
        ] );
    ]
