open Netsim

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Sim_time                                                            *)

let test_time_units () =
  check int "us" 1_000 (Sim_time.us 1);
  check int "ms" 1_000_000 (Sim_time.ms 1);
  check int "s" 1_000_000_000 (Sim_time.s 1);
  check int "of_float_s" 1_500_000_000 (Sim_time.of_float_s 1.5);
  check (Alcotest.float 1e-9) "to_float_s" 0.25 (Sim_time.to_float_s (Sim_time.ms 250));
  check int "add" 30 (Sim_time.add 10 20);
  check int "diff" 15 (Sim_time.diff 40 25)

let test_time_pp () =
  let s t = Format.asprintf "%a" Sim_time.pp t in
  check Alcotest.string "ns" "42ns" (s 42);
  check Alcotest.string "us" "1.500us" (s 1500);
  check Alcotest.string "ms" "2.000ms" (s (Sim_time.ms 2));
  check Alcotest.string "s" "3.000s" (s (Sim_time.s 3))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then differs := true
  done;
  check bool "different seed different stream" true !differs

let test_rng_split_independence () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  (* Drawing from the child must not perturb the parent relative to a
     twin that never split... we instead check the weaker but
     meaningful property: child and parent produce different streams. *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int parent 1_000_000 = Rng.int child 1_000_000 then incr same
  done;
  check bool "streams differ" true (!same < 5)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    if x < 0 || x >= 7 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_bool_frequency () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. 10_000. in
  check bool (Printf.sprintf "p=0.3 got %.3f" f) true (f > 0.27 && f < 0.33)

(* ------------------------------------------------------------------ *)
(* Event_heap                                                          *)

(* Pop everything, oldest first, as (time, value) pairs. *)
let drain h =
  let rec go acc =
    if Event_heap.is_empty h then List.rev acc
    else
      let time = Event_heap.min_time h in
      go ((time, Event_heap.pop_min h) :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Event_heap.create ~filler:0 in
  List.iter (fun t -> Event_heap.push h ~time:t t) [ 5; 1; 9; 3; 7; 2; 8 ];
  check (Alcotest.list int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.map snd (drain h))

let test_heap_stable_ties () =
  let h = Event_heap.create ~filler:(-1) in
  for i = 0 to 9 do
    Event_heap.push h ~time:100 i
  done;
  check (Alcotest.list int) "FIFO at equal times" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map snd (drain h))

let test_heap_interleaved () =
  let h = Event_heap.create ~filler:"" in
  Event_heap.push h ~time:10 "a";
  Event_heap.push h ~time:5 "b";
  check int "min time" 5 (Event_heap.min_time h);
  check Alcotest.string "b first" "b" (Event_heap.pop_min h);
  Event_heap.push h ~time:1 "c";
  check int "new min time" 1 (Event_heap.min_time h);
  check Alcotest.string "c next" "c" (Event_heap.pop_min h);
  check int "size" 1 (Event_heap.size h);
  check int "remaining min time" 10 (Event_heap.min_time h)

let test_heap_empty_raises () =
  let h = Event_heap.create ~filler:() in
  Alcotest.check_raises "min_time" (Invalid_argument "Event_heap.min_time: empty heap")
    (fun () -> ignore (Event_heap.min_time h));
  Alcotest.check_raises "pop_min" (Invalid_argument "Event_heap.pop_min: empty heap")
    (fun () -> Event_heap.pop_min h)

(* A fired event must not stay reachable from the heap: each of these
   closures captures a 1 KB buffer, and after the drain and a full
   collection none of the buffers may survive. The old cell-array heap
   kept about a third of them alive through its vacated tail and its
   growth filler. *)
let test_heap_releases_fired_events () =
  let n = 1000 in
  let h = Event_heap.create ~filler:ignore in
  let bufs = Weak.create n in
  let rng = Rng.create 11 in
  for i = 0 to n - 1 do
    let buf = Bytes.make 1024 'x' in
    Weak.set bufs i (Some buf);
    Event_heap.push h ~time:(Rng.int rng 100) (fun () -> ignore (Bytes.length buf))
  done;
  while not (Event_heap.is_empty h) do
    (Event_heap.pop_min h) ()
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check bufs i then incr live
  done;
  check int "fired events reachable from the drained heap" 0 !live;
  (* the heap itself must still be alive for the check to mean anything *)
  check int "heap empty" 0 (Event_heap.size (Sys.opaque_identity h))

(* The reference model: (time, value) pairs stably sorted on time, so
   equal times stay in push order; a pop takes the head. *)
let rec model_push model ((time, _) as e) =
  match model with
  | ((t, _) as x) :: rest when t <= time -> x :: model_push rest e
  | rest -> e :: rest

let qcheck_heap =
  let open QCheck in
  let op = Gen.(frequency [ (3, map (fun t -> Some t) (int_bound 7)); (1, pure None) ]) in
  [
    Test.make ~name:"heap sorts any sequence" ~count:200
      (list (int_bound 100_000))
      (fun times ->
        let h = Event_heap.create ~filler:0 in
        List.iter (fun t -> Event_heap.push h ~time:t t) times;
        List.map fst (drain h) = List.stable_sort compare times);
    (* Pushes (times from a small range, so ties are everywhere) and
       pops interleaved at random, across several growths: every pop
       must return exactly what a stable sort on time would. *)
    Test.make ~name:"interleaved push/pop = stable-sort model" ~count:300
      (make
         ~print:Print.(list (option int))
         Gen.(list_size (int_range 0 600) op))
      (fun ops ->
        let h = Event_heap.create ~filler:(-1) in
        let model = ref [] and next = ref 0 and ok = ref true in
        List.iter
          (function
            | Some time ->
                Event_heap.push h ~time !next;
                model := model_push !model (time, !next);
                incr next
            | None -> (
                match !model with
                | [] -> ok := !ok && Event_heap.is_empty h
                | expect :: rest ->
                    model := rest;
                    let time = Event_heap.min_time h in
                    ok := !ok && (time, Event_heap.pop_min h) = expect))
          ops;
        !ok && drain h = !model);
  ]

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:20 (fun () -> log := 2 :: !log);
  Engine.run e;
  check (Alcotest.list int) "events in time order" [ 1; 2; 3 ] (List.rev !log);
  check int "clock at last event" 30 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Engine.schedule e ~delay:10 tick
  in
  Engine.schedule e ~delay:10 tick;
  Engine.run e;
  check int "recurring fires" 5 !count;
  check int "clock" 50 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule e ~delay:10 tick
  in
  Engine.schedule e ~delay:10 tick;
  Engine.run ~until:95 e;
  check int "stopped by horizon" 9 !count;
  check int "clock clamped" 95 (Engine.now e)

let test_engine_drain_advances_to_until () =
  (* Regression: when the queue drains before the horizon, the clock
     must still advance to [until] — callers use [Engine.now] as "time
     simulated so far" and schedule follow-up phases relative to it. *)
  let e = Engine.create () in
  Engine.schedule e ~delay:10 ignore;
  Engine.run ~until:1000 e;
  check int "drained queue still reaches horizon" 1000 (Engine.now e);
  (* an idle run advances too *)
  Engine.run ~until:2000 e;
  check int "idle run advances" 2000 (Engine.now e);
  (* without a horizon the clock stays at the last event *)
  Engine.schedule e ~delay:5 ignore;
  Engine.run e;
  check int "unbounded run stops at last event" 2005 (Engine.now e)

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count = 3 then Engine.stop e else Engine.schedule e ~delay:1 tick
  in
  Engine.schedule e ~delay:1 tick;
  Engine.run e;
  check int "stopped mid-run" 3 !count

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:(-5) (fun () -> fired := true);
  Engine.run e;
  check bool "fires immediately" true !fired;
  check int "clock unchanged" 0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Loss                                                                *)

let test_loss_none () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    if Loss.drops Loss.none rng then Alcotest.fail "lossless dropped"
  done

let test_loss_bernoulli_rate () =
  let rng = Rng.create 5 in
  let model = Loss.bernoulli 0.1 in
  let drops = ref 0 in
  for _ = 1 to 20_000 do
    if Loss.drops model rng then incr drops
  done;
  let f = float_of_int !drops /. 20_000. in
  check bool (Printf.sprintf "rate %.3f" f) true (f > 0.085 && f < 0.115);
  check (Alcotest.float 1e-9) "average" 0.1 (Loss.average_rate model)

let test_loss_bernoulli_bad_args () =
  Alcotest.check_raises "p > 1"
    (Invalid_argument "Loss.bernoulli: probability out of range") (fun () ->
      ignore (Loss.bernoulli 1.5))

let test_loss_gilbert_elliott () =
  let rng = Rng.create 9 in
  let model =
    Loss.gilbert_elliott ~loss_bad:0.5 ~p_good_to_bad:0.05 ~p_bad_to_good:0.25 ()
  in
  let drops = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Loss.drops model rng then incr drops
  done;
  let expected = Loss.average_rate model in
  let f = float_of_int !drops /. float_of_int n in
  check bool
    (Printf.sprintf "GE empirical %.4f vs stationary %.4f" f expected)
    true
    (Float.abs (f -. expected) < 0.01)

let test_loss_gilbert_burstiness () =
  (* Consecutive drops should be far more common than under Bernoulli
     at the same average rate. *)
  let rng = Rng.create 11 in
  let model =
    Loss.gilbert_elliott ~loss_bad:0.5 ~p_good_to_bad:0.01 ~p_bad_to_good:0.2 ()
  in
  let n = 200_000 in
  let pairs = ref 0 and drops = ref 0 in
  let prev = ref false in
  for _ = 1 to n do
    let d = Loss.drops model rng in
    if d then incr drops;
    if d && !prev then incr pairs;
    prev := d
  done;
  let p_drop = float_of_int !drops /. float_of_int n in
  let p_pair_given_drop = float_of_int !pairs /. float_of_int !drops in
  check bool
    (Printf.sprintf "bursty: P(drop|drop)=%.3f >> P(drop)=%.3f" p_pair_given_drop p_drop)
    true
    (p_pair_given_drop > 3. *. p_drop)

(* ------------------------------------------------------------------ *)
(* Link                                                                *)

let mk_packet ?(size = 1500) uid =
  Packet.make ~uid ~id:uid ~seq:uid ~size ~sent_at:0 ()

let test_link_delivery_timing () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create e ~name:"l" ~rate_bps:12_000_000 ~delay:(Sim_time.ms 10)
      ~deliver:(fun p -> arrivals := (Engine.now e, p.Packet.uid) :: !arrivals)
      ()
  in
  (* 1500 B at 12 Mbit/s = 1 ms serialisation + 10 ms propagation *)
  ignore (Link.send link (mk_packet 0));
  ignore (Link.send link (mk_packet 1));
  Engine.run e;
  match List.rev !arrivals with
  | [ (t0, 0); (t1, 1) ] ->
      check int "first: tx + prop" (Sim_time.ms 11) t0;
      check int "second queued behind first" (Sim_time.ms 12) t1
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_queue_overflow () =
  let e = Engine.create () in
  let delivered = ref 0 in
  let link =
    Link.create e ~name:"l" ~rate_bps:1_000_000 ~delay:0 ~queue_capacity_pkts:5
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let accepted = ref 0 in
  for i = 0 to 19 do
    if Link.send link (mk_packet i) then incr accepted
  done;
  Engine.run e;
  (* capacity bounds the waiting queue; one more packet occupies the
     transmitter, so capacity + 1 are accepted *)
  check int "only capacity accepted" 6 !accepted;
  check int "delivered = accepted" 6 !delivered;
  check int "tail drops counted" 14 (Link.stats link).Link.dropped_queue

let test_link_loss_applied () =
  let e = Engine.create ~seed:3 () in
  let delivered = ref 0 in
  let link =
    Link.create e ~name:"l" ~rate_bps:1_000_000_000 ~delay:0
      ~queue_capacity_pkts:100_000 ~loss:(Loss.bernoulli 0.5)
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  for i = 0 to 1999 do
    ignore (Link.send link (mk_packet i))
  done;
  Engine.run e;
  let s = Link.stats link in
  check int "sent" 2000 s.Link.sent;
  check int "conservation" 2000 (s.Link.delivered + s.Link.dropped_loss);
  check bool "roughly half dropped" true
    (s.Link.dropped_loss > 850 && s.Link.dropped_loss < 1150);
  check bool "observed rate" true
    (Float.abs (Link.loss_rate_observed link -. 0.5) < 0.08)

let test_link_tx_time () =
  let e = Engine.create () in
  let link = Link.create e ~name:"l" ~rate_bps:8_000_000 ~delay:0 () in
  check int "1000 B at 8 Mbit/s = 1 ms" (Sim_time.ms 1) (Link.tx_time link ~size:1000)

let test_link_bad_args () =
  let e = Engine.create () in
  Alcotest.check_raises "zero rate" (Invalid_argument "Link.create: rate must be positive")
    (fun () -> ignore (Link.create e ~name:"x" ~rate_bps:0 ~delay:0 ()))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check int "count" 8 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Summary.mean s);
  check (Alcotest.float 1e-6) "stddev (sample)" 2.138089935 (Stats.Summary.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.Summary.max s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  check (Alcotest.float 1e-9) "mean of empty" 0. (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "stddev of empty" 0. (Stats.Summary.stddev s);
  check bool "min of empty is nan" true (Float.is_nan (Stats.Summary.min s));
  check bool "max of empty is nan" true (Float.is_nan (Stats.Summary.max s))

let test_quantile_empty () =
  let q = Stats.Quantile.create 0.5 in
  check bool "estimate of empty is nan" true
    (Float.is_nan (Stats.Quantile.estimate q));
  let qs = Stats.Quantiles.create () in
  check bool "p50 of empty is nan" true (Float.is_nan (Stats.Quantiles.p50 qs));
  check bool "p95 of empty is nan" true (Float.is_nan (Stats.Quantiles.p95 qs));
  check bool "p99 of empty is nan" true (Float.is_nan (Stats.Quantiles.p99 qs))

let test_quantile_small () =
  (* With five or fewer observations P² has not initialised its
     markers; the estimate must be the exact order statistic. *)
  let q = Stats.Quantile.create 0.5 in
  List.iter (Stats.Quantile.add q) [ 9.; 1.; 5. ];
  check (Alcotest.float 1e-9) "exact median of 3" 5. (Stats.Quantile.estimate q);
  let q = Stats.Quantile.create 0.99 in
  List.iter (Stats.Quantile.add q) [ 3.; 1.; 4.; 1.; 5. ];
  check (Alcotest.float 1e-9) "p99 of 5 = max" 5. (Stats.Quantile.estimate q)

let test_quantile_accuracy () =
  (* P² streaming estimates vs the exact percentile on the same data:
     lognormal-ish positive skew, deterministic generator. *)
  let rng = Rng.create 91 in
  let xs =
    Array.init 5000 (fun _ -> -.log (1. -. (0.999999 *. Rng.float rng)))
  in
  let qs = Stats.Quantiles.create () in
  Array.iter (Stats.Quantiles.add qs) xs;
  let exact p = Workload.percentile xs ~p in
  let rel est ex = Float.abs (est -. ex) /. ex in
  check bool "p50 within 5%" true (rel (Stats.Quantiles.p50 qs) (exact 50.) < 0.05);
  check bool "p95 within 10%" true (rel (Stats.Quantiles.p95 qs) (exact 95.) < 0.10);
  check bool "p99 within 15%" true (rel (Stats.Quantiles.p99 qs) (exact 99.) < 0.15);
  check int "count" 5000 (Stats.Quantiles.count qs)

let test_quantile_monotone_percentiles () =
  let rng = Rng.create 12 in
  let qs = Stats.Quantiles.create () in
  for _ = 1 to 1000 do
    Stats.Quantiles.add qs (100. *. Rng.float rng)
  done;
  let p50 = Stats.Quantiles.p50 qs
  and p95 = Stats.Quantiles.p95 qs
  and p99 = Stats.Quantiles.p99 qs in
  check bool "p50 <= p95" true (p50 <= p95);
  check bool "p95 <= p99" true (p95 <= p99)

let test_series () =
  let s = Stats.Series.create "cwnd" in
  Stats.Series.add s ~time:10 1.;
  Stats.Series.add s ~time:20 2.;
  check (Alcotest.list (Alcotest.pair int (Alcotest.float 0.))) "chronological"
    [ (10, 1.); (20, 2.) ]
    (Stats.Series.to_list s);
  check Alcotest.string "name" "cwnd" (Stats.Series.name s)

let test_series_decimation () =
  let s = Stats.Series.create ~capacity:8 "rtt" in
  for i = 0 to 99 do
    Stats.Series.add s ~time:i (float_of_int i)
  done;
  check int "total counts every add" 100 (Stats.Series.total s);
  check bool "bounded" true (Stats.Series.length s <= 8);
  check int "dropped is the difference" (100 - Stats.Series.length s)
    (Stats.Series.dropped s);
  let stride = Stats.Series.stride s in
  check bool "stride grew" true (stride > 1);
  let kept = Stats.Series.to_list s in
  check bool "non-empty" true (kept <> []);
  List.iter
    (fun (t, v) ->
      (* time = arrival index here, so retention is visible directly *)
      check int (Printf.sprintf "kept sample %d on stride" t) 0 (t mod stride);
      check (Alcotest.float 0.) "value preserved" (float_of_int t) v)
    kept;
  (* chronological order *)
  let times = List.map fst kept in
  check (Alcotest.list int) "chronological" (List.sort compare times) times

(* ------------------------------------------------------------------ *)
(* Jitter / reordering                                                 *)

let test_jitter_reorders () =
  let e = Engine.create ~seed:4 () in
  let order = ref [] in
  let link =
    Link.create e ~name:"j" ~rate_bps:1_000_000_000 ~delay:(Sim_time.ms 5)
      ~jitter:(Sim_time.ms 10)
      ~deliver:(fun p -> order := p.Packet.uid :: !order)
      ()
  in
  for i = 0 to 199 do
    ignore (Link.send link (mk_packet i))
  done;
  Engine.run e;
  let arrived = List.rev !order in
  check int "all delivered" 200 (List.length arrived);
  check bool "jitter reordered packets" true (arrived <> List.init 200 (fun i -> i))

let test_no_jitter_preserves_order () =
  let e = Engine.create ~seed:4 () in
  let order = ref [] in
  let link =
    Link.create e ~name:"j" ~rate_bps:1_000_000 ~delay:(Sim_time.ms 5)
      ~deliver:(fun p -> order := p.Packet.uid :: !order)
      ()
  in
  for i = 0 to 99 do
    ignore (Link.send link (mk_packet i))
  done;
  Engine.run e;
  check bool "FIFO without jitter" true (List.rev !order = List.init 100 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let test_workload_sizes_positive () =
  let rng = Rng.create 2 in
  List.iter
    (fun dist ->
      for _ = 1 to 500 do
        if Workload.sample_size rng dist < 1 then Alcotest.fail "size < 1"
      done)
    [
      Workload.Fixed 10;
      Workload.Uniform (1, 50);
      Workload.web_flows;
      Workload.Pareto { xmin = 3.; alpha = 1.3 };
    ]

let test_workload_lognormal_median () =
  let rng = Rng.create 7 in
  let xs =
    Array.init 4000 (fun _ ->
        float_of_int (Workload.sample_size rng (Workload.Lognormal { mu = 3.; sigma = 1. })))
  in
  (* median of lognormal = e^mu ~ 20 *)
  let med = Workload.percentile xs ~p:50. in
  check bool (Printf.sprintf "median %.1f near e^3=20" med) true (med > 15. && med < 26.)

let test_workload_pareto_heavy_tail () =
  let rng = Rng.create 8 in
  let xs =
    Array.init 4000 (fun _ ->
        float_of_int
          (Workload.sample_size rng (Workload.Pareto { xmin = 2.; alpha = 1.2 })))
  in
  let p50 = Workload.percentile xs ~p:50. and p99 = Workload.percentile xs ~p:99. in
  check bool
    (Printf.sprintf "heavy tail: p99 %.0f >> p50 %.0f" p99 p50)
    true
    (p99 > 10. *. p50)

let test_workload_exponential_mean () =
  let rng = Rng.create 9 in
  let acc = ref 0. in
  let n = 20_000 in
  for _ = 1 to n do
    acc := !acc +. Workload.sample_exponential rng ~mean:0.25
  done;
  let mean = !acc /. float_of_int n in
  check bool (Printf.sprintf "mean %.3f" mean) true (Float.abs (mean -. 0.25) < 0.02)

let test_percentile_edges () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check (Alcotest.float 1e-9) "p100" 5. (Workload.percentile xs ~p:100.);
  check (Alcotest.float 1e-9) "p50" 3. (Workload.percentile xs ~p:50.);
  Alcotest.check_raises "empty" (Invalid_argument "Workload.percentile: empty")
    (fun () -> ignore (Workload.percentile [||] ~p:50.))

(* ------------------------------------------------------------------ *)
(* AQM (CoDel)                                                         *)

let test_codel_quiet_below_target () =
  let aqm = Aqm.create () in
  (* sojourns below 5 ms never drop *)
  for i = 0 to 999 do
    let now = i * Sim_time.ms 1 in
    match Aqm.on_dequeue aqm ~now ~enqueued_at:(now - Sim_time.ms 2) with
    | Aqm.Forward -> ()
    | Aqm.Drop -> Alcotest.fail "dropped below target"
  done;
  check int "no drops" 0 (Aqm.drops aqm)

let test_codel_drops_standing_queue () =
  let aqm = Aqm.create () in
  (* a standing 50 ms queue must trigger dropping after one interval *)
  for i = 0 to 999 do
    let now = i * Sim_time.ms 1 in
    ignore (Aqm.on_dequeue aqm ~now ~enqueued_at:(now - Sim_time.ms 50))
  done;
  check bool (Printf.sprintf "drops=%d" (Aqm.drops aqm)) true (Aqm.drops aqm > 3);
  check bool "entered dropping state" true (Aqm.in_dropping_state aqm)

let test_codel_recovers () =
  let aqm = Aqm.create () in
  for i = 0 to 499 do
    let now = i * Sim_time.ms 1 in
    ignore (Aqm.on_dequeue aqm ~now ~enqueued_at:(now - Sim_time.ms 50))
  done;
  let d = Aqm.drops aqm in
  (* queue drains: sojourns fall below target; dropping must stop *)
  for i = 500 to 999 do
    let now = i * Sim_time.ms 1 in
    ignore (Aqm.on_dequeue aqm ~now ~enqueued_at:(now - Sim_time.ms 1))
  done;
  check bool "left dropping state" false (Aqm.in_dropping_state aqm);
  check int "no further drops" d (Aqm.drops aqm)

let test_codel_on_link_controls_delay () =
  (* saturate a slow link with a deep queue: with CoDel the mean
     sojourn stays near target; without, the queue stands at capacity *)
  let run aqm =
    let e = Engine.create () in
    let link =
      Link.create e ~name:"l" ~rate_bps:2_000_000 ~delay:0
        ~queue_capacity_pkts:1000 ?aqm ()
    in
    (* offer 10 packets every 50 ms = 2.4 Mbit/s against a 2 Mbit/s
       link: a 1.2x persistent overload, the regime AQM is built for
       (unresponsive floods defeat any AQM) *)
    let uid = ref 0 in
    let rec burst () =
      for _ = 1 to 10 do
        ignore (Link.send link (mk_packet !uid));
        incr uid
      done;
      if Engine.now e < Sim_time.s 4 then Engine.schedule e ~delay:(Sim_time.ms 50) burst
    in
    Engine.schedule e ~delay:0 burst;
    Engine.run ~until:(Sim_time.s 5) e;
    link
  in
  let fifo = run None in
  let codel = run (Some (Aqm.create ())) in
  check bool
    (Printf.sprintf "codel sojourn %.1f ms << fifo %.1f ms"
       (1e3 *. Link.mean_sojourn codel)
       (1e3 *. Link.mean_sojourn fifo))
    true
    (Link.mean_sojourn codel < Link.mean_sojourn fifo /. 4.);
  check bool "codel dropped at dequeue" true ((Link.stats codel).Link.dropped_aqm > 0)

(* ------------------------------------------------------------------ *)
(* Trace (typed events via Obs)                                        *)

let test_trace_ring () =
  let t = Obs.Trace.create ~capacity:4 () in
  Obs.Trace.enable t Obs.Trace.Link;
  for i = 1 to 6 do
    Obs.Trace.record t ~time:(i * 10)
      (Obs.Trace.Deliver { link = "l"; flow = i; size = 100 })
  done;
  let flows =
    List.map
      (fun (time, ev) ->
        match ev with
        | Obs.Trace.Deliver { flow; _ } -> (time, flow)
        | _ -> Alcotest.fail "unexpected event kind")
      (Obs.Trace.events t)
  in
  check (Alcotest.list (Alcotest.pair int int)) "keeps newest 4"
    [ (30, 3); (40, 4); (50, 5); (60, 6) ]
    flows;
  check int "dropped" 2 (Obs.Trace.dropped t);
  Obs.Trace.clear t;
  check int "cleared" 0 (List.length (Obs.Trace.events t))

let test_trace_mask () =
  let t = Obs.Trace.create () in
  Obs.Trace.record t ~time:1 (Obs.Trace.Admit { table = "tbl"; flow = 1 });
  check int "everything masked off by default" 0 (Obs.Trace.total t);
  Obs.Trace.enable t Obs.Trace.Table;
  check bool "on" true (Obs.Trace.on t Obs.Trace.Table);
  check bool "others still off" false (Obs.Trace.on t Obs.Trace.Quack);
  Obs.Trace.record t ~time:2 (Obs.Trace.Admit { table = "tbl"; flow = 2 });
  Obs.Trace.record t ~time:3
    (Obs.Trace.Quack_sent { dst = "server"; flow = 2; index = 1; bytes = 32 });
  check int "only the enabled category records" 1 (Obs.Trace.total t);
  Obs.Trace.disable t Obs.Trace.Table;
  Obs.Trace.record t ~time:4 (Obs.Trace.Admit { table = "tbl"; flow = 3 });
  check int "disable works" 1 (Obs.Trace.total t)

let test_link_traces_when_enabled () =
  (* The same seeded run with tracing fully on and fully off must
     deliver identically — observability must not perturb — and the
     traced run's ring must describe the packet lifecycle. *)
  let run ~traced =
    let e = Engine.create ~seed:5 () in
    if traced then Obs.Trace.enable_all (Engine.trace e);
    let delivered = ref [] in
    let link =
      Link.create e ~name:"t" ~rate_bps:10_000_000 ~delay:(Sim_time.ms 2)
        ~loss:(Loss.bernoulli 0.2)
        ~deliver:(fun p -> delivered := p.Packet.uid :: !delivered)
        ()
    in
    for i = 0 to 99 do
      ignore (Link.send link (mk_packet i))
    done;
    Engine.run e;
    (!delivered, Link.stats link, Engine.trace e)
  in
  let d_on, s_on, tr = run ~traced:true in
  let d_off, s_off, tr_off = run ~traced:false in
  check bool "identical delivery either way" true (d_on = d_off);
  check bool "identical stats either way" true (s_on = s_off);
  check int "untraced run records nothing" 0 (Obs.Trace.total tr_off);
  let count pred = List.length (List.filter pred (Obs.Trace.events tr)) in
  check int "one enqueue per offered packet" 100
    (count (fun (_, ev) -> match ev with Obs.Trace.Enqueue _ -> true | _ -> false));
  check int "deliver events match callback" (List.length d_on)
    (count (fun (_, ev) -> match ev with Obs.Trace.Deliver _ -> true | _ -> false));
  check int "drop events are the remainder" (100 - List.length d_on)
    (count (fun (_, ev) -> match ev with Obs.Trace.Drop _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Conservation: every accepted packet is accounted for exactly once   *)

let test_link_conservation_under_everything () =
  let e = Engine.create ~seed:12 () in
  let delivered = ref 0 in
  let link =
    Link.create e ~name:"k" ~rate_bps:5_000_000 ~delay:(Sim_time.ms 3)
      ~jitter:(Sim_time.ms 4) ~queue_capacity_pkts:64
      ~loss:(Loss.gilbert_elliott ~loss_bad:0.4 ~p_good_to_bad:0.05 ~p_bad_to_good:0.3 ())
      ~aqm:(Aqm.create ())
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let offered = 5_000 in
  let accepted = ref 0 in
  let uid = ref 0 in
  let rec burst () =
    for _ = 1 to 25 do
      if Link.send link (mk_packet !uid) then incr accepted;
      incr uid
    done;
    if !uid < offered then Engine.schedule e ~delay:(Sim_time.ms 7) burst
  in
  Engine.schedule e ~delay:0 burst;
  Engine.run e;
  let st = Link.stats link in
  check int "accepted = sent stat" !accepted st.Link.sent;
  check int "conservation" st.Link.sent
    (st.Link.delivered + st.Link.dropped_loss + st.Link.dropped_aqm);
  check int "delivered callback count" st.Link.delivered !delivered;
  check int "tail drops are the remainder" offered
    (st.Link.sent + st.Link.dropped_queue)

(* ------------------------------------------------------------------ *)
(* Determinism of a whole simulation                                   *)

let test_simulation_reproducible () =
  let run seed =
    let e = Engine.create ~seed () in
    let delivered = ref [] in
    let link =
      Link.create e ~name:"l" ~rate_bps:10_000_000 ~delay:(Sim_time.ms 5)
        ~loss:(Loss.bernoulli 0.3)
        ~deliver:(fun p -> delivered := p.Packet.uid :: !delivered)
        ()
    in
    for i = 0 to 499 do
      ignore (Link.send link (mk_packet i))
    done;
    Engine.run e;
    !delivered
  in
  check bool "same seed same outcome" true (run 42 = run 42);
  check bool "different seed different outcome" true (run 42 <> run 43)

let test_split_streams_replay () =
  (* Regression for the Rng.split evaluation-order bug: the child
     streams must be a pure function of the parent's state, so two
     identically-seeded parents yield identical children — and drawing
     from children and parent interleaved replays exactly. *)
  let draws seed =
    let parent = Rng.create seed in
    let c1 = Rng.split parent in
    let c2 = Rng.split parent in
    List.concat
      [
        List.init 32 (fun _ -> Rng.int c1 1_000_000);
        List.init 32 (fun _ -> Rng.int c2 1_000_000);
        List.init 32 (fun _ -> Rng.int parent 1_000_000);
      ]
  in
  check (Alcotest.list int) "split streams replay" (draws 7) (draws 7);
  check bool "children differ from each other" true
    (let parent = Rng.create 7 in
     let a = Rng.split parent and b = Rng.split parent in
     List.init 16 (fun _ -> Rng.int a 1_000_000)
     <> List.init 16 (fun _ -> Rng.int b 1_000_000))

let test_cross_run_determinism () =
  (* The same seed must reproduce a full simulation bit-for-bit: a
     bursty workload sampled through a split RNG stream, pushed over a
     lossy, jittery, queue-limited link. Event trace and stats must be
     identical across two runs in the same process. *)
  let run seed =
    let e = Engine.create ~seed () in
    let wl_rng = Rng.split (Engine.rng e) in
    let trace = Obs.Trace.create ~capacity:8192 () in
    Obs.Trace.enable trace Obs.Trace.Proto;
    let link =
      Link.create e ~name:"d" ~rate_bps:8_000_000 ~delay:(Sim_time.ms 4)
        ~jitter:(Sim_time.ms 2) ~queue_capacity_pkts:64
        ~loss:
          (Loss.gilbert_elliott ~loss_bad:0.3 ~p_good_to_bad:0.05
             ~p_bad_to_good:0.2 ())
        ~deliver:(fun p ->
          Obs.Trace.record trace ~time:(Engine.now e)
            (Obs.Trace.Note { who = "rx"; flow = p.Packet.uid; what = "" }))
        ()
    in
    let uid = ref 0 in
    let rec burst () =
      let n =
        Workload.sample_size wl_rng (Workload.Lognormal { mu = 2.; sigma = 0.7 })
      in
      for _ = 1 to min n 30 do
        ignore (Link.send link (mk_packet !uid));
        incr uid
      done;
      if !uid < 2_000 then Engine.schedule e ~delay:(Sim_time.ms 3) burst
    in
    Engine.schedule e ~delay:0 burst;
    Engine.run e;
    (Obs.Trace.events trace, Link.stats link, Engine.now e)
  in
  check bool "same seed, identical trace and stats" true (run 1234 = run 1234);
  check bool "different seed diverges" true (run 1234 <> run 99)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "netsim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bool frequency" `Quick test_rng_bool_frequency;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "stable ties" `Quick test_heap_stable_ties;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "empty raises" `Quick test_heap_empty_raises;
          Alcotest.test_case "releases fired events" `Quick test_heap_releases_fired_events;
        ] );
      ("heap-props", q qcheck_heap);
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "until horizon" `Quick test_engine_until;
          Alcotest.test_case "drain advances to until" `Quick
            test_engine_drain_advances_to_until;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
        ] );
      ( "loss",
        [
          Alcotest.test_case "none" `Quick test_loss_none;
          Alcotest.test_case "bernoulli rate" `Quick test_loss_bernoulli_rate;
          Alcotest.test_case "bad args" `Quick test_loss_bernoulli_bad_args;
          Alcotest.test_case "gilbert-elliott stationary" `Slow test_loss_gilbert_elliott;
          Alcotest.test_case "gilbert-elliott burstiness" `Slow test_loss_gilbert_burstiness;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery timing" `Quick test_link_delivery_timing;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "loss applied" `Quick test_link_loss_applied;
          Alcotest.test_case "tx time" `Quick test_link_tx_time;
          Alcotest.test_case "bad args" `Quick test_link_bad_args;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "series decimation" `Quick test_series_decimation;
          Alcotest.test_case "quantile empty" `Quick test_quantile_empty;
          Alcotest.test_case "quantile small-n exact" `Quick test_quantile_small;
          Alcotest.test_case "quantile P2 accuracy" `Quick test_quantile_accuracy;
          Alcotest.test_case "quantile monotone" `Quick
            test_quantile_monotone_percentiles;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "reorders" `Quick test_jitter_reorders;
          Alcotest.test_case "fifo without jitter" `Quick test_no_jitter_preserves_order;
        ] );
      ( "workload",
        [
          Alcotest.test_case "sizes positive" `Quick test_workload_sizes_positive;
          Alcotest.test_case "lognormal median" `Quick test_workload_lognormal_median;
          Alcotest.test_case "pareto heavy tail" `Quick test_workload_pareto_heavy_tail;
          Alcotest.test_case "exponential mean" `Quick test_workload_exponential_mean;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
        ] );
      ( "aqm",
        [
          Alcotest.test_case "quiet below target" `Quick test_codel_quiet_below_target;
          Alcotest.test_case "drops standing queue" `Quick test_codel_drops_standing_queue;
          Alcotest.test_case "recovers" `Quick test_codel_recovers;
          Alcotest.test_case "controls link delay" `Quick test_codel_on_link_controls_delay;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_trace_ring;
          Alcotest.test_case "category mask" `Quick test_trace_mask;
          Alcotest.test_case "tracing never perturbs" `Quick
            test_link_traces_when_enabled;
        ] );
      ( "conservation",
        [ Alcotest.test_case "loss+aqm+jitter+overflow" `Quick test_link_conservation_under_everything ] );
      ( "determinism",
        [
          Alcotest.test_case "whole simulation" `Quick test_simulation_reproducible;
          Alcotest.test_case "split streams replay" `Quick test_split_streams_replay;
          Alcotest.test_case "cross-run workload trace" `Quick
            test_cross_run_determinism;
        ] );
    ]
