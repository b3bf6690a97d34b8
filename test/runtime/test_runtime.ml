open Sidecar_runtime
module Time = Netsim.Sim_time
module Path = Sidecar_protocols.Path

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Flow_table                                                          *)

let test_table_basic () =
  let t = Flow_table.create ~capacity:2 () in
  check bool "absent" true (Flow_table.find t ~now:0 7 = None);
  let a = Flow_table.admit t ~now:0 7 (fun () -> "seven") in
  check bool "admitted" true (a = Some "seven");
  check bool "found" true (Flow_table.find t ~now:1 7 = Some "seven");
  ignore (Flow_table.admit t ~now:2 8 (fun () -> "eight"));
  check int "occupancy" 2 (Flow_table.occupancy t);
  (* admitting a third evicts the LRU entry, which is 7 only if 8 was
     touched more recently *)
  ignore (Flow_table.find t ~now:3 8);
  ignore (Flow_table.admit t ~now:4 9 (fun () -> "nine"));
  check bool "lru evicted" true (not (Flow_table.mem t 7));
  check bool "mru kept" true (Flow_table.mem t 8);
  check int "stats: one lru eviction" 1 (Flow_table.stats t).Flow_table.evicted_lru

let test_table_capacity_zero () =
  let t = Flow_table.create ~capacity:0 () in
  check bool "denied" true (Flow_table.admit t ~now:0 1 (fun () -> ()) = None);
  check int "occupancy stays 0" 0 (Flow_table.occupancy t);
  check int "denied counted" 1 (Flow_table.stats t).Flow_table.denied

let test_table_evict_callback () =
  let evicted = ref [] in
  let removed = ref [] in
  let t =
    Flow_table.create ~capacity:1
      ~on_evict:(fun k v -> evicted := (k, v) :: !evicted)
      ~on_remove:(fun k v -> removed := (k, v) :: !removed)
      ()
  in
  ignore (Flow_table.admit t ~now:0 1 (fun () -> "one"));
  ignore (Flow_table.admit t ~now:1 2 (fun () -> "two"));
  check bool "evict callback ran" true (!evicted = [ (1, "one") ]);
  check bool "remove" true (Flow_table.remove t 2);
  (* the remove-vs-evict split: a voluntary release must reach
     [on_remove] only — routing it through [on_evict] made the
     protocol flush a cleanly-finished flow's buffer into the
     network *)
  check bool "remove fires on_remove" true (!removed = [ (2, "two") ]);
  check bool "remove does not fire on_evict" false (List.mem_assoc 2 !evicted);
  check bool "remove absent" false (Flow_table.remove t 2);
  check int "released counted" 1 (Flow_table.stats t).Flow_table.removed

let test_table_idle_policy () =
  let t = Flow_table.create ~policy:(Flow_table.Idle (Time.ms 10)) ~capacity:2 () in
  ignore (Flow_table.admit t ~now:0 1 (fun () -> ()));
  ignore (Flow_table.admit t ~now:(Time.ms 1) 2 (fun () -> ()));
  (* full, nothing idle yet: denied *)
  check bool "fresh entries deny" true
    (Flow_table.admit t ~now:(Time.ms 2) 3 (fun () -> ()) = None);
  (* once the LRU entry has been idle 10 ms, admission may reclaim it *)
  check bool "idle entry reclaimed" true
    (Flow_table.admit t ~now:(Time.ms 11) 3 (fun () -> ()) <> None);
  check bool "idle victim gone" true (not (Flow_table.mem t 1));
  (* sweep evicts everything idle *)
  let n = Flow_table.sweep_idle t ~now:(Time.ms 30) in
  check int "sweep evicts both" 2 n;
  check int "empty after sweep" 0 (Flow_table.occupancy t)

(* Occupancy never exceeds the ceiling under an arbitrary operation
   mix (ISSUE satellite 4c). *)
let prop_occupancy_bounded =
  QCheck.Test.make ~count:200 ~name:"flow-table occupancy <= capacity"
    QCheck.(pair (int_bound 8) (small_list (pair (int_bound 30) (int_bound 3))))
    (fun (capacity, ops) ->
      let t = Flow_table.create ~capacity () in
      let now = ref 0 in
      List.iter
        (fun (key, op) ->
          now := !now + 1;
          (match op with
          | 0 -> ignore (Flow_table.admit t ~now:!now key (fun () -> key))
          | 1 -> ignore (Flow_table.find t ~now:!now key)
          | 2 -> ignore (Flow_table.remove t key)
          | _ -> ignore (Flow_table.sweep_idle t ~now:!now));
          if Flow_table.occupancy t > capacity then
            QCheck.Test.fail_reportf "occupancy %d > capacity %d"
              (Flow_table.occupancy t) capacity)
        ops;
      Flow_table.peak_occupancy t <= capacity)

(* LRU iteration order is most-recent first and eviction takes the tail. *)
let prop_lru_order =
  QCheck.Test.make ~count:200 ~name:"flow-table LRU eviction order"
    QCheck.(small_list (int_bound 5))
    (fun keys ->
      let t = Flow_table.create ~capacity:3 () in
      let now = ref 0 in
      let last_touch = Hashtbl.create 8 in
      List.iter
        (fun k ->
          now := !now + 1;
          ignore (Flow_table.admit t ~now:!now k (fun () -> k));
          Hashtbl.replace last_touch k !now)
        keys;
      (* the survivors must be exactly the 3 most recently touched keys *)
      let by_recency =
        Hashtbl.fold (fun k at acc -> (at, k) :: acc) last_touch []
        |> List.sort (fun (a, _) (b, _) -> compare b a)
      in
      let expected =
        List.filteri (fun i _ -> i < 3) by_recency |> List.map snd
      in
      let got = ref [] in
      Flow_table.iter t (fun k _ -> got := k :: !got);
      List.sort compare expected = List.sort compare !got)

(* ------------------------------------------------------------------ *)
(* Scenario: determinism, degradation, correctness under eviction      *)

let small_cfg =
  {
    Scenario.default_config with
    Scenario.flows = 24;
    table_flows = 6;
    max_units = 120;
    arrival_mean_s = 0.005;
    until = Time.s 60;
  }

let test_scenario_completes_under_eviction () =
  (* Table far below the flow count: flows are evicted and re-admitted
     continuously, and every one of them must still complete with no
     decode corruption — the graceful-degradation acceptance bar. *)
  let r = Scenario.run small_cfg in
  check int "all flows complete" (Array.length r.Scenario.flows)
    r.Scenario.completed;
  check bool "evictions actually happened" true (r.Scenario.evictions > 0);
  check bool "resyncs recovered re-admitted flows" true
    (r.Scenario.proxy.Proxy.resyncs > 0);
  check bool "peak occupancy bounded" true (r.Scenario.peak_occupancy <= 6);
  Array.iter
    (fun (fr : Scenario.flow_report) ->
      check bool "fct positive" true (fr.Scenario.fct_s > 0.))
    r.Scenario.flows

let test_scenario_pure_e2e_baseline () =
  (* capacity 0: the proxy tracks nothing; everything still completes *)
  let r = Scenario.run { small_cfg with Scenario.table_flows = 0 } in
  check int "all flows complete" (Array.length r.Scenario.flows)
    r.Scenario.completed;
  check int "nothing tracked" 0 r.Scenario.proxy.Proxy.data_packets;
  check bool "everything degraded" true
    (r.Scenario.proxy.Proxy.degraded_packets > 0);
  check int "peak occupancy 0" 0 r.Scenario.peak_occupancy

let test_scenario_no_completions () =
  (* A horizon too short for any flow: every FCT statistic is "no
     data" (nan, null in JSON), the mean included, rather than a fake
     0 s next to null quantiles. *)
  let r =
    Scenario.run { Scenario.default_config with Scenario.flows = 5; until = Time.ms 1 }
  in
  check int "nothing completed" 0 r.Scenario.completed;
  check bool "fct_mean is nan" true (Float.is_nan r.Scenario.fct_mean);
  check bool "fct_p50 is nan" true (Float.is_nan r.Scenario.fct_p50);
  match Obs.Json.of_string (Obs.Json.to_string (Scenario.json_report r)) with
  | Error e -> Alcotest.fail e
  | Ok json ->
      List.iter
        (fun field ->
          check bool (field ^ " is null in JSON") true
            (Obs.Json.member field json = Some Obs.Json.Null))
        [ "fct_p50_s"; "fct_p95_s"; "fct_p99_s"; "fct_mean_s" ]

let test_scenario_deterministic () =
  (* Same seed, 200 flows: structurally identical reports (ISSUE
     acceptance criterion). [compare] handles the nan fields. *)
  let cfg =
    {
      Scenario.default_config with
      Scenario.flows = 200;
      table_flows = 48;
      max_units = 60;
      arrival_mean_s = 0.002;
      until = Time.s 60;
    }
  in
  let r1 = Scenario.run cfg in
  let r2 = Scenario.run cfg in
  check bool "identical reports" true (compare r1 r2 = 0);
  check bool "identical per-flow stats" true
    (compare r1.Scenario.flows r2.Scenario.flows = 0);
  let r3 = Scenario.run { cfg with Scenario.seed = 2 } in
  check bool "different seed differs" true
    (compare r1.Scenario.flows r3.Scenario.flows <> 0)

let test_scenario_field_differential () =
  (* Same residues through the log-table multiply: byte-identical
     reports at a table-friendly width. *)
  let cfg =
    {
      Scenario.default_config with
      Scenario.flows = 40;
      table_flows = 16;
      bits = 16;
      max_units = 40;
      arrival_mean_s = 0.002;
      until = Time.s 60;
    }
  in
  let json field =
    Obs.Json.to_string
      (Scenario.json_report (Scenario.run { cfg with Scenario.field = field }))
  in
  check Alcotest.string "modular and log reports are byte-identical" (json `Modular)
    (json `Log)

(* Admit/Deny/Evict/Release tallies per table label, labels sorted. *)
let table_event_counts tr =
  let tag = function
    | Obs.Trace.Admit { table; _ } -> (table, 0)
    | Obs.Trace.Deny { table; _ } -> (table, 1)
    | Obs.Trace.Evict { table; _ } -> (table, 2)
    | Obs.Trace.Release { table; _ } -> (table, 3)
    | ev -> Alcotest.failf "non-table event %a" Obs.Trace.pp_event ev
  in
  let tagged = List.map (fun (_, ev) -> tag ev) (Obs.Trace.events tr) in
  let labels = List.sort_uniq String.compare (List.map fst tagged) in
  List.map
    (fun l ->
      (l, List.init 4 (fun k -> List.length (List.filter (( = ) (l, k)) tagged))))
    labels

let test_proxy_table_trace () =
  (* Each table decision a proxy makes is also a trace event: per table
     label, the Admit/Deny/Evict/Release counts equal the table's own
     admitted/denied/evicted/removed statistics. *)
  let row (s : Flow_table.stats) =
    [
      s.Flow_table.admitted;
      s.Flow_table.denied;
      s.Flow_table.evicted_lru + s.Flow_table.evicted_idle;
      s.Flow_table.removed;
    ]
  in
  let saved = Obs.Sink.default_trace_categories () in
  Obs.Sink.set_default_trace_categories [ Obs.Trace.Table ];
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set_default_trace_categories saved)
    (fun () ->
      List.iter
        (fun (label, protocol, policy) ->
          let r =
            Scenario.run
              {
                Scenario.default_config with
                Scenario.protocol;
                flows = 40;
                table_flows = 4;
                policy;
              }
          in
          let tr =
            match Obs.Sink.last () with
            | Some sink -> Obs.Sink.trace sink
            | None -> Alcotest.fail "no sink"
          in
          check int (label ^ ": no event dropped") 0 (Obs.Trace.dropped tr);
          let expected =
            match r.Scenario.table2 with
            | None -> [ ("proxy.proxy", row r.Scenario.table) ]
            | Some t2 ->
                [ ("proxy.proxyA", row r.Scenario.table); ("proxy.proxyB", row t2) ]
          in
          check
            Alcotest.(list (pair string (list int)))
            (label ^ ": admit/deny/evict/release per table")
            expected (table_event_counts tr))
        [
          ("cc/lru", `Cc, Flow_table.Lru);
          ("cc/idle", `Cc, Flow_table.Idle (Time.ms 100));
          ("retx/idle", `Retx, Flow_table.Idle (Time.ms 100));
        ])

let test_wire_datapath_checksums () =
  (* The mechanism-level driver: both per-packet paths fold every
     emitted quACK into a checksum; equality means the zero-copy path
     did exactly the reference's sketch work — including across
     eviction churn (table smaller than the flow count). *)
  let module Wd = Sidecar_runtime.Wire_datapath in
  List.iter
    (fun (flows, table_flows) ->
      let cfg = { Wd.default_config with Wd.flows; table_flows } in
      let run dp =
        let t = Wd.create ~datapath:dp cfg in
        Wd.drive t ~packets:60_000;
        Wd.stats t
      in
      let r = run `Ref and f = run `Flat in
      check bool
        (Printf.sprintf "checksums agree (%d flows / %d slots)" flows
           table_flows)
        true
        (r.Wd.checksum = f.Wd.checksum
        && r.Wd.quacks = f.Wd.quacks
        && r.Wd.admitted = f.Wd.admitted
        && r.Wd.evicted = f.Wd.evicted
        && r.Wd.hits = f.Wd.hits
        && r.Wd.misses = f.Wd.misses))
    [ (20, 20); (50, 16); (7, 3) ]

let test_scenario_idle_policy_runs () =
  let r =
    Scenario.run
      {
        small_cfg with
        Scenario.policy = Flow_table.Idle (Time.ms 50);
        flows = 12;
        table_flows = 4;
      }
  in
  check int "all flows complete" (Array.length r.Scenario.flows)
    r.Scenario.completed

let test_scenario_adaptive_frequency () =
  (* with adaptation on and long flows, servers retune the proxy's
     upstream cadence at least once *)
  let r =
    Scenario.run
      {
        small_cfg with
        Scenario.flows = 4;
        table_flows = 8;
        min_units = 400;
        max_units = 400;
        adaptive = true;
      }
  in
  check bool "freq updates sent" true (r.Scenario.freq_updates_sent > 0);
  check bool "freq updates applied" true
    (r.Scenario.proxy.Proxy.freq_updates > 0)

(* ------------------------------------------------------------------ *)
(* Scenario under the other protocols: the same bounded-table runtime
   drives ACK reduction and the retransmission pair.                   *)

let test_scenario_ack_deterministic () =
  (* 200 flows under ACK reduction: completes, deterministic, and the
     eviction → fresh proxy state → §3.3 server resync loop is
     actually exercised (the acceptance criterion for `Ack). *)
  let cfg =
    {
      Scenario.default_config with
      Scenario.protocol = `Ack;
      flows = 200;
      table_flows = 24;
      max_units = 120;
      arrival_mean_s = 0.01;
      until = Time.s 120;
    }
  in
  let r1 = Scenario.run cfg in
  let r2 = Scenario.run cfg in
  check bool "identical reports" true (compare r1 r2 = 0);
  check int "all flows complete" (Array.length r1.Scenario.flows)
    r1.Scenario.completed;
  check bool "evictions happened" true (r1.Scenario.evictions > 0);
  check bool "proxy quacked upstream" true
    (r1.Scenario.proxy.Proxy.quacks_tx > 0);
  check bool "re-admission resynced at servers" true
    (r1.Scenario.srv_resyncs > 0);
  check bool "no second proxy" true (r1.Scenario.proxy2 = None)

let test_scenario_retx_deterministic () =
  (* 200 flows under the bracketing retransmission pair: completes,
     deterministic, the near proxy locally resends, and eviction of
     near state forces §3.3 resyncs when the far proxy's cumulative
     quACKs meet a fresh copy of the power sums. *)
  let cfg =
    {
      Scenario.default_config with
      Scenario.protocol = `Retx;
      flows = 200;
      table_flows = 12;
      max_units = 120;
      arrival_mean_s = 0.01;
      until = Time.s 120;
    }
  in
  let r1 = Scenario.run cfg in
  let r2 = Scenario.run cfg in
  check bool "identical reports" true (compare r1 r2 = 0);
  check int "all flows complete" (Array.length r1.Scenario.flows)
    r1.Scenario.completed;
  check bool "evictions happened" true (r1.Scenario.evictions > 0);
  check bool "far proxy exists" true (r1.Scenario.proxy2 <> None);
  (match r1.Scenario.proxy2 with
  | Some far -> check bool "far proxy quacked" true (far.Proxy.quacks_tx > 0)
  | None -> ());
  check bool "near proxy locally resent" true
    (r1.Scenario.proxy_retransmissions > 0);
  check bool "re-admission resynced at near proxy" true
    (r1.Scenario.proxy.Proxy.resyncs > 0);
  check int "no server-side sidecars" 0 r1.Scenario.srv_resyncs

let test_scenario_ack_thins_acks () =
  (* With in-network quACKs feeding the server, thinned client ACKs
     must not stall anything: all complete, and a capacity-0 run (no
     quACKs at all, but also no thinning harm) still completes. *)
  let cfg = { small_cfg with Scenario.protocol = `Ack } in
  let r = Scenario.run cfg in
  check int "all flows complete" (Array.length r.Scenario.flows)
    r.Scenario.completed;
  let r0 = Scenario.run { cfg with Scenario.table_flows = 0 } in
  check int "degraded still completes" (Array.length r0.Scenario.flows)
    r0.Scenario.completed;
  check int "nothing tracked" 0 r0.Scenario.proxy.Proxy.data_packets

let test_scenario_retx_degrades_gracefully () =
  let cfg = { small_cfg with Scenario.protocol = `Retx } in
  let r0 = Scenario.run { cfg with Scenario.table_flows = 0 } in
  check int "pure e2e over lossy middle completes"
    (Array.length r0.Scenario.flows)
    r0.Scenario.completed;
  check int "no local resends without state" 0
    r0.Scenario.proxy_retransmissions

(* Eviction/re-admission under many random table sizes never corrupts
   delivery (ISSUE satellite 4a as a property). *)
let prop_eviction_never_corrupts =
  QCheck.Test.make ~count:6 ~name:"eviction/re-admission keeps flows correct"
    QCheck.(pair (1 -- 8) (1 -- 4))
    (fun (table_flows, seed) ->
      let r =
        Scenario.run
          {
            small_cfg with
            Scenario.flows = 12;
            table_flows;
            seed;
            max_units = 80;
          }
      in
      r.Scenario.completed = 12
      && r.Scenario.peak_occupancy <= table_flows)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sidecar_runtime"
    [
      ( "flow-table",
        [
          Alcotest.test_case "basic admit/find/evict" `Quick test_table_basic;
          Alcotest.test_case "capacity zero" `Quick test_table_capacity_zero;
          Alcotest.test_case "evict callback + remove" `Quick
            test_table_evict_callback;
          Alcotest.test_case "idle policy" `Quick test_table_idle_policy;
          qt prop_occupancy_bounded;
          qt prop_lru_order;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "completes under eviction" `Slow
            test_scenario_completes_under_eviction;
          Alcotest.test_case "no completions: null FCT stats" `Quick
            test_scenario_no_completions;
          Alcotest.test_case "capacity-0 pure e2e" `Slow
            test_scenario_pure_e2e_baseline;
          Alcotest.test_case "deterministic at 200 flows" `Slow
            test_scenario_deterministic;
          Alcotest.test_case "idle policy runs" `Slow
            test_scenario_idle_policy_runs;
          Alcotest.test_case "adaptive frequency" `Slow
            test_scenario_adaptive_frequency;
          Alcotest.test_case "field differential (modular = log)" `Slow
            test_scenario_field_differential;
          Alcotest.test_case "table trace events = table stats" `Slow
            test_proxy_table_trace;
          Alcotest.test_case "wire datapath checksums" `Quick
            test_wire_datapath_checksums;
          qt prop_eviction_never_corrupts;
        ] );
      ( "scenario-protocols",
        [
          Alcotest.test_case "ack: deterministic at 200 flows" `Slow
            test_scenario_ack_deterministic;
          Alcotest.test_case "retx: deterministic at 200 flows" `Slow
            test_scenario_retx_deterministic;
          Alcotest.test_case "ack: thinned ACKs still complete" `Slow
            test_scenario_ack_thins_acks;
          Alcotest.test_case "retx: degrades to e2e" `Slow
            test_scenario_retx_degrades_gracefully;
        ] );
    ]
