(* sidecar-sim: command-line driver for the sidecar protocol
   simulations.

   Subcommands:
     quack          one quACK encode/decode round trip with chosen params
     cc-division    §2.1 scenario (with --baseline for the no-sidecar run)
     ack-reduction  §2.2 scenario
     retransmission §2.3 scenario

   Example:
     dune exec bin/sidecar_sim.exe -- cc-division --units 5000 --far-loss 0.02 *)

open Cmdliner
open Sidecar_protocols
module Time = Netsim.Sim_time
module Q = Sidecar_quack

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)

let units =
  Arg.(value & opt int 2000 & info [ "units" ] ~docv:"N" ~doc:"Application units to transfer.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Simulation seed.")

let baseline_flag =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Run the no-sidecar baseline instead.")

let mbps =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok (int_of_float (f *. 1e6))
    | _ -> Error (`Msg "expected a positive rate in Mbit/s")
  in
  let print ppf v = Format.fprintf ppf "%g" (float_of_int v /. 1e6) in
  Arg.conv (parse, print)

let msarg =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0. -> Ok (Time.of_float_s (f /. 1e3))
    | _ -> Error (`Msg "expected a delay in ms")
  in
  let print ppf v = Format.fprintf ppf "%g" (Time.to_float_ms v) in
  Arg.conv (parse, print)

let rate ~name ~default doc =
  Arg.(value & opt mbps default & info [ name ] ~docv:"MBPS" ~doc)

let delay ~name ~default doc =
  Arg.(value & opt msarg default & info [ name ] ~docv:"MS" ~doc)

let loss ~name ~default doc =
  Arg.(value & opt float default & info [ name ] ~docv:"P" ~doc)

(* Replicated subcommands (runtime --replications, fairness --trials)
   fan their independent runs over an [Exec] pool. Replication i's
   seed comes from [Netsim.Rng.derive base ~index:i] (replication 0
   keeps the base seed, so a single run is unchanged), which depends
   only on position — the output is identical for any --jobs value. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for replicated runs (default: $(b,SIDECAR_JOBS) \
           or the machine's core count). Output is identical for any value.")

let check_jobs = function
  | Some n when n < 1 ->
      Format.eprintf "--jobs must be at least 1@.";
      exit 2
  | j -> j

let replication_seeds ~base n =
  List.init n (fun i -> if i = 0 then base else Netsim.Rng.derive base ~index:i)

(* Machine-readable output and the flight recorder, shared by the
   scenario subcommands. [--json FILE] writes the run's report as
   JSON; [--trace CATS] enables trace categories process-wide before
   the engine is built (tracing provably never changes results — the
   golden suite pins that) and dumps the recorded ring afterwards. *)

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"CATS"
           ~doc:"Enable trace categories (comma-separated from link, quack, \
                 proto, table; or $(b,all)) and dump recorded events after \
                 the run.")

let set_trace = function
  | None -> false
  | Some "all" ->
      Obs.Sink.set_default_trace_categories Obs.Trace.all_categories;
      true
  | Some spec ->
      let cats =
        List.map
          (fun s ->
            match Obs.Trace.category_of_string (String.trim s) with
            | Some c -> c
            | None ->
                Format.eprintf "unknown trace category %S (expected link, \
                                quack, proto, table or all)@." s;
                exit 2)
          (String.split_on_char ',' spec)
      in
      Obs.Sink.set_default_trace_categories cats;
      true

(* Write [--json], dump [--trace]; call after the run. *)
let finish ~traced json_file report_json =
  (match json_file with
  | None -> ()
  | Some file ->
      Obs.Json.to_file file report_json;
      Format.printf "(wrote %s)@." file);
  if traced then
    match Obs.Sink.last () with
    | Some sink -> Format.printf "%a" Obs.Trace.dump (Obs.Sink.trace sink)
    | None -> ()

(* ------------------------------------------------------------------ *)
(* quack: a single encode/decode round trip                            *)

let quack_cmd =
  let run n t b drops =
    let key = Q.Identifier.key_of_int 7 in
    let ids = List.init n (fun i -> Q.Identifier.of_counter key ~bits:b i) in
    let rx = Q.Receiver_state.create ~bits:b ~threshold:t () in
    List.iteri
      (fun i id -> if not (List.mem i drops) then ignore (Q.Receiver_state.on_receive rx id))
      ids;
    let q = Q.Receiver_state.emit rx in
    Format.printf "quACK: b=%d t=%d -> %d bytes on the wire@." b t
      (String.length (Q.Wire.encode_packed q));
    let sent = Q.Psum.create ~bits:b ~threshold:t () in
    Q.Psum.insert_list sent ids;
    match Q.Decoder.decode_between ~sent ~quack:q ~candidates:ids () with
    | Ok { Q.Decoder.missing; unresolved } ->
        Format.printf "decoded %d missing (%d unresolved):@." (List.length missing)
          unresolved;
        List.iter (fun id -> Format.printf "  %#010x@." id) missing;
        if missing = [] then Format.printf "  (none)@."
    | Error e -> Format.printf "decode failed: %a@." Q.Decoder.pp_error e
  in
  let n = Arg.(value & opt int 1000 & info [ "n"; "count" ] ~doc:"Packets sent.") in
  let t = Arg.(value & opt int 20 & info [ "t"; "threshold" ] ~doc:"Threshold (power sums).") in
  let b = Arg.(value & opt int 32 & info [ "b"; "bits" ] ~doc:"Identifier bits (8/16/24/32).") in
  let drops =
    Arg.(value & opt (list int) [ 17; 202; 777 ]
         & info [ "drop" ] ~docv:"I,J,..." ~doc:"Indices of dropped packets.")
  in
  Cmd.v
    (Cmd.info "quack" ~doc:"One quACK construction/decoding round trip.")
    Term.(const run $ n $ t $ b $ drops)

(* ------------------------------------------------------------------ *)
(* cc-division                                                         *)

let cc_cmd =
  let run units seed baseline near_rate near_delay far_rate far_delay far_loss
      json trace =
    let traced = set_trace trace in
    let cfg =
      {
        Cc_division.default_config with
        units;
        seed;
        near = Path.segment ~rate_bps:near_rate ~delay:near_delay ();
        far =
          Path.segment ~rate_bps:far_rate ~delay:far_delay
            ~loss:(if far_loss > 0. then Path.Bernoulli far_loss else Path.No_loss)
            ();
      }
    in
    if baseline then begin
      let r = Cc_division.baseline cfg in
      Format.printf "%a@." Transport.Flow.pp_result r;
      finish ~traced json (Transport.Flow.json_result r)
    end
    else begin
      let rep = Cc_division.run cfg in
      Format.printf "%a@." Cc_division.pp_report rep;
      finish ~traced json (Cc_division.json_report rep)
    end
  in
  Cmd.v
    (Cmd.info "cc-division" ~doc:"Congestion-control division (paper sec 2.1).")
    Term.(
      const run $ units $ seed $ baseline_flag
      $ rate ~name:"near-rate" ~default:100_000_000 "Server-proxy rate (Mbit/s)."
      $ delay ~name:"near-delay" ~default:(Time.ms 28) "Server-proxy one-way delay (ms)."
      $ rate ~name:"far-rate" ~default:20_000_000 "Proxy-client rate (Mbit/s)."
      $ delay ~name:"far-delay" ~default:(Time.ms 2) "Proxy-client one-way delay (ms)."
      $ loss ~name:"far-loss" ~default:0.01 "Proxy-client loss probability."
      $ json_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* ack-reduction                                                       *)

let ar_cmd =
  let run units seed baseline quack_every client_ack_every json trace =
    let traced = set_trace trace in
    let cfg =
      { Ack_reduction.default_config with units; seed; quack_every; client_ack_every }
    in
    if baseline then begin
      let r, bytes = Ack_reduction.baseline cfg in
      Format.printf "%a@.client ack bytes: %d@." Transport.Flow.pp_result r bytes;
      finish ~traced json (Transport.Flow.json_result r)
    end
    else begin
      let rep = Ack_reduction.run cfg in
      Format.printf "%a@." Ack_reduction.pp_report rep;
      finish ~traced json (Ack_reduction.json_report rep)
    end
  in
  let quack_every =
    Arg.(value & opt int 32 & info [ "quack-every" ] ~doc:"Proxy quACK interval (packets).")
  in
  let client_ack =
    Arg.(value & opt int 32 & info [ "client-ack-every" ] ~doc:"Client e2e ACK interval.")
  in
  Cmd.v
    (Cmd.info "ack-reduction" ~doc:"ACK reduction (paper sec 2.2).")
    Term.(const run $ units $ seed $ baseline_flag $ quack_every $ client_ack
          $ json_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* retransmission                                                      *)

let rx_cmd =
  let run units seed baseline quack_every adaptive avg_loss json trace =
    let traced = set_trace trace in
    let middle_loss =
      if avg_loss <= 0. then Path.No_loss
      else
        (* bursty loss with the requested average: pi_bad * 0.3 = avg *)
        let p_bg = 0.2 in
        let pi_bad = avg_loss /. 0.3 in
        let p_gb = pi_bad *. p_bg /. (1. -. pi_bad) in
        Path.Gilbert { p_good_to_bad = p_gb; p_bad_to_good = p_bg; loss_bad = 0.3 }
    in
    let cfg =
      {
        Retransmission.default_config with
        units;
        seed;
        initial_quack_every = quack_every;
        adaptive;
        middle =
          {
            Retransmission.default_config.Retransmission.middle with
            Path.loss = middle_loss;
          };
      }
    in
    if baseline then begin
      let r = Retransmission.baseline cfg in
      Format.printf "%a@." Transport.Flow.pp_result r;
      finish ~traced json (Transport.Flow.json_result r)
    end
    else begin
      let rep = Retransmission.run cfg in
      Format.printf "%a@." Retransmission.pp_report rep;
      finish ~traced json (Retransmission.json_report rep)
    end
  in
  let quack_every =
    Arg.(value & opt int 8 & info [ "quack-every" ] ~doc:"Initial quACK interval (packets).")
  in
  let adaptive =
    Arg.(value & opt bool true & info [ "adaptive" ] ~doc:"Adapt the quACK frequency to loss.")
  in
  let avg_loss =
    Arg.(value & opt float 0.0143
         & info [ "subpath-loss" ] ~doc:"Average Gilbert-Elliott loss on the middle hop.")
  in
  Cmd.v
    (Cmd.info "retransmission" ~doc:"In-network retransmission (paper sec 2.3).")
    Term.(const run $ units $ seed $ baseline_flag $ quack_every $ adaptive
          $ avg_loss $ json_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* fairness                                                            *)

let fairness_cmd =
  let run units seed baseline far_loss trials jobs =
    let jobs = check_jobs jobs in
    if trials < 1 then begin
      Format.eprintf "--trials must be at least 1@.";
      exit 2
    end;
    let cfg trial_seed =
      {
        Fairness.default_config with
        Fairness.units_per_flow = units;
        seed = trial_seed;
        far =
          Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
            ~loss:(if far_loss > 0. then Path.Bernoulli far_loss else Path.No_loss)
            ();
      }
    in
    let go s =
      if baseline then Fairness.baseline (cfg s) else Fairness.run (cfg s)
    in
    if trials = 1 then Format.printf "%a@." Fairness.pp_report (go seed)
    else begin
      let seeds = replication_seeds ~base:seed trials in
      let reports = Exec.map ?jobs ~f:(fun _ctx s -> go s) seeds in
      List.iteri
        (fun i (s, rep) ->
          Format.printf "--- trial %d (seed %d) ---@.%a@." i s
            Fairness.pp_report rep)
        (List.combine seeds reports);
      let mean f =
        List.fold_left (fun acc r -> acc +. f r) 0. reports
        /. float_of_int trials
      in
      Format.printf "mean over %d trials: jain %.3f, aggregate %.2f Mbit/s@."
        trials
        (mean (fun r -> r.Fairness.jain_index))
        (mean (fun r -> r.Fairness.total_goodput_mbps))
    end
  in
  let units =
    Arg.(value & opt int 1500 & info [ "units" ] ~doc:"Units per flow.")
  in
  let trials =
    Arg.(value & opt int 1
         & info [ "trials" ] ~docv:"N"
             ~doc:"Independent trials with derived seeds (run via --jobs).")
  in
  Cmd.v
    (Cmd.info "fairness" ~doc:"Two flows sharing the far segment (Jain index).")
    Term.(const run $ units $ seed $ baseline_flag
          $ loss ~name:"far-loss" ~default:0.005 "Shared-segment loss probability."
          $ trials $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* runtime: many flows through one bounded-table proxy                  *)

(* runtime runs one of three modes: the event-driven scenario, the
   sharded runtime (--shards) or a scenario family (--scenario). A
   flag the chosen mode never reads is a usage error, not a silent
   no-op: [reject_unread mode flags] exits 2 naming the first flag of
   [flags] that was set. *)
let reject_unread mode flags =
  match List.find_opt snd flags with
  | Some (flag, _) ->
      Format.eprintf "--%s is not read in %s mode@." flag mode;
      exit 2
  | None -> ()

let parse_field = function
  | "modular" -> `Modular
  | "log" -> `Log
  | s ->
      Format.eprintf "unknown field backend %S (expected modular|log)@." s;
      exit 2

(* runtime --shards N: the always-on sharded runtime instead of the
   event-driven scenario. Under BENCH_DETERMINISTIC=1 the JSON report
   omits the shard count — the CI invariance step [cmp]s the files
   from --shards 1 and --shards 4 byte for byte. *)
let run_sharded ~shards ~partitions ~flows ~table ~eviction ~idle_epochs
    ~arrivals ~quack_every ~field ~bits ~seed ~json =
  let module Sr = Sidecar_runtime.Shard_runtime in
  let d = Sr.default_config in
  let policy =
    match Option.value eviction ~default:"idle" with
    | "lru" -> Sr.Lru
    | "idle" -> Sr.Idle_epochs idle_epochs
    | s ->
        Format.eprintf "unknown eviction policy %S (expected lru|idle)@." s;
        exit 2
  in
  let cfg =
    {
      d with
      Sr.shards;
      partitions;
      capacity = Option.value table ~default:d.Sr.capacity;
      policy;
      field = parse_field field;
      bits = Option.value bits ~default:d.Sr.bits;
      flows = Option.value flows ~default:d.Sr.flows;
      arrivals_per_epoch = Option.value arrivals ~default:d.Sr.arrivals_per_epoch;
      quack_every;
      seed;
    }
  in
  let r = Sr.run cfg in
  Format.printf "%a@." Sr.pp_report r;
  (* bench/main.ml's rule: any value but unset, "" and "0" is on *)
  let deterministic =
    match Sys.getenv_opt "BENCH_DETERMINISTIC" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  finish ~traced:false json (Sr.json_report ~deterministic r)

(* runtime --scenario handover|multipath: the §5 mobility and
   multipath families. Each runs a fixed list of arms (handover:
   no-migration baseline vs. Resync vs. Transfer; multipath: split
   vs. single-path) fanned over an [Exec] pool whose width comes from
   --jobs or --shards — arms are merged in submission order, so the
   report is byte-identical for any pool width. *)
let run_scenario_family ~family ~flows ~table ~seed ~json ~pool_jobs
    ~migrate_after ~ctrl_delay ~crowd ~split ~quack_every ~attack_rate =
  let module H = Sidecar_runtime.Handover in
  let module M = Sidecar_runtime.Multipath in
  let module A = Sidecar_runtime.Adversary in
  let module L = Sidecar_runtime.Leakage in
  let with_crowd arrival =
    match (crowd, arrival) with
    | Some c, Netsim.Workload.Flash_crowd { base_mean_s; at_s; crowd = _; spread_s }
      ->
        Netsim.Workload.Flash_crowd { base_mean_s; at_s; crowd = c; spread_s }
    | Some c, Netsim.Workload.Poisson _ ->
        Netsim.Workload.Flash_crowd
          { base_mean_s = 0.05; at_s = 0.4; crowd = c; spread_s = 0.05 }
    | None, a -> a
  in
  let arms_json name arms =
    Obs.Json.Obj [ ("scenario", Obs.Json.String name); ("arms", Obs.Json.Obj arms) ]
  in
  match family with
  | "handover" ->
      let d = H.default_config in
      let base =
        {
          d with
          H.flows = Option.value flows ~default:d.H.flows;
          table_flows = Option.value table ~default:d.H.table_flows;
          arrival = with_crowd d.H.arrival;
          migrate_after =
            Option.value migrate_after ~default:d.H.migrate_after;
          ctrl_delay = Option.value ctrl_delay ~default:d.H.ctrl_delay;
          quack_every = Option.value quack_every ~default:d.H.quack_every;
          seed;
        }
      in
      let arms =
        [
          ("baseline", { base with H.migrate = false });
          ("resync", { base with H.strategy = H.Resync });
          ("transfer", { base with H.strategy = H.Transfer });
        ]
      in
      let reports =
        Exec.map ?jobs:pool_jobs ~f:(fun _ctx (_, c) -> H.run c) arms
      in
      List.iter (fun r -> Format.printf "%a@." H.pp_report r) reports;
      finish ~traced:false json
        (arms_json "handover"
           (List.map2
              (fun (name, _) r -> (name, H.json_report r))
              arms reports))
  | "multipath" ->
      let d = M.default_config in
      let base =
        {
          d with
          M.flows = Option.value flows ~default:d.M.flows;
          table_flows = Option.value table ~default:d.M.table_flows;
          arrival = with_crowd d.M.arrival;
          split = Option.value split ~default:d.M.split;
          quack_every = Option.value quack_every ~default:d.M.quack_every;
          seed;
        }
      in
      let arms =
        [ ("split", base); ("single_path", { base with M.split = (1, 0) }) ]
      in
      let reports =
        Exec.map ?jobs:pool_jobs ~f:(fun _ctx (_, c) -> M.run c) arms
      in
      List.iter (fun r -> Format.printf "%a@." M.pp_report r) reports;
      finish ~traced:false json
        (arms_json "multipath"
           (List.map2
              (fun (name, _) r -> (name, M.json_report r))
              arms reports))
  | "adversary" ->
      let d = A.default_config in
      let rate = Option.value attack_rate ~default:d.A.attack_rate in
      if not (rate >= 0. && rate <= 1.) then begin
        Format.eprintf "--attack-rate must be in [0, 1]@.";
        exit 2
      end;
      let base =
        {
          d with
          A.flows = Option.value flows ~default:d.A.flows;
          table_flows = Option.value table ~default:d.A.table_flows;
          arrival = with_crowd d.A.arrival;
          quack_every = Option.value quack_every ~default:d.A.quack_every;
          seed;
        }
      in
      (* damage curve (unauth at 0, r/2, r) plus the defence at r *)
      let arms =
        [
          ("unauth_rate0", { base with A.auth = false; attack_rate = 0. });
          ( "unauth_rate_half",
            { base with A.auth = false; attack_rate = rate /. 2. } );
          ("unauth", { base with A.auth = false; attack_rate = rate });
          ("auth", { base with A.auth = true; attack_rate = rate });
        ]
      in
      let reports =
        Exec.map ?jobs:pool_jobs ~f:(fun _ctx (_, c) -> A.run c) arms
      in
      List.iter (fun r -> Format.printf "%a@." A.pp_report r) reports;
      finish ~traced:false json
        (arms_json "adversary"
           (List.map2
              (fun (name, _) r -> (name, A.json_report r))
              arms reports))
  | "leakage" ->
      let d = L.default_config in
      let base =
        {
          d with
          L.flows = Option.value flows ~default:d.L.flows;
          table_flows = Option.value table ~default:d.L.table_flows;
          arrival = with_crowd d.L.arrival;
          quack_every = Option.value quack_every ~default:d.L.quack_every;
          seed;
        }
      in
      let arms =
        [
          ("unshaped", { base with L.shape = false });
          ("shaped", { base with L.shape = true });
        ]
      in
      let reports =
        Exec.map ?jobs:pool_jobs ~f:(fun _ctx (_, c) -> L.run c) arms
      in
      List.iter (fun r -> Format.printf "%a@." L.pp_report r) reports;
      finish ~traced:false json
        (arms_json "leakage"
           (List.map2
              (fun (name, _) r -> (name, L.json_report r))
              arms reports))
  | s ->
      Format.eprintf
        "unknown scenario %S (expected handover|multipath|adversary|leakage)@."
        s;
      exit 2

let runtime_cmd =
  let run protocol flows table eviction idle_ms seed far_loss per_flow
      field bits json trace replications jobs shards partitions
      arrivals idle_epochs quack_every scenario migrate_after ctrl_delay crowd
      split attack_rate =
    (* An inconsistent configuration (no flows, a shard without a
       partition, a field too wide for its tables, ...) is a usage error
       like a bad flag: print the library's message and exit 2. *)
    let event_only =
      [
        ("trace", trace <> None);
        ("per-flow", per_flow);
        ("replications", replications <> None);
      ]
    and shards_only =
      [
        ("partitions", partitions <> None);
        ("arrivals", arrivals <> None);
        ("idle-epochs", idle_epochs <> None);
      ]
    and scenario_only =
      [
        ("migrate-after", migrate_after <> None);
        ("ctrl-delay", ctrl_delay <> None);
        ("crowd", crowd <> None);
        ("split", split <> None);
        ("attack-rate", attack_rate <> None);
      ]
    in
    try
      match scenario with
      | Some family ->
          reject_unread "--scenario" (event_only @ shards_only);
          let pool_jobs =
            match shards with Some n -> check_jobs (Some n) | None -> check_jobs jobs
          in
          let split =
            match split with
            | None -> None
            | Some s -> (
                match String.split_on_char ':' s with
                | [ a; b ] -> (
                    match (int_of_string_opt a, int_of_string_opt b) with
                    | Some a, Some b when a >= 0 && b >= 0 && a + b > 0 ->
                        Some (a, b)
                    | _ ->
                        Format.eprintf "bad --split %S (expected A:B)@." s;
                        exit 2)
                | _ ->
                    Format.eprintf "bad --split %S (expected A:B)@." s;
                    exit 2)
          in
          run_scenario_family ~family ~flows ~table ~seed ~json ~pool_jobs
            ~migrate_after ~ctrl_delay ~crowd ~split ~quack_every ~attack_rate
      | None ->
      match shards with
      | Some shards ->
          reject_unread "--shards" (event_only @ scenario_only);
          run_sharded ~shards
            ~partitions:(Option.value partitions ~default:16)
            ~flows ~table ~eviction
            ~idle_epochs:(Option.value idle_epochs ~default:4)
            ~arrivals
            ~quack_every:(Option.value quack_every ~default:16)
            ~field ~bits ~seed ~json
      | None ->
      reject_unread "event-driven"
        (shards_only @ scenario_only @ [ ("quack-every", quack_every <> None) ]);
      let jobs = check_jobs jobs in
      let replications = Option.value replications ~default:1 in
      if replications < 1 then begin
        Format.eprintf "--replications must be at least 1@.";
        exit 2
      end;
      let traced = set_trace trace in
      let policy =
        match Option.value eviction ~default:"lru" with
        | "lru" -> Sidecar_runtime.Flow_table.Lru
        | "idle" -> Sidecar_runtime.Flow_table.Idle idle_ms
        | s ->
            Format.eprintf "unknown eviction policy %S (expected lru|idle)@." s;
            exit 2
      in
      let protocol =
        match protocol with
        | "cc" -> `Cc
        | "ack" -> `Ack
        | "retx" -> `Retx
        | s ->
            Format.eprintf "unknown protocol %S (expected cc|ack|retx)@." s;
            exit 2
      in
      let flows = Option.value flows ~default:200 in
      let table = Option.value table ~default:64 in
      let field = parse_field field in
      let bits =
        match bits with
        | Some b -> b
        | None -> Sidecar_runtime.Scenario.default_config.Sidecar_runtime.Scenario.bits
      in
      let cfg run_seed =
        {
          Sidecar_runtime.Scenario.default_config with
          Sidecar_runtime.Scenario.protocol;
          flows;
          table_flows = table;
          policy;
          field;
          bits;
          seed = run_seed;
          far =
            Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
              ~loss:(if far_loss > 0. then Path.Bernoulli far_loss else Path.No_loss)
              ();
        }
      in
      let print_report r =
        Format.printf "%a@." Sidecar_runtime.Scenario.pp_report r;
        if per_flow then
          Array.iter
            (fun (fr : Sidecar_runtime.Scenario.flow_report) ->
              Format.printf
                "flow %3d: %4d units, start %a, %s, tx %d retx %d pto %d@."
                fr.Sidecar_runtime.Scenario.flow fr.Sidecar_runtime.Scenario.units
                Time.pp fr.Sidecar_runtime.Scenario.started_at
                (if fr.Sidecar_runtime.Scenario.completed then
                   Printf.sprintf "fct %.3fs" fr.Sidecar_runtime.Scenario.fct_s
                 else "INCOMPLETE")
                fr.Sidecar_runtime.Scenario.transmissions
                fr.Sidecar_runtime.Scenario.retransmissions
                fr.Sidecar_runtime.Scenario.timeouts)
            r.Sidecar_runtime.Scenario.flows
      in
      if replications = 1 then begin
        let r = Sidecar_runtime.Scenario.run (cfg seed) in
        print_report r;
        finish ~traced json (Sidecar_runtime.Scenario.json_report r)
      end
      else begin
        let seeds = replication_seeds ~base:seed replications in
        let reports =
          Exec.map ?jobs
            ~f:(fun _ctx s -> Sidecar_runtime.Scenario.run (cfg s))
            seeds
        in
        List.iteri
          (fun i (s, r) ->
            Format.printf "--- replication %d (seed %d) ---@." i s;
            print_report r)
          (List.combine seeds reports);
        let n = float_of_int replications in
        let mean f =
          List.fold_left
            (fun acc (r : Sidecar_runtime.Scenario.report) -> acc +. f r)
            0. reports
          /. n
        in
        Format.printf
          "mean over %d replications: fct p50 %.3fs p95 %.3fs p99 %.3fs@."
          replications
          (mean (fun r -> r.Sidecar_runtime.Scenario.fct_p50))
          (mean (fun r -> r.Sidecar_runtime.Scenario.fct_p95))
          (mean (fun r -> r.Sidecar_runtime.Scenario.fct_p99));
        finish ~traced json
          (Obs.Json.Obj
             [
               ( "replications",
                 Obs.Json.List
                   (List.map Sidecar_runtime.Scenario.json_report reports) );
             ])
      end
    with Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  let flows =
    Arg.(value & opt (some int) None
         & info [ "flows" ] ~docv:"N"
             ~doc:"Flow count (default 200; with --shards, total flows over \
                   the run, default 240000).")
  in
  let table =
    Arg.(value & opt (some int) None
         & info [ "table" ] ~docv:"N"
             ~doc:"Flow-table capacity (0 = pure end-to-end; default 64, or \
                   2048 split across partitions with --shards).")
  in
  let eviction =
    Arg.(value & opt (some string) None
         & info [ "eviction" ] ~docv:"POLICY"
             ~doc:"Eviction policy: lru or idle (default lru; idle with \
                   --shards).")
  in
  let idle_ms =
    Arg.(value & opt msarg (Time.ms 100)
         & info [ "idle-ms" ] ~docv:"MS" ~doc:"Idle span for the idle policy.")
  in
  let per_flow =
    Arg.(value & flag & info [ "per-flow" ] ~doc:"Also print one line per flow.")
  in
  let protocol =
    Arg.(value & opt string "cc"
         & info [ "protocol" ] ~docv:"PROTO"
             ~doc:"Sidecar protocol the proxy runs: cc (CC division), ack \
                   (ACK reduction), or retx (in-network retransmission pair).")
  in
  let replications =
    Arg.(value & opt (some' ~none:1 int) None
         & info [ "replications" ] ~docv:"N"
             ~doc:"Independent replications with derived seeds (run via \
                   --jobs).")
  in
  let shards =
    Arg.(value & opt (some int) None
         & info [ "shards" ] ~docv:"N"
             ~doc:"Run the always-on sharded runtime on $(docv) worker \
                   domains instead of the event-driven scenario. The \
                   deterministic report is byte-identical for any $(docv).")
  in
  let partitions =
    Arg.(value & opt (some' ~none:16 int) None
         & info [ "partitions" ] ~docv:"P"
             ~doc:"Fixed logical flow-table partitions (admission and \
                   eviction are decided per partition, so results never \
                   depend on --shards). Requires --shards.")
  in
  let arrivals =
    Arg.(value & opt (some int) None
         & info [ "arrivals" ] ~docv:"N"
             ~doc:"Flow arrivals per epoch for --shards mode (default 6000).")
  in
  let idle_epochs =
    Arg.(value & opt (some' ~none:4 int) None
         & info [ "idle-epochs" ] ~docv:"E"
             ~doc:"Idle span, in epochs, for --shards mode's idle policy.")
  in
  let quack_every =
    Arg.(value & opt (some int) None
         & info [ "quack-every" ] ~docv:"K"
             ~doc:"A tracked flow emits a quACK every $(docv)-th packet \
                   (--shards and --scenario modes).")
  in
  let field =
    Arg.(value & opt string "modular"
         & info [ "field" ] ~docv:"F"
             ~doc:"Sketch arithmetic: modular or log (precomputed \
                   discrete-log tables; needs small --bits, e.g. 16).")
  in
  let bits =
    Arg.(value & opt (some int) None
         & info [ "bits" ] ~docv:"B"
             ~doc:"Identifier width for the proxy sketches (default: the \
                   planner's choice).")
  in
  let scenario =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~docv:"FAMILY"
             ~doc:"Run a scenario family instead of the single-proxy \
                   runtime: handover (no-migration/resync/transfer arms), \
                   multipath (split/single-path arms), adversary \
                   (unauth damage curve vs. authenticated defence under an \
                   on-path quACK attacker) or leakage (unshaped/shaped \
                   quACK side-channel probe). Arms are fanned over \
                   the --jobs (or --shards) pool; the report is \
                   byte-identical for any pool width.")
  in
  let migrate_after =
    Arg.(value & opt (some msarg) None
         & info [ "migrate-after" ] ~docv:"MS"
             ~doc:"handover: migrate each flow this long into its life \
                   (default 600).")
  in
  let ctrl_delay =
    Arg.(value & opt (some msarg) None
         & info [ "ctrl-delay" ] ~docv:"MS"
             ~doc:"handover: modeled control-channel delay for the Transfer \
                   snapshot (default 5).")
  in
  let crowd =
    Arg.(value & opt (some int) None
         & info [ "crowd" ] ~docv:"N"
             ~doc:"Scenario families: flash-crowd burst size (default 16).")
  in
  let split =
    Arg.(value & opt (some string) None
         & info [ "split" ] ~docv:"A:B"
             ~doc:"multipath: of every A+B data packets, the first A take \
                   path 1 (default 1:1).")
  in
  let attack_rate =
    Arg.(value & opt (some float) None
         & info [ "attack-rate" ] ~docv:"R"
             ~doc:"adversary: per-quACK bernoulli rate for each of the four \
                   attacks (spoof/replay/truncate/bit-flip), in [0, 1] \
                   (default 0.1). The family sweeps 0, R/2, R \
                   unauthenticated plus R authenticated.")
  in
  Cmd.v
    (Cmd.info "runtime"
       ~doc:"Many flows through bounded-table sidecar proxy state.")
    Term.(const run $ protocol $ flows $ table $ eviction $ idle_ms $ seed
          $ loss ~name:"far-loss" ~default:0.01 "Proxy-client loss probability."
          $ per_flow $ field $ bits $ json_arg $ trace_arg
          $ replications $ jobs_arg $ shards $ partitions $ arrivals
          $ idle_epochs $ quack_every $ scenario $ migrate_after $ ctrl_delay
          $ crowd $ split $ attack_rate)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Sidecar protocol simulations (HotNets '22 reproduction)." in
  let info = Cmd.info "sidecar-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ quack_cmd; cc_cmd; ar_cmd; rx_cmd; fairness_cmd; runtime_cmd ]))
