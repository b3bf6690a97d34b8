(* Smoke test of the repository benchmark, run by [dune runtest]:
   BENCHMARK.json is well formed and declares exactly the workloads and
   metrics of [Catalog]; every per-layer metric names the end-to-end
   metric and workloads it should move; a [--quick] run of every
   workload, untraced and traced, prints exactly the declared metrics
   with their units and correct outputs; a wrong recorded checksum
   fails the run; and [compare] never calls a change improved when it
   fails more ops than its parent.

   Usage: smoke.exe PERF_EXE BENCHMARK_JSON *)

open Perf_bench

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let valid_name s =
  let ok c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  String.length s >= 1 && String.length s <= 64 && String.for_all ok s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_unit s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok s

let str j k = match Obs.Json.member k j with Some (Obs.Json.String s) -> s | _ -> ""

let num j k =
  match Obs.Json.member k j with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let list j k = match Obs.Json.member k j with Some (Obs.Json.List l) -> l | _ -> []
let keys = function Obs.Json.Obj fields -> List.map fst fields | _ -> []

let check_declaration bench =
  check
    (List.sort compare (keys bench)
    = List.sort compare
        [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ])
    "BENCHMARK.json has exactly the contract's keys";
  let workloads = list bench "workloads" in
  check
    (List.map (fun w -> str w "name") workloads = Catalog.workloads)
    "BENCHMARK.json declares the catalog's workloads, in order";
  List.iter
    (fun w ->
      let name = str w "name" and why = str w "why" in
      check (keys w = [ "name"; "why" ]) "keys of workload %s" name;
      check (valid_name name) "workload name %S" name;
      check
        (String.trim why <> "" && String.length why <= 200 && not (String.contains why '\n'))
        "why of %s is one line of at most 200 characters" name)
    workloads;
  let declared section (catalog : Catalog.metric list) ~limit =
    let ms = list bench section in
    check (List.length ms >= 1 && List.length ms <= limit) "%s has 1..%d metrics" section limit;
    check
      (List.map (fun m -> str m "name") ms = List.map (fun (m : Catalog.metric) -> m.name) catalog)
      "%s declares the catalog's metrics, in order" section;
    List.iter2
      (fun m (c : Catalog.metric) ->
        let name = str m "name" in
        check (valid_name name) "metric name %S" name;
        check (valid_unit (str m "unit")) "unit of %s" name;
        check (String.equal (str m "unit") c.unit) "unit of %s matches the catalog" name;
        check (String.equal (str m "better") (Catalog.better_string c.better)) "better of %s" name;
        match c.bound with
        | Some b ->
            check (keys m = [ "name"; "unit"; "better"; "bound" ]) "keys of %s" name;
            check (num m "bound" = Some b && b > 0. && b <= 0.25) "bound of %s" name
        | None -> check (keys m = [ "name"; "unit"; "better" ]) "keys of %s" name)
      ms
      (if List.length ms = List.length catalog then catalog else [])
  in
  declared "end_to_end" Catalog.end_to_end ~limit:16;
  declared "per_layer" Catalog.per_layer ~limit:128;
  check
    (List.exists
       (fun (m : Catalog.metric) -> m.name = "setup_s" && m.unit = "s" && m.better = Catalog.Lower)
       Catalog.end_to_end)
    "setup_s is declared";
  let names = List.map (fun (m : Catalog.metric) -> m.name) (Catalog.end_to_end @ Catalog.per_layer) in
  check (List.length (List.sort_uniq compare names) = List.length names) "metric names are unique";
  List.iter
    (fun (m : Catalog.metric) ->
      check (m.moves <> []) "%s names what it should move" m.name;
      List.iter
        (fun (e2e, ws) ->
          check
            (List.exists (fun (e : Catalog.metric) -> e.name = e2e) Catalog.end_to_end)
            "%s moves an end-to-end metric (%s)" m.name e2e;
          check
            (ws <> [] && List.for_all (fun w -> List.mem w Catalog.workloads) ws)
            "%s moves %s on known workloads" m.name e2e)
        m.moves)
    Catalog.per_layer

let rec waitpid pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run perf.exe with [args]; its exit status and last stdout line. *)
let run perf args =
  let argv = Array.of_list (perf :: args) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process perf argv Unix.stdin wr null in
  Unix.close wr;
  Unix.close null;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None (String.split_on_char '\n' out)
  in
  (waitpid pid, last)

let check_run perf workload ~trace =
  let label = Printf.sprintf "%s --trace %d" workload (if trace then 1 else 0) in
  let status, last =
    run perf [ "--workload"; workload; "--quick"; "--trace"; (if trace then "1" else "0") ]
  in
  check (status = Unix.WEXITED 0) "%s exits 0" label;
  match Option.map Obs.Json.of_string last with
  | Some (Ok result) ->
      check (keys result = [ "correct"; "attempted"; "failed"; "metrics" ]) "%s result keys" label;
      check (Obs.Json.member "correct" result = Some (Obs.Json.Bool true)) "%s is correct" label;
      (match Obs.Json.member "attempted" result with
      | Some (Obs.Json.Int n) -> check (n >= 1) "%s attempted something" label
      | _ -> check false "%s attempted is a whole number" label);
      let declared = if trace then Catalog.per_layer else Catalog.end_to_end in
      let metrics = Option.value (Obs.Json.member "metrics" result) ~default:Obs.Json.Null in
      check
        (keys metrics = List.map (fun (m : Catalog.metric) -> m.name) declared)
        "%s prints exactly the declared metrics" label;
      List.iter
        (fun (m : Catalog.metric) ->
          match Obs.Json.member m.name metrics with
          | Some v ->
              check (str v "unit" = m.unit) "%s: unit of %s" label m.name;
              check
                (match num v "value" with Some f -> Float.is_finite f | None -> false)
                "%s: value of %s" label m.name
          | None -> ())
        declared
  | _ -> check false "%s prints a JSON result last" label

(* Ten paired runs of sidecar_cc where the change is faster in every
   pair: improved when it fails no more flows than the parent, and not
   improved, with a regressed [failed] row, when it fails more. *)
let check_compare () =
  let runs ~pkts_per_s ~failed =
    List.init 10 (fun i ->
        {
          Compare.workload = "sidecar_cc";
          trace = false;
          attempted = 200;
          failed = (if i = 0 then failed else 0);
          metrics = [ ("pkts_per_s", pkts_per_s +. float_of_int i) ];
        })
  in
  let verdict_of change metric =
    List.find_map
      (fun (r : Compare.row) ->
        if r.workload = "sidecar_cc" && r.metric = metric then Some r.verdict else None)
      (Compare.rows (runs ~pkts_per_s:100. ~failed:0) change)
  in
  let faster = runs ~pkts_per_s:200. ~failed:0 and failing = runs ~pkts_per_s:200. ~failed:1 in
  check (verdict_of faster "pkts_per_s" = Some Compare.Improved) "compare: a faster change is improved";
  check (verdict_of faster "failed" = Some Compare.No_regression) "compare: equal failures pass";
  check
    (verdict_of failing "pkts_per_s" <> Some Compare.Improved)
    "compare: a change that fails more ops is not improved";
  check (verdict_of failing "failed" = Some Compare.Regressed) "compare: more failures regress"

let () =
  match Sys.argv with
  | [| _; perf; bench_json |] ->
      (match Obs.Json.of_file bench_json with
      | Ok bench -> check_declaration bench
      | Error e -> check false "BENCHMARK.json parses (%s)" e);
      List.iter
        (fun w ->
          check_run perf w ~trace:false;
          check_run perf w ~trace:true)
        Catalog.workloads;
      check_compare ();
      let status, last =
        run perf [ "--workload"; "wire_ingest"; "--quick"; "--expect-checksum"; "1=12345" ]
      in
      check (status <> Unix.WEXITED 0) "a wrong recorded checksum fails the run";
      check
        (match Option.map Obs.Json.of_string last with
        | Some (Ok r) -> Obs.Json.member "correct" r = Some (Obs.Json.Bool false)
        | _ -> true)
        "a wrong recorded checksum is not reported correct";
      if !failures > 0 then begin
        Printf.printf "%d check(s) failed\n" !failures;
        exit 1
      end
  | _ ->
      prerr_endline "usage: smoke.exe PERF_EXE BENCHMARK_JSON";
      exit 2
