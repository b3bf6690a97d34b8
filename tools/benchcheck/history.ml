(* BENCH_HISTORY.jsonl: the repository benchmark's results, one line
   per change, oldest first. A line summarises paired runs of
   [bench/perf/perf.exe] (see bench/perf/README.md) on one side of a
   comparison:

     { "schema": "sidecar-history-1", "label": <string>, "seed": <int>,
       "pairs": <int>,
       "workloads": { <workload>: { <metric>: { "median": <num>,
                                                "q1": <num>, "q3": <num> },
                                    ... }, ... } }

   with every workload and end-to-end metric that BENCHMARK.json
   declares on the last line, and quartiles as [perf.exe compare]
   computes them. The check fails when a line is malformed, or when the
   last line's median is worse than the previous line's by more than
   that metric's bound in BENCHMARK.json.

   [summarise] builds a line from perf.exe's own output (one JSON
   record per run), so a new line is made with
     benchcheck --history-line LABEL runs.jsonl >> BENCH_HISTORY.jsonl *)

open Perf_bench

let schema = "sidecar-history-1"

type declared = { workloads : string list; metrics : Catalog.metric list }
type stat = { median : float; q1 : float; q3 : float }

type line = {
  label : string;
  results : (string * (string * stat) list) list;  (* workload -> metric -> stat *)
}

let string_field name j =
  match Obs.Json.member name j with Some (Obs.Json.String s) -> Some s | _ -> None

let list_field name j =
  match Obs.Json.member name j with Some (Obs.Json.List l) -> l | _ -> []

let number name j = Option.bind (Obs.Json.member name j) Compare.number

let declared_of_json j =
  let workloads = List.filter_map (string_field "name") (list_field "workloads" j) in
  let metric m =
    match
      (string_field "name" m, string_field "unit" m, string_field "better" m, number "bound" m)
    with
    | Some name, Some unit, Some "higher", Some bound -> Some (Catalog.e2e name unit Higher bound)
    | Some name, Some unit, Some "lower", Some bound -> Some (Catalog.e2e name unit Lower bound)
    | _ -> None
  in
  let metrics = List.filter_map metric (list_field "end_to_end" j) in
  if workloads = [] || metrics = [] then
    Error "declares no workloads or no bounded end-to-end metrics"
  else Ok { workloads; metrics }

(* Parse one history line, collecting every problem. *)
let line_of_json j =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if string_field "schema" j <> Some schema then bad "schema is not %S" schema;
  let label =
    match string_field "label" j with
    | Some s when s <> "" -> s
    | _ ->
        bad "missing \"label\"";
        ""
  in
  (match Obs.Json.member "seed" j with
  | Some (Obs.Json.Int _) -> ()
  | _ -> bad "missing integer \"seed\"");
  (match Obs.Json.member "pairs" j with
  | Some (Obs.Json.Int n) when n >= 1 -> ()
  | _ -> bad "\"pairs\" is not a positive integer");
  let stat w m s =
    match (number "median" s, number "q1" s, number "q3" s) with
    | Some median, Some q1, Some q3 ->
        if not (q1 <= median && median <= q3) then
          bad "%s.%s: quartiles do not bracket the median" w m;
        Some { median; q1; q3 }
    | _ ->
        bad "%s.%s: needs numeric \"median\", \"q1\" and \"q3\"" w m;
        None
  in
  let results =
    match Obs.Json.member "workloads" j with
    | Some (Obs.Json.Obj ws) ->
        List.map
          (fun (w, ms) ->
            match ms with
            | Obs.Json.Obj ms ->
                let stats (m, s) = Option.map (fun s -> (m, s)) (stat w m s) in
                (w, List.filter_map stats ms)
            | _ ->
                bad "workload %s is not an object" w;
                (w, []))
          ws
    | _ ->
        bad "missing \"workloads\" object";
        []
  in
  if !problems = [] then Ok { label; results } else Error (List.rev !problems)

let find line ~workload ~metric =
  Option.bind (List.assoc_opt workload line.results) (List.assoc_opt metric)

(* Problems of the history as a whole: the last line covers everything
   declared, and no median of it regressed beyond its bound against the
   line before. *)
let check declared lines =
  match List.rev lines with
  | [] -> [ "no lines" ]
  | last :: rest ->
      let missing =
        List.concat_map
          (fun workload ->
            List.filter_map
              (fun (m : Catalog.metric) ->
                match find last ~workload ~metric:m.name with
                | Some _ -> None
                | None ->
                    Some (Printf.sprintf "last line (%s) lacks %s.%s" last.label workload m.name))
              declared.metrics)
          declared.workloads
      in
      let regressions =
        match rest with
        | [] -> []
        | prev :: _ ->
            List.concat_map
              (fun workload ->
                List.filter_map
                  (fun (m : Catalog.metric) ->
                    let at line = find line ~workload ~metric:m.name in
                    match (at prev, at last, m.bound) with
                    | Some p, Some l, Some bound ->
                        let w = Compare.worsening m ~p:p.median ~c:l.median in
                        if w > bound then
                          Some
                            (Printf.sprintf
                               "%s.%s regressed: median %g (%s) vs %g (%s), %.1f%% worse, \
                                bound %.0f%%"
                               workload m.name l.median last.label p.median prev.label
                               (100. *. w) (100. *. bound))
                        else None
                    | _ -> None)
                  declared.metrics)
              declared.workloads
      in
      missing @ regressions

(* ------------------------------------------------------------------ *)
(* Summarising perf.exe runs into a line                               *)

(* An untraced perf.exe record and the seed it ran at. *)
let run_of_json j =
  match (Obs.Json.member "seed" j, Compare.record_of j) with
  | Some (Obs.Json.Int seed), Some r when not r.Compare.trace -> Some (seed, r)
  | _ -> None

(* distinct elements in first-seen order *)
let distinct xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let summarise ~label runs =
  let records = List.map snd runs in
  let of_workload w = List.filter (fun (r : Compare.record) -> r.workload = w) records in
  let workloads = distinct (List.map (fun (r : Compare.record) -> r.workload) records) in
  let counts =
    List.sort_uniq Int.compare (List.map (fun w -> List.length (of_workload w)) workloads)
  in
  match (runs, counts) with
  | [], _ -> Error "no untraced perf.exe records"
  | (seed, _) :: _, _ when List.exists (fun (s, _) -> s <> seed) runs ->
      Error "the runs do not share one seed"
  | (seed, _) :: _, [ pairs ] when pairs >= 2 ->
      let stats workload =
        let names =
          distinct
            (List.concat_map
               (fun (r : Compare.record) -> List.map fst r.metrics)
               (of_workload workload))
        in
        Obs.Json.Obj
          (List.filter_map
             (fun name ->
               let xs = Compare.values records ~workload ~trace:false name in
               if Array.length xs < pairs then None
               else
                 let q1, median, q3 = Ledger.quartiles xs in
                 Some
                   ( name,
                     Obs.Json.Obj
                       [ ("median", Obs.Json.Float median); ("q1", Obs.Json.Float q1);
                         ("q3", Obs.Json.Float q3) ] ))
             names)
      in
      Ok
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String schema);
             ("label", Obs.Json.String label);
             ("seed", Obs.Json.Int seed);
             ("pairs", Obs.Json.Int pairs);
             ("workloads", Obs.Json.Obj (List.map (fun w -> (w, stats w)) workloads));
           ])
  | _ -> Error "every workload needs the same number of runs, at least two"
