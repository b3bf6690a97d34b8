(* [perf.exe compare PARENT CHANGE]: the verdict on a change, per
   workload and end-to-end metric, from runs of both commits with the
   same benchmark and settings. Runs are paired in file order.

   - improved: the change wins at least 9 of every 10 pairs (ties count
     for neither), its median beats the parent's by more than the
     parent's own quartile spread, and it fails no more ops than the
     parent on that workload;
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound;
   - unresolved: either side's quartile spread is wider than the bound,
     so a regression that size could not be seen — unless every run of
     the change beats every run of the parent;
   - no regression: otherwise.

   Each workload also gets a [failed] row: the share of attempted ops
   that failed, summed over its runs. It is regressed when the change
   fails a larger share than the parent, since a faster run that
   completes less work is no gain. *)

type record = {
  workload : string;
  trace : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let number = function
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Float f -> Some f
  | _ -> None

let record_of json =
  let ( let* ) = Option.bind in
  let int name j = match Obs.Json.member name j with Some (Obs.Json.Int n) -> Some n | _ -> None in
  let* workload = match Obs.Json.member "workload" json with Some (Obs.Json.String s) -> Some s | _ -> None in
  let trace = Obs.Json.member "trace" json = Some (Obs.Json.Bool true) in
  let* result = Obs.Json.member "result" json in
  let* attempted = int "attempted" result in
  let* failed = int "failed" result in
  let* metrics =
    match Obs.Json.member "metrics" result with
    | Some (Obs.Json.Obj fields) ->
        Some
          (List.filter_map
             (fun (name, m) ->
               let* v = Obs.Json.member "value" m in
               let* v = number v in
               Some (name, v))
             fields)
    | _ -> None
  in
  Some { workload; trace; attempted; failed; metrics }

(* One JSON record per line, as [perf.exe] without [--workload] prints
   them. *)
let load file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Obs.Json.of_string line with Ok json -> record_of json | Error _ -> None)

let values records ~workload ~trace name =
  Array.of_list
    (List.filter_map
       (fun r ->
         if String.equal r.workload workload && r.trace = trace then List.assoc_opt name r.metrics
         else None)
       records)

(* failed and attempted ops of a workload, over all its runs *)
let failures records ~workload =
  List.fold_left
    (fun (f, a) r -> if String.equal r.workload workload then (f + r.failed, a + r.attempted) else (f, a))
    (0, 0) records

let spread xs =
  if Array.length xs < 2 then Float.nan
  else
    let q1, q2, q3 = Ledger.quartiles xs in
    (q3 -. q1) /. Float.abs q2

let better (m : Catalog.metric) a b =
  match m.better with Catalog.Lower -> a < b | Catalog.Higher -> a > b

(* how much worse [c] is than [p], as a share of [p] *)
let worsening (m : Catalog.metric) ~p ~c =
  match m.better with
  | Catalog.Lower -> (c -. p) /. Float.abs p
  | Catalog.Higher -> (p -. c) /. Float.abs p

type verdict = Improved | No_regression | Regressed | Unresolved | Per_layer

let verdict_string = function
  | Improved -> "improved"
  | No_regression -> "no regression"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Per_layer -> "(per-layer)"

let verdict (m : Catalog.metric) ~bound ~more_failures ps cs =
  let p1, mp, p3 = Ledger.quartiles ps and _, mc, _ = Ledger.quartiles cs in
  let pairs = min (Array.length ps) (Array.length cs) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better m cs.(i) ps.(i) then incr wins
  done;
  let all_better = Array.for_all (fun c -> Array.for_all (fun p -> better m c p) ps) cs in
  let improved =
    (not more_failures) && 10 * !wins >= 9 * pairs && better m mc mp
    && Float.abs (mc -. mp) > p3 -. p1
  in
  let v =
    if improved then Improved
    else if spread ps > bound || spread cs > bound then
      if all_better then No_regression else Unresolved
    else if worsening m ~p:mp ~c:mc > bound then Regressed
    else No_regression
  in
  (v, !wins, pairs)

type row = {
  workload : string;
  metric : string;
  parent : string;  (** median [q1, q3], or failed/attempted *)
  change : string;
  wins : string;
  verdict : verdict;
}

let fmt xs =
  let q1, q2, q3 = Ledger.quartiles xs in
  Printf.sprintf "%.5g [%.5g, %.5g]" q2 q1 q3

(* The rows of the verdict table, workload by workload: [failed] first,
   then every metric both sides measured at least twice. *)
let rows parent change =
  List.concat_map
    (fun workload ->
      let pf, pa = failures parent ~workload and cf, ca = failures change ~workload in
      let more_failures = cf * max 1 pa > pf * max 1 ca in
      let failed =
        if pa = 0 || ca = 0 then []
        else
          [
            {
              workload;
              metric = "failed";
              parent = Printf.sprintf "%d/%d" pf pa;
              change = Printf.sprintf "%d/%d" cf ca;
              wins = "";
              verdict = (if more_failures then Regressed else No_regression);
            };
          ]
      in
      failed
      @ List.filter_map
          (fun ((m : Catalog.metric), trace) ->
            let ps = values parent ~workload ~trace m.name
            and cs = values change ~workload ~trace m.name in
            if Array.length ps < 2 || Array.length cs < 2 then None
            else
              let v, wins, pairs =
                match m.bound with
                | Some bound -> verdict m ~bound ~more_failures ps cs
                | None ->
                    let _, wins, pairs = verdict m ~bound:infinity ~more_failures ps cs in
                    (Per_layer, wins, pairs)
              in
              Some
                {
                  workload;
                  metric = m.name;
                  parent = fmt ps;
                  change = fmt cs;
                  wins = Printf.sprintf "%d/%d" wins pairs;
                  verdict = v;
                })
          (List.map (fun m -> (m, false)) Catalog.end_to_end
          @ List.map (fun m -> (m, true)) Catalog.per_layer))
    Catalog.workloads

let compare_sets parent change =
  let rows = rows parent change in
  Printf.printf "%-14s %-34s %-32s %-32s %6s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-34s %-32s %-32s %6s  %s\n" r.workload r.metric r.parent r.change r.wins
        (verdict_string r.verdict))
    rows;
  if List.exists (fun r -> r.verdict = Regressed) rows then exit 1

let main = function
  | [ parent; change ] -> compare_sets (load parent) (load change)
  | _ ->
      prerr_endline "usage: perf.exe compare PARENT CHANGE";
      exit 2
