(* Golden behaviour pins for the 200-flow runtime scenario.

   Each fixture under golden/ is a canonical rendering of one
   [Scenario.run] report: every [Scenario.json_report] field plus every
   per-flow field, exact integers, floats as hex ([%h]), and the
   wall-clock [proxy_busy_s] zeroed. Default config at 200 flows:
   cc@64, cc@4 and retx@24 are the repo benchmark's sidecar_* inputs,
   ack@24 covers the third protocol; each at scenario seeds 1, 113 and
   42. Seed 113 at CC/table 4 is the known wedge (199 of 200 flows
   complete); it is pinned as it is. Seed 42 is there because ack@24
   at that seed catches a sender that strands an in-flight packet below
   its oldest-in-flight watermark, which the other two seeds do not.

   A change to the simulator substrate (engine, event heap, links,
   transport) that reorders fired events or retransmissions shows up
   here as a diff, even where a CI [cmp] of two runs of the same
   binary would still pass.

   Regenerate (only when a behaviour change is intended and understood):
     dune exec test/runtime/test_golden.exe -- gen <abs path to test/runtime/golden>
*)

module Scenario = Sidecar_runtime.Scenario

let configs =
  List.concat_map
    (fun seed ->
      [ ("cc", `Cc, 64, seed); ("cc", `Cc, 4, seed); ("retx", `Retx, 24, seed);
        ("ack", `Ack, 24, seed) ])
    [ 1; 113; 42 ]

let name (proto, _, table, seed) = Printf.sprintf "%s_t%d_s%d" proto table seed

(* One [path=value] line per leaf of the JSON report. *)
let rec leaves prefix (j : Obs.Json.t) acc =
  let leaf v = (prefix ^ "=" ^ v) :: acc in
  match j with
  | Obs.Json.Null -> leaf "null"
  | Obs.Json.Bool b -> leaf (string_of_bool b)
  | Obs.Json.Int i -> leaf (string_of_int i)
  | Obs.Json.Float f -> leaf (Printf.sprintf "%h" f)
  | Obs.Json.String s -> leaf (Printf.sprintf "%S" s)
  | Obs.Json.List l ->
      let _, acc =
        List.fold_left
          (fun (i, acc) v -> (i + 1, leaves (Printf.sprintf "%s[%d]" prefix i) v acc))
          (0, acc) l
      in
      acc
  | Obs.Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) -> leaves (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc kvs

let flow_line (f : Scenario.flow_report) =
  Printf.sprintf
    "flow %d: units=%d started_at=%d completed=%b fct_s=%h transmissions=%d \
     retransmissions=%d timeouts=%d duplicates=%d"
    f.Scenario.flow f.Scenario.units f.Scenario.started_at f.Scenario.completed
    f.Scenario.fct_s f.Scenario.transmissions f.Scenario.retransmissions
    f.Scenario.timeouts f.Scenario.duplicates

let snap ((proto, protocol, table_flows, seed) as c) () =
  let r =
    Scenario.run
      { Scenario.default_config with Scenario.protocol; flows = 200; table_flows; seed }
  in
  let report = Scenario.json_report { r with Scenario.proxy_busy_s = 0. } in
  String.concat "\n"
    ((Printf.sprintf "scenario %s (protocol %s, table %d, seed %d)" (name c) proto
        table_flows seed
     :: List.rev (leaves "" report []))
    @ Array.to_list (Array.map flow_line r.Scenario.flows))
  ^ "\n"

let fixtures = List.map (fun c -> (name c, snap c)) configs

(* ------------------------------------------------------------------ *)

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
    (fun (name, snap) ->
      let path = Filename.concat dir (name ^ ".txt") in
      write_file path (snap ());
      Printf.printf "wrote %s\n%!" path)
    fixtures

let golden_case (name, snap) =
  Alcotest.test_case name `Slow (fun () ->
      let expected = read_file (Filename.concat "golden" (name ^ ".txt")) in
      Alcotest.(check string) (name ^ " matches the committed report") expected (snap ()))

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: _ -> gen dir
  | _ -> Alcotest.run "runtime_golden" [ ("golden-200", List.map golden_case fixtures) ]
