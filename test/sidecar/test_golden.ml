(* Golden behaviour pins for the three single-flow sidecar protocols
   and the two-flow fairness experiment.

   Each fixture under golden/ is a canonical rendering of the full
   default-config report (every field, exact integers, hex floats) for
   the repo-default seed. The node-layer refactor must change no
   measured number: these tests re-run each protocol and compare the
   fresh snapshot with the committed one character for character.

   Regenerate (only when a behaviour change is intended and understood):
     dune exec test/sidecar/test_golden.exe -- gen <abs path to test/sidecar/golden>
*)

open Sidecar_protocols
module Time = Netsim.Sim_time

(* ------------------------------------------------------------------ *)
(* Canonical renderings: every report field, lossless                  *)

let b fmt v = Printf.sprintf fmt v

let span_opt = function
  | None -> "none"
  | Some (t : Time.span) -> string_of_int t

let flow_snap (r : Transport.Flow.result) =
  String.concat "\n"
    [
      b "completed=%b" r.Transport.Flow.completed;
      "fct=" ^ span_opt r.Transport.Flow.fct;
      b "units=%d" r.Transport.Flow.units;
      b "transmissions=%d" r.Transport.Flow.transmissions;
      b "retransmissions=%d" r.Transport.Flow.retransmissions;
      b "congestion_events=%d" r.Transport.Flow.congestion_events;
      b "timeouts=%d" r.Transport.Flow.timeouts;
      b "acks_sent=%d" r.Transport.Flow.acks_sent;
      b "duplicates=%d" r.Transport.Flow.duplicates;
      b "goodput_mbps=%h" r.Transport.Flow.goodput_mbps;
    ]

let snap_cc () =
  let r = Cc_division.run Cc_division.default_config in
  String.concat "\n"
    [
      "proto_cc (Cc_division.run default_config)";
      flow_snap r.Cc_division.flow;
      b "quacks_from_client=%d" r.Cc_division.quacks_from_client;
      b "quacks_from_proxy=%d" r.Cc_division.quacks_from_proxy;
      b "quack_bytes=%d" r.Cc_division.quack_bytes;
      b "proxy_buffer_peak=%d" r.Cc_division.proxy_buffer_peak;
      b "proxy_window_final=%d" r.Cc_division.proxy_window_final;
      b "server_decode_failures=%d" r.Cc_division.server_decode_failures;
    ]
  ^ "\n"

let snap_ar () =
  let r = Ack_reduction.run Ack_reduction.default_config in
  String.concat "\n"
    [
      "proto_ar (Ack_reduction.run default_config)";
      flow_snap r.Ack_reduction.flow;
      b "client_acks=%d" r.Ack_reduction.client_acks;
      b "client_ack_bytes=%d" r.Ack_reduction.client_ack_bytes;
      b "quacks=%d" r.Ack_reduction.quacks;
      b "quack_bytes=%d" r.Ack_reduction.quack_bytes;
      b "window_freed_early_bytes=%d" r.Ack_reduction.window_freed_early_bytes;
      b "spurious_retx=%d" r.Ack_reduction.spurious_retx;
    ]
  ^ "\n"

let snap_rx () =
  let r = Retransmission.run Retransmission.default_config in
  String.concat "\n"
    [
      "proto_rx (Retransmission.run default_config)";
      flow_snap r.Retransmission.flow;
      b "proxy_retransmissions=%d" r.Retransmission.proxy_retransmissions;
      b "quacks=%d" r.Retransmission.quacks;
      b "quack_bytes=%d" r.Retransmission.quack_bytes;
      b "freq_updates=%d" r.Retransmission.freq_updates;
      b "final_quack_every=%d" r.Retransmission.final_quack_every;
      b "buffer_peak=%d" r.Retransmission.buffer_peak;
      b "subpath_loss_observed=%h" r.Retransmission.subpath_loss_observed;
    ]
  ^ "\n"

(* The no-sidecar arms of ACK reduction and retransmission: the flow
   every sidecar number above is judged against. *)
let snap_baseline_ar () =
  let r, ack_bytes = Ack_reduction.baseline Ack_reduction.default_config in
  String.concat "\n"
    [
      "baseline_ar (Ack_reduction.baseline default_config)";
      flow_snap r;
      b "client_ack_bytes=%d" ack_bytes;
    ]
  ^ "\n"

let snap_baseline_rx () =
  String.concat "\n"
    [
      "baseline_rx (Retransmission.baseline default_config)";
      flow_snap (Retransmission.baseline Retransmission.default_config);
    ]
  ^ "\n"

(* Two CC-division flows sharing one proxy (§2.1 fairness); the report
   has no JSON form, so the text pin is the whole interface. *)
let snap_fairness () =
  let r = Fairness.run Fairness.default_config in
  String.concat "\n"
    ("fairness (Fairness.run default_config)"
     :: List.concat
          (Array.to_list
             (Array.mapi
                (fun i (f : Fairness.flow_result) ->
                  [
                    b "flow%d_fct=" i ^ span_opt f.Fairness.fct;
                    b "flow%d_goodput_mbps=%h" i f.Fairness.goodput_mbps;
                    b "flow%d_retransmissions=%d" i f.Fairness.retransmissions;
                    b "flow%d_congestion_events=%d" i f.Fairness.congestion_events;
                  ])
                r.Fairness.flows))
    @ [
        b "jain_index=%h" r.Fairness.jain_index;
        b "total_goodput_mbps=%h" r.Fairness.total_goodput_mbps;
      ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* JSON schema pins: the machine-readable report shapes are part of
   the interface (CI's benchcheck and downstream replotting parse
   them), so their schemas are goldens too — the numbers may move,
   the field names and types may not. *)

let schema_snap json_of () = Obs.Json.to_string (Obs.Json.schema_of (json_of ())) ^ "\n"

let fixtures =
  [
    ("proto_cc", snap_cc);
    ("proto_ar", snap_ar);
    ("proto_rx", snap_rx);
    ("fairness", snap_fairness);
    ("baseline_ar", snap_baseline_ar);
    ("baseline_rx", snap_baseline_rx);
    ( "schema_cc",
      schema_snap (fun () ->
          Cc_division.json_report (Cc_division.run Cc_division.default_config)) );
    ( "schema_ar",
      schema_snap (fun () ->
          Ack_reduction.json_report (Ack_reduction.run Ack_reduction.default_config)) );
    ( "schema_rx",
      schema_snap (fun () ->
          Retransmission.json_report (Retransmission.run Retransmission.default_config)) );
    ( "schema_runtime",
      schema_snap (fun () ->
          let module S = Sidecar_runtime.Scenario in
          S.json_report (S.run { S.default_config with S.flows = 40 })) );
  ]

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
      let got = snap () in
      Alcotest.(check string)
        (name ^ " matches the committed pre-refactor snapshot")
        expected got)

(* The observability guarantee, enforced byte-for-byte: the same run
   with every trace category enabled must reproduce the same fixture.
   Recording is ring writes only — no RNG draws, no scheduling — so a
   divergence here means some code path made behaviour depend on
   whether anyone is watching. *)
let traced_case (name, snap) =
  Alcotest.test_case (name ^ " traced") `Slow (fun () ->
      let saved = Obs.Sink.default_trace_categories () in
      Obs.Sink.set_default_trace_categories Obs.Trace.all_categories;
      let got =
        Fun.protect
          ~finally:(fun () -> Obs.Sink.set_default_trace_categories saved)
          snap
      in
      let expected = read_file (Filename.concat "golden" (name ^ ".txt")) in
      Alcotest.(check string)
        (name ^ " is byte-identical with tracing fully enabled")
        expected got)

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: _ -> gen dir
  | _ ->
      Alcotest.run "sidecar_golden"
        [
          ("golden", List.map golden_case fixtures);
          ("golden-traced", List.map traced_case fixtures);
        ]
