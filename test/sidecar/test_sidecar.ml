open Sidecar_protocols
module Time = Netsim.Sim_time

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Path                                                                *)

let test_loss_spec () =
  check (Alcotest.float 1e-9) "bernoulli avg" 0.03
    (Path.average_loss (Path.Bernoulli 0.03));
  check (Alcotest.float 1e-9) "no loss" 0. (Path.average_loss Path.No_loss);
  let ge =
    Path.Gilbert { p_good_to_bad = 0.01; p_bad_to_good = 0.19; loss_bad = 0.4 }
  in
  check (Alcotest.float 1e-9) "GE stationary" 0.02 (Path.average_loss ge)

let test_path_rtt () =
  let segs =
    [
      Path.segment ~rate_bps:1_000_000 ~delay:(Time.ms 10) ();
      Path.segment ~rate_bps:1_000_000 ~delay:(Time.ms 15) ();
    ]
  in
  check int "rtt = 2 * sum delay" (Time.ms 50) (Path.rtt segs)

let test_path_baseline_runs () =
  let segs =
    [
      Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 5) ();
      Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 5) ();
    ]
  in
  let r = Path.baseline ~units:300 segs in
  check bool "completes" true r.Transport.Flow.completed;
  check int "all units" 300 r.Transport.Flow.units

(* ------------------------------------------------------------------ *)
(* CC division                                                         *)

let cc_cfg =
  { Cc_division.default_config with units = 800; until = Time.s 120 }

let test_cc_division_completes () =
  let rep = Cc_division.run cc_cfg in
  check bool "completes" true rep.Cc_division.flow.Transport.Flow.completed;
  check int "all units" 800 rep.Cc_division.flow.Transport.Flow.units

let test_cc_division_beats_baseline () =
  let base = Cc_division.baseline cc_cfg in
  let rep = Cc_division.run cc_cfg in
  match (base.Transport.Flow.fct, rep.Cc_division.flow.Transport.Flow.fct) with
  | Some b, Some s ->
      check bool
        (Printf.sprintf "sidecar %.2fs < baseline %.2fs" (Time.to_float_s s)
           (Time.to_float_s b))
        true (s < b)
  | _ -> Alcotest.fail "both must complete"

let test_cc_division_isolates_server_from_far_loss () =
  let base = Cc_division.baseline cc_cfg in
  let rep = Cc_division.run cc_cfg in
  (* the server's window should see far fewer congestion events than
     the end-to-end baseline, since far-segment losses are handled by
     the proxy's loop *)
  check bool
    (Printf.sprintf "server events %d < baseline %d"
       rep.Cc_division.flow.Transport.Flow.congestion_events
       base.Transport.Flow.congestion_events)
    true
    (rep.Cc_division.flow.Transport.Flow.congestion_events
    < base.Transport.Flow.congestion_events)

let test_cc_division_quacks_flow () =
  let rep = Cc_division.run cc_cfg in
  check bool "client quACKed" true (rep.Cc_division.quacks_from_client > 0);
  check bool "proxy quACKed" true (rep.Cc_division.quacks_from_proxy > 0);
  check bool "no decode failures" true (rep.Cc_division.server_decode_failures = 0)

let test_cc_division_lossless_far () =
  (* with no far loss the sidecar should not hurt *)
  let cfg =
    {
      cc_cfg with
      Cc_division.far =
        Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2) ();
    }
  in
  let rep = Cc_division.run cfg in
  check bool "completes" true rep.Cc_division.flow.Transport.Flow.completed;
  check int "no e2e retransmissions" 0
    rep.Cc_division.flow.Transport.Flow.retransmissions

let test_cc_division_16bit_identifiers () =
  (* 16-bit identifiers collide ~1.5% of the time at n=1000 (Table 3):
     the protocol must absorb indeterminate outcomes and still deliver
     everything (reliability is end-to-end) *)
  let rep = Cc_division.run { cc_cfg with Cc_division.bits = 16 } in
  check bool "completes with colliding ids" true
    rep.Cc_division.flow.Transport.Flow.completed;
  check int "all units" 800 rep.Cc_division.flow.Transport.Flow.units

let test_cc_division_deterministic () =
  let a = Cc_division.run cc_cfg and b = Cc_division.run cc_cfg in
  check bool "identical reports" true (a = b)

(* ------------------------------------------------------------------ *)
(* ACK reduction                                                       *)

let ar_cfg =
  { Ack_reduction.default_config with units = 800; warmup_units = 64; until = Time.s 120 }

let test_ack_reduction_completes () =
  let rep = Ack_reduction.run ar_cfg in
  check bool "completes" true rep.Ack_reduction.flow.Transport.Flow.completed;
  check int "all units" 800 rep.Ack_reduction.flow.Transport.Flow.units

let test_ack_reduction_reduces_acks () =
  let base, _ = Ack_reduction.baseline ar_cfg in
  let rep = Ack_reduction.run ar_cfg in
  check bool
    (Printf.sprintf "client acks %d << baseline %d" rep.Ack_reduction.client_acks
       base.Transport.Flow.acks_sent)
    true
    (rep.Ack_reduction.client_acks * 5 < base.Transport.Flow.acks_sent)

let test_ack_reduction_fct_comparable () =
  let base, _ = Ack_reduction.baseline ar_cfg in
  let rep = Ack_reduction.run ar_cfg in
  match (base.Transport.Flow.fct, rep.Ack_reduction.flow.Transport.Flow.fct) with
  | Some b, Some s ->
      let ratio = Time.to_float_s s /. Time.to_float_s b in
      check bool (Printf.sprintf "fct ratio %.2f <= 2" ratio) true (ratio <= 2.)
  | _ -> Alcotest.fail "both must complete"

let test_ack_reduction_no_spurious_retx () =
  let rep = Ack_reduction.run ar_cfg in
  check int "no spurious retransmissions" 0 rep.Ack_reduction.spurious_retx;
  check bool "window freed early" true (rep.Ack_reduction.window_freed_early_bytes > 0)

let test_ack_reduction_count_carried_vs_omitted () =
  let with_count = Ack_reduction.run { ar_cfg with Ack_reduction.omit_count = false } in
  let without = Ack_reduction.run { ar_cfg with Ack_reduction.omit_count = true } in
  check bool "both complete" true
    (with_count.Ack_reduction.flow.Transport.Flow.completed
    && without.Ack_reduction.flow.Transport.Flow.completed);
  check bool "omitting the count saves bytes" true
    (without.Ack_reduction.quack_bytes < with_count.Ack_reduction.quack_bytes)

let test_ack_reduction_survives_far_loss () =
  (* losses between proxy and client are invisible to quACKs; the
     provisional-deadline fallback must still deliver everything *)
  let cfg =
    {
      ar_cfg with
      Ack_reduction.far =
        Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 25)
          ~loss:(Path.Bernoulli 0.01) ();
    }
  in
  let rep = Ack_reduction.run cfg in
  check bool "completes" true rep.Ack_reduction.flow.Transport.Flow.completed;
  check int "all units" 800 rep.Ack_reduction.flow.Transport.Flow.units

(* The baseline counts client ACK bytes where the sidecar arm does:
   as the client sends them, not as the lossy return link delivers
   them. The forward path is lossless, so every ACK carries one range. *)
let test_ack_reduction_baseline_counts_sent_acks () =
  let cfg =
    {
      Ack_reduction.default_config with
      units = 600;
      far =
        Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 25)
          ~rev_loss:(Path.Bernoulli 0.2) ();
    }
  in
  let r, ack_bytes = Ack_reduction.baseline cfg in
  check int "every sent ACK counted"
    (r.Transport.Flow.acks_sent * Transport.Frames.ack_size ~ranges:1)
    ack_bytes

(* ------------------------------------------------------------------ *)
(* In-network retransmission                                           *)

let rx_cfg = { Retransmission.default_config with units = 800; until = Time.s 120 }

let test_retransmission_completes () =
  let rep = Retransmission.run rx_cfg in
  check bool "completes" true rep.Retransmission.flow.Transport.Flow.completed;
  check int "all units" 800 rep.Retransmission.flow.Transport.Flow.units

let test_retransmission_beats_baseline () =
  let base = Retransmission.baseline rx_cfg in
  let rep = Retransmission.run rx_cfg in
  match (base.Transport.Flow.fct, rep.Retransmission.flow.Transport.Flow.fct) with
  | Some b, Some s ->
      check bool
        (Printf.sprintf "sidecar %.2fs < baseline %.2fs" (Time.to_float_s s)
           (Time.to_float_s b))
        true (s < b)
  | _ -> Alcotest.fail "both must complete"

let test_retransmission_shields_e2e () =
  let base = Retransmission.baseline rx_cfg in
  let rep = Retransmission.run rx_cfg in
  check bool
    (Printf.sprintf "e2e retx %d < baseline %d"
       rep.Retransmission.flow.Transport.Flow.retransmissions
       base.Transport.Flow.retransmissions)
    true
    (rep.Retransmission.flow.Transport.Flow.retransmissions
    < base.Transport.Flow.retransmissions);
  check bool "proxy did the work" true (rep.Retransmission.proxy_retransmissions > 0)

let test_retransmission_adapts_frequency () =
  let rep = Retransmission.run { rx_cfg with Retransmission.adaptive = true } in
  check bool "frequency updated at least once" true
    (rep.Retransmission.freq_updates > 0)

let test_retransmission_clean_subpath_quiet () =
  let cfg =
    {
      rx_cfg with
      Retransmission.middle =
        Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 1) ();
    }
  in
  let rep = Retransmission.run cfg in
  check int "no proxy retransmissions on a clean subpath" 0
    rep.Retransmission.proxy_retransmissions;
  check bool "completes" true rep.Retransmission.flow.Transport.Flow.completed

let test_retransmission_nonadaptive () =
  let rep = Retransmission.run { rx_cfg with Retransmission.adaptive = false } in
  check bool "completes" true rep.Retransmission.flow.Transport.Flow.completed;
  check int "no frequency updates" 0 rep.Retransmission.freq_updates

(* ------------------------------------------------------------------ *)
(* Analytic recovery model                                             *)

let test_analysis_basics () =
  check (Alcotest.float 1e-9) "attempts at 0 loss" 1. (Analysis.expected_attempts ~loss:0.);
  check (Alcotest.float 1e-9) "attempts at 50%" 2. (Analysis.expected_attempts ~loss:0.5);
  let m = { Analysis.loss = 0.02; recovery_rtt = 0.060 } in
  check (Alcotest.float 1e-6) "recovery latency" (0.060 /. 0.98) (Analysis.recovery_latency m);
  check (Alcotest.float 1e-6) "mean overhead" (0.02 *. 0.060 /. 0.98)
    (Analysis.mean_latency_overhead m);
  Alcotest.check_raises "loss = 1" (Invalid_argument "Analysis: loss must be in [0, 1)")
    (fun () -> ignore (Analysis.expected_attempts ~loss:1.))

let test_analysis_speedup_is_rtt_ratio () =
  (* same loss on both models -> speedup = ratio of recovery RTTs *)
  let e2e = { Analysis.loss = 0.; recovery_rtt = 0.060 } in
  let inn = { Analysis.loss = 0.; recovery_rtt = 0.004 } in
  check (Alcotest.float 1e-9) "15x" 15. (Analysis.speedup ~loss:0.02 ~e2e ~in_network:inn)

let test_analysis_matches_simulation_direction () =
  (* the model predicts in-network recovery wins by ~RTT ratio; the
     simulator's default retransmission scenario must agree on the
     direction and at least a 2x margin *)
  let cfg = { Retransmission.default_config with units = 2000; until = Time.s 120 } in
  let base = Retransmission.baseline cfg in
  let rep = Retransmission.run cfg in
  let predicted =
    Analysis.speedup ~loss:0.015
      ~e2e:{ Analysis.loss = 0.; recovery_rtt = 0.060 }
      ~in_network:{ Analysis.loss = 0.; recovery_rtt = 0.004 }
  in
  check bool "model predicts a big win" true (predicted > 5.);
  match (base.Transport.Flow.fct, rep.Retransmission.flow.Transport.Flow.fct) with
  | Some b, Some s ->
      check bool "simulation agrees on direction" true
        (Time.to_float_s b /. Time.to_float_s s > 2.)
  | _ -> Alcotest.fail "both complete"

let test_analysis_detection_delay () =
  (* quACK every 64 packets at 1000 pps, 1 ms subpath OWD *)
  check (Alcotest.float 1e-9) "delay" 0.033
    (Analysis.quack_detection_delay ~interval_packets:64 ~packet_rate_pps:1000.
       ~subpath_owd:0.001)

(* ------------------------------------------------------------------ *)
(* Byte-level fidelity: in-network retransmission over real ciphertext *)

let test_retransmission_over_sealed_bytes () =
  (* Endpoints seal/open every data packet; proxies A and B handle only
     opaque bytes (ids extracted from the protected header, refills are
     byte-identical copies). The whole subpath-recovery machinery must
     work on literal ciphertext. *)
  let module Q = Sidecar_quack in
  let module L = Netsim.Link in
  Transport.Sealed.reset_counters ();
  let engine = Netsim.Engine.create ~seed:3 () in
  let key = Transport.Wire_image.key_gen ~seed:55 in
  let units = 500 in
  let mk name ?loss delay =
    L.create engine ~name ~rate_bps:50_000_000 ~delay ?loss ()
  in
  let s2a = mk "s2a" (Time.ms 10) in
  let a2b = mk "a2b" ~loss:(Netsim.Loss.bernoulli 0.02) (Time.ms 1) in
  let b2c = mk "b2c" (Time.ms 10) in
  let c2s = mk "c2s" (Time.ms 21) in
  (* proxy A: sender-side; buffers sealed packets by uid *)
  let a_ss =
    Q.Sender_state.create { Q.Sender_state.default_config with threshold = 32 }
  in
  let buffer : (int, Netsim.Packet.t) Hashtbl.t = Hashtbl.create 64 in
  let proxy_retx = ref 0 in
  let a_forward p =
    Q.Sender_state.on_send a_ss ~id:p.Netsim.Packet.id p;
    Hashtbl.replace buffer p.Netsim.Packet.uid p;
    ignore (L.send a2b p)
  in
  let a_on_quack q =
    match Q.Sender_state.on_quack a_ss q with
    | Ok rep when not rep.Q.Sender_state.stale ->
        List.iter
          (fun (p : Netsim.Packet.t) -> Hashtbl.remove buffer p.Netsim.Packet.uid)
          rep.Q.Sender_state.acked;
        List.iter
          (fun (p : Netsim.Packet.t) ->
            if Hashtbl.mem buffer p.Netsim.Packet.uid then begin
              incr proxy_retx;
              a_forward p
            end)
          rep.Q.Sender_state.lost
    | Ok _ -> ()
    | Error _ -> ignore (Q.Sender_state.resync_to a_ss q)
  in
  (* proxy B: receiver-side; quACKs every 16 sealed packets *)
  let b_rx = Q.Receiver_state.create ~threshold:32
      ~policy:(Q.Receiver_state.Every_packets 16) ()
  in
  let b_ingress p =
    (match Q.Receiver_state.on_receive b_rx p.Netsim.Packet.id with
    | Some q ->
        (* quACK travels out of band back to A (dedicated channel) *)
        Netsim.Engine.schedule engine ~delay:(Time.ms 1) (fun () -> a_on_quack q)
    | None -> ());
    ignore (L.send b2c p)
  in
  (* endpoints *)
  let sender =
    Transport.Sender.create engine ~pkt_threshold:1024 ~total_units:units
      ~egress:(Transport.Sealed.seal_egress ~key (fun p -> ignore (L.send s2a p)))
      ()
  in
  let receiver =
    Transport.Receiver.create engine ~total_units:units
      ~send_ack:(fun p -> ignore (L.send c2s p))
      ()
  in
  L.set_deliver s2a a_forward;
  L.set_deliver a2b b_ingress;
  L.set_deliver b2c (Transport.Sealed.unseal_data ~key (Transport.Receiver.deliver receiver));
  L.set_deliver c2s (Transport.Sender.deliver_ack sender);
  let result = Transport.Flow.run engine ~sender ~receiver ~until:(Time.s 120) () in
  check bool "completes over ciphertext" true result.Transport.Flow.completed;
  check int "all units" units result.Transport.Flow.units;
  check bool "proxy refilled losses" true (!proxy_retx > 0);
  check int "no auth failures" 0 (Transport.Sealed.auth_failures ())

(* ------------------------------------------------------------------ *)
(* Fault injection: the sidecar channel itself misbehaves              *)

let test_cc_division_survives_quack_loss () =
  (* 20% of everything on both return segments (e2e ACKs and quACKs)
     is dropped; cumulative sums must shrug it off *)
  let cfg =
    {
      cc_cfg with
      Cc_division.near =
        Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 28)
          ~rev_loss:(Path.Bernoulli 0.2) ();
      far =
        Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
          ~loss:(Path.Bernoulli 0.01) ~rev_loss:(Path.Bernoulli 0.2) ();
    }
  in
  let rep = Cc_division.run cfg in
  check bool "completes despite quACK loss" true
    rep.Cc_division.flow.Transport.Flow.completed;
  check int "all units" 800 rep.Cc_division.flow.Transport.Flow.units

let test_cc_division_quack_loss_still_beats_baseline () =
  let lossy_rev =
    {
      cc_cfg with
      Cc_division.far =
        Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
          ~loss:(Path.Bernoulli 0.01) ~rev_loss:(Path.Bernoulli 0.3) ();
    }
  in
  let base = Cc_division.baseline lossy_rev in
  let rep = Cc_division.run lossy_rev in
  match (base.Transport.Flow.fct, rep.Cc_division.flow.Transport.Flow.fct) with
  | Some b, Some s ->
      check bool
        (Printf.sprintf "sidecar %.2f < baseline %.2f with 30%% quACK loss"
           (Time.to_float_s s) (Time.to_float_s b))
        true (s < b)
  | _ -> Alcotest.fail "both must complete"

let test_retransmission_survives_subpath_jitter () =
  (* jitter reorders the subpath; the reorder machinery (tail grace +
     strikes + holdoff) must avoid a duplicate storm *)
  let cfg =
    {
      rx_cfg with
      Retransmission.middle =
        {
          (Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 1)
             ~loss:
               (Path.Gilbert
                  { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_bad = 0.3 })
             ())
          with
          Path.rate_bps = 50_000_000;
        };
      strikes_to_lose = 2;
    }
  in
  (* add jitter by rebuilding run with a jittery middle: Path.segment
     has no jitter knob, so emulate reordering pressure with strikes=2
     and verify duplicates stay bounded *)
  let rep = Retransmission.run cfg in
  check bool "completes" true rep.Retransmission.flow.Transport.Flow.completed;
  check bool
    (Printf.sprintf "duplicates %d bounded"
       rep.Retransmission.flow.Transport.Flow.duplicates)
    true
    (rep.Retransmission.flow.Transport.Flow.duplicates
    <= (2 * rep.Retransmission.proxy_retransmissions) + 5)

let test_ack_reduction_survives_quack_loss () =
  let cfg =
    {
      ar_cfg with
      Ack_reduction.near =
        Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 5)
          ~rev_loss:(Path.Bernoulli 0.25) ();
    }
  in
  let rep = Ack_reduction.run cfg in
  check bool "completes" true rep.Ack_reduction.flow.Transport.Flow.completed;
  check int "all units" 800 rep.Ack_reduction.flow.Transport.Flow.units

(* ------------------------------------------------------------------ *)
(* Fairness (two flows through one proxy)                              *)

let fair_cfg = { Fairness.default_config with units_per_flow = 600; until = Time.s 120 }

let test_fairness_both_complete () =
  let rep = Fairness.run fair_cfg in
  Array.iteri
    (fun i f ->
      check bool (Printf.sprintf "flow %d completes" i) true (f.Fairness.fct <> None))
    rep.Fairness.flows

let test_fairness_jain_reasonable () =
  let rep = Fairness.run fair_cfg in
  check bool
    (Printf.sprintf "jain %.3f >= 0.8" rep.Fairness.jain_index)
    true
    (rep.Fairness.jain_index >= 0.8)

let test_fairness_not_worse_than_baseline () =
  let base = Fairness.baseline fair_cfg in
  let side = Fairness.run fair_cfg in
  check bool
    (Printf.sprintf "sidecar jain %.3f vs baseline %.3f" side.Fairness.jain_index
       base.Fairness.jain_index)
    true
    (side.Fairness.jain_index >= base.Fairness.jain_index -. 0.15)

let test_jain_index_math () =
  check (Alcotest.float 1e-9) "equal rates" 1.0 (Fairness.jain [| 5.; 5. |]);
  check (Alcotest.float 1e-9) "total starvation" 0.5 (Fairness.jain [| 10.; 0. |]);
  check (Alcotest.float 1e-9) "empty-ish" 1.0 (Fairness.jain [| 0.; 0. |])

(* ------------------------------------------------------------------ *)
(* Split PEP comparator                                                *)

let sp_cfg = { Split_pep.default_config with units = 800; until = Time.s 120 }

let test_split_pep_completes () =
  let rep = Split_pep.run sp_cfg in
  check bool "client got everything" true
    rep.Split_pep.client_flow.Transport.Flow.completed;
  check int "units" 800 rep.Split_pep.client_flow.Transport.Flow.units

let test_split_pep_custody_before_delivery () =
  (* the PEP tells the server "done" before the client actually has
     the data — the custody hazard *)
  let rep = Split_pep.run sp_cfg in
  match (rep.Split_pep.server_fct, rep.Split_pep.client_flow.Transport.Flow.fct) with
  | Some server, Some client ->
      check bool "proxy acked server before delivery completed" true
        (server < client)
  | _ -> Alcotest.fail "both sides must complete"

let test_sidecar_approaches_split_pep () =
  (* the headline comparison: baseline << sidecar <= ~split-PEP *)
  let cc = { Cc_division.default_config with units = 800; until = Time.s 120 } in
  let base = Cc_division.baseline cc in
  let side = (Cc_division.run cc).Cc_division.flow in
  let pep =
    (Split_pep.run { sp_cfg with Split_pep.units = 800 }).Split_pep.client_flow
  in
  match (base.Transport.Flow.fct, side.Transport.Flow.fct, pep.Transport.Flow.fct) with
  | Some b, Some s, Some p ->
      check bool
        (Printf.sprintf "baseline %.2f > sidecar %.2f" (Time.to_float_s b)
           (Time.to_float_s s))
        true (b > s);
      check bool
        (Printf.sprintf "sidecar %.2f within 2x of split-PEP %.2f"
           (Time.to_float_s s) (Time.to_float_s p))
        true
        (Time.to_float_s s < 2. *. Time.to_float_s p)
  | _ -> Alcotest.fail "all three must complete"

let () =
  Alcotest.run "sidecar_protocols"
    [
      ( "path",
        [
          Alcotest.test_case "loss specs" `Quick test_loss_spec;
          Alcotest.test_case "rtt" `Quick test_path_rtt;
          Alcotest.test_case "baseline runs" `Quick test_path_baseline_runs;
        ] );
      ( "cc-division",
        [
          Alcotest.test_case "completes" `Slow test_cc_division_completes;
          Alcotest.test_case "beats baseline" `Slow test_cc_division_beats_baseline;
          Alcotest.test_case "isolates far loss" `Slow test_cc_division_isolates_server_from_far_loss;
          Alcotest.test_case "quacks flow" `Slow test_cc_division_quacks_flow;
          Alcotest.test_case "lossless far" `Slow test_cc_division_lossless_far;
          Alcotest.test_case "16-bit identifiers" `Slow test_cc_division_16bit_identifiers;
          Alcotest.test_case "deterministic" `Slow test_cc_division_deterministic;
        ] );
      ( "ack-reduction",
        [
          Alcotest.test_case "completes" `Slow test_ack_reduction_completes;
          Alcotest.test_case "reduces acks" `Slow test_ack_reduction_reduces_acks;
          Alcotest.test_case "fct comparable" `Slow test_ack_reduction_fct_comparable;
          Alcotest.test_case "no spurious retx" `Slow test_ack_reduction_no_spurious_retx;
          Alcotest.test_case "count omitted saves bytes" `Slow test_ack_reduction_count_carried_vs_omitted;
          Alcotest.test_case "survives far loss" `Slow test_ack_reduction_survives_far_loss;
          Alcotest.test_case "baseline counts sent ACKs" `Quick
            test_ack_reduction_baseline_counts_sent_acks;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "basics" `Quick test_analysis_basics;
          Alcotest.test_case "speedup = rtt ratio" `Quick test_analysis_speedup_is_rtt_ratio;
          Alcotest.test_case "matches simulation direction" `Slow test_analysis_matches_simulation_direction;
          Alcotest.test_case "detection delay" `Quick test_analysis_detection_delay;
        ] );
      ( "sealed-fidelity",
        [
          Alcotest.test_case "retransmission over ciphertext" `Slow
            test_retransmission_over_sealed_bytes;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "cc-division vs quACK loss" `Slow test_cc_division_survives_quack_loss;
          Alcotest.test_case "still beats baseline" `Slow test_cc_division_quack_loss_still_beats_baseline;
          Alcotest.test_case "retransmission vs reordering" `Slow test_retransmission_survives_subpath_jitter;
          Alcotest.test_case "ack-reduction vs quACK loss" `Slow test_ack_reduction_survives_quack_loss;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "both complete" `Slow test_fairness_both_complete;
          Alcotest.test_case "jain reasonable" `Slow test_fairness_jain_reasonable;
          Alcotest.test_case "not worse than baseline" `Slow test_fairness_not_worse_than_baseline;
          Alcotest.test_case "jain math" `Quick test_jain_index_math;
        ] );
      ( "split-pep",
        [
          Alcotest.test_case "completes" `Slow test_split_pep_completes;
          Alcotest.test_case "custody precedes delivery" `Slow test_split_pep_custody_before_delivery;
          Alcotest.test_case "sidecar approaches split-PEP" `Slow test_sidecar_approaches_split_pep;
        ] );
      ( "retransmission",
        [
          Alcotest.test_case "completes" `Slow test_retransmission_completes;
          Alcotest.test_case "beats baseline" `Slow test_retransmission_beats_baseline;
          Alcotest.test_case "shields e2e" `Slow test_retransmission_shields_e2e;
          Alcotest.test_case "adapts frequency" `Slow test_retransmission_adapts_frequency;
          Alcotest.test_case "clean subpath quiet" `Slow test_retransmission_clean_subpath_quiet;
          Alcotest.test_case "non-adaptive mode" `Slow test_retransmission_nonadaptive;
        ] );
    ]
