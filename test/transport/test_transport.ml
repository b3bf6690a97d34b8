open Transport
module Time = Netsim.Sim_time
module Loss = Netsim.Loss

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Sender/receiver pairs are wired through mutually recursive refs that
   are always filled before the engine runs. *)
let wired = function Some x -> x | None -> assert false

(* ------------------------------------------------------------------ *)
(* Rtt                                                                 *)

let test_rtt_first_sample () =
  let r = Rtt.create () in
  check bool "no sample yet" false (Rtt.has_sample r);
  check int "initial rto" (Time.ms 1000) (Rtt.rto r);
  Rtt.sample r (Time.ms 100);
  check int "srtt = first sample" (Time.ms 100) (Rtt.srtt r);
  check int "rttvar = half" (Time.ms 50) (Rtt.rttvar r)

let test_rtt_smoothing () =
  let r = Rtt.create () in
  Rtt.sample r (Time.ms 100);
  Rtt.sample r (Time.ms 100);
  check int "stable srtt" (Time.ms 100) (Rtt.srtt r);
  (* rttvar decays towards 0 on constant samples *)
  for _ = 1 to 20 do
    Rtt.sample r (Time.ms 100)
  done;
  check bool "rttvar decays" true (Rtt.rttvar r < Time.ms 10);
  (* a spike moves srtt by 1/8 *)
  Rtt.sample r (Time.ms 180);
  check int "srtt after spike" (Time.ms 110) (Rtt.srtt r)

let test_rtt_ignores_garbage () =
  let r = Rtt.create () in
  Rtt.sample r 0;
  Rtt.sample r (-5);
  check bool "still no sample" false (Rtt.has_sample r)

let test_rtt_rto_floor () =
  let r = Rtt.create () in
  for _ = 1 to 50 do
    Rtt.sample r (Time.us 100)
  done;
  check bool "rto floored at 10ms" true (Rtt.rto r >= Time.ms 10)

(* ------------------------------------------------------------------ *)
(* Congestion controllers                                              *)

let test_newreno_slow_start () =
  let cc = Newreno.create ~mss:1500 () in
  let w0 = cc.Cc.cwnd () in
  check int "IW10" 15000 w0;
  check bool "in slow start" true (cc.Cc.in_slow_start ());
  cc.Cc.on_ack ~now:0 ~acked_bytes:15000 ~rtt:None;
  check int "doubles per rtt" 30000 (cc.Cc.cwnd ())

let test_newreno_congestion () =
  let cc = Newreno.create ~mss:1500 () in
  cc.Cc.on_ack ~now:0 ~acked_bytes:150000 ~rtt:None;
  let w = cc.Cc.cwnd () in
  cc.Cc.on_congestion ~now:0;
  check int "halved" (w / 2) (cc.Cc.cwnd ());
  check bool "left slow start" false (cc.Cc.in_slow_start ())

let test_newreno_congestion_avoidance_linear () =
  let cc = Newreno.create ~mss:1500 () in
  cc.Cc.on_congestion ~now:0;
  let w0 = cc.Cc.cwnd () in
  (* one window's worth of acks grows cwnd by ~one mss *)
  let acked = ref 0 in
  while !acked < w0 do
    cc.Cc.on_ack ~now:0 ~acked_bytes:1500 ~rtt:None;
    acked := !acked + 1500
  done;
  let grown = cc.Cc.cwnd () - w0 in
  check bool (Printf.sprintf "additive increase ~mss (got %d)" grown) true
    (grown >= 1200 && grown <= 1900)

let test_newreno_timeout_collapse () =
  let cc = Newreno.create ~mss:1500 () in
  cc.Cc.on_ack ~now:0 ~acked_bytes:150000 ~rtt:None;
  cc.Cc.on_timeout ();
  check int "collapse to 2 mss" 3000 (cc.Cc.cwnd ())

let test_newreno_floor () =
  let cc = Newreno.create ~mss:1500 () in
  for _ = 1 to 20 do
    cc.Cc.on_congestion ~now:0
  done;
  check bool "never below 2 mss" true (cc.Cc.cwnd () >= 3000)

let test_cubic_basic_growth () =
  let cc = Cubic.create ~mss:1500 () in
  check bool "slow start initially" true (cc.Cc.in_slow_start ());
  cc.Cc.on_ack ~now:0 ~acked_bytes:15000 ~rtt:(Some (Time.ms 50));
  check bool "grows in slow start" true (cc.Cc.cwnd () > 15000)

let test_cubic_beta_decrease () =
  let cc = Cubic.create ~mss:1500 () in
  cc.Cc.on_ack ~now:0 ~acked_bytes:300000 ~rtt:(Some (Time.ms 50));
  let w = cc.Cc.cwnd () in
  cc.Cc.on_congestion ~now:(Time.ms 100);
  let w' = cc.Cc.cwnd () in
  check bool
    (Printf.sprintf "beta=0.7 reduction (%d -> %d)" w w')
    true
    (Float.abs ((float_of_int w' /. float_of_int w) -. 0.7) < 0.05)

let test_cubic_regrows_after_congestion () =
  let cc = Cubic.create ~mss:1500 () in
  cc.Cc.on_ack ~now:0 ~acked_bytes:300000 ~rtt:(Some (Time.ms 50));
  cc.Cc.on_congestion ~now:(Time.ms 100);
  let w_low = cc.Cc.cwnd () in
  (* feed acks over simulated seconds: cubic regrows towards w_max *)
  let now = ref (Time.ms 100) in
  for _ = 1 to 200 do
    now := Time.add !now (Time.ms 50);
    cc.Cc.on_ack ~now:!now ~acked_bytes:30000 ~rtt:(Some (Time.ms 50))
  done;
  check bool "window regrew" true (cc.Cc.cwnd () > w_low)

let test_fixed_cc () =
  let cc = Cc.fixed ~cwnd_bytes:5000 in
  cc.Cc.on_ack ~now:0 ~acked_bytes:100000 ~rtt:None;
  cc.Cc.on_congestion ~now:0;
  check int "constant" 5000 (cc.Cc.cwnd ())

let test_vegas_tracks_low_delay () =
  let cc = Vegas.create ~mss:1500 () in
  (* constant 20 ms RTT: no backlog, window should keep growing *)
  let now = ref 0 in
  for _ = 1 to 100 do
    now := Time.add !now (Time.ms 20);
    cc.Cc.on_ack ~now:!now ~acked_bytes:15_000 ~rtt:(Some (Time.ms 20))
  done;
  check bool "grows on an uncongested path" true (cc.Cc.cwnd () > 15_000)

let test_vegas_backs_off_on_queueing () =
  let cc = Vegas.create ~mss:1500 () in
  let now = ref 0 in
  for _ = 1 to 60 do
    now := Time.add !now (Time.ms 20);
    cc.Cc.on_ack ~now:!now ~acked_bytes:15_000 ~rtt:(Some (Time.ms 20))
  done;
  let w = cc.Cc.cwnd () in
  (* RTT inflates 4x: large backlog estimate -> window must shrink *)
  for _ = 1 to 60 do
    now := Time.add !now (Time.ms 80);
    cc.Cc.on_ack ~now:!now ~acked_bytes:15_000 ~rtt:(Some (Time.ms 80))
  done;
  check bool
    (Printf.sprintf "shrinks under queueing (%d -> %d)" w (cc.Cc.cwnd ()))
    true
    (cc.Cc.cwnd () < w)

let test_vegas_flow_completes () =
  let r =
    Flow.direct ~units:2000 ~cc:(fun ~mss () -> Vegas.create ~mss ()) ()
  in
  check bool "completes" true r.Flow.completed

let test_bbr_startup_growth () =
  let cc = Bbr_lite.create ~mss:1500 () in
  check bool "starts in startup" true (cc.Cc.in_slow_start ());
  (* feed acks at a steady 10 Mbit/s with a 20 ms RTT *)
  let now = ref 0 in
  for _ = 1 to 50 do
    now := Time.add !now (Time.ms 20);
    cc.Cc.on_ack ~now:!now ~acked_bytes:25_000 ~rtt:(Some (Time.ms 20))
  done;
  (* model: bw ~ 1.25 MB/s, rtprop 20 ms -> BDP 25 kB; cwnd = gain * BDP *)
  let w = cc.Cc.cwnd () in
  check bool (Printf.sprintf "cwnd %d tracks BDP" w) true (w > 25_000 && w < 200_000)

let test_bbr_exits_startup_on_plateau () =
  let cc = Bbr_lite.create ~mss:1500 () in
  let now = ref 0 in
  for _ = 1 to 200 do
    now := Time.add !now (Time.ms 20);
    cc.Cc.on_ack ~now:!now ~acked_bytes:25_000 ~rtt:(Some (Time.ms 20))
  done;
  check bool "left startup once rate stopped growing" false (cc.Cc.in_slow_start ())

let test_bbr_ignores_single_loss () =
  let cc = Bbr_lite.create ~mss:1500 () in
  let now = ref 0 in
  for _ = 1 to 50 do
    now := Time.add !now (Time.ms 20);
    cc.Cc.on_ack ~now:!now ~acked_bytes:25_000 ~rtt:(Some (Time.ms 20))
  done;
  let w = cc.Cc.cwnd () in
  cc.Cc.on_congestion ~now:!now;
  check int "model-based: loss does not halve the window" w (cc.Cc.cwnd ())

let test_bbr_flow_over_lossy_path () =
  (* the point of BBR: non-congestive loss does not crater throughput *)
  let reno = Flow.direct ~units:3000 ~loss:(Loss.bernoulli 0.02) () in
  let bbr =
    Flow.direct ~units:3000 ~loss:(Loss.bernoulli 0.02)
      ~cc:(fun ~mss () -> Bbr_lite.create ~mss ())
      ()
  in
  check bool "bbr completes" true bbr.Flow.completed;
  check bool
    (Printf.sprintf "bbr %.1f > reno %.1f Mbit/s on 2%% loss" bbr.Flow.goodput_mbps
       reno.Flow.goodput_mbps)
    true
    (bbr.Flow.goodput_mbps > reno.Flow.goodput_mbps)

(* ------------------------------------------------------------------ *)
(* End-to-end flows                                                    *)

let test_flow_lossless_completes () =
  let r = Flow.direct ~units:500 () in
  check bool "completed" true r.Flow.completed;
  check int "no retransmissions" 0 r.Flow.retransmissions;
  check int "all units" 500 r.Flow.units;
  check int "exactly 500 transmissions" 500 r.Flow.transmissions

let test_flow_utilization () =
  (* long transfer should approach link rate *)
  let r = Flow.direct ~units:20_000 ~rate_bps:50_000_000 ~delay:(Time.ms 5) () in
  check bool
    (Printf.sprintf "goodput %.1f of 50" r.Flow.goodput_mbps)
    true
    (r.Flow.goodput_mbps > 40.)

let test_flow_lossy_completes () =
  let r = Flow.direct ~units:2000 ~loss:(Loss.bernoulli 0.05) () in
  check bool "completed despite 5% loss" true r.Flow.completed;
  check bool "retransmissions happened" true (r.Flow.retransmissions > 0);
  check int "every unit delivered" 2000 r.Flow.units

let test_flow_heavy_loss_completes () =
  let r = Flow.direct ~units:300 ~loss:(Loss.bernoulli 0.25) () in
  check bool "completed despite 25% loss" true r.Flow.completed;
  check int "every unit delivered" 300 r.Flow.units

let test_flow_loss_hurts_throughput () =
  let clean = Flow.direct ~units:3000 () in
  let lossy = Flow.direct ~units:3000 ~loss:(Loss.bernoulli 0.02) () in
  check bool "loss reduces goodput" true
    (lossy.Flow.goodput_mbps < clean.Flow.goodput_mbps *. 0.8)

let test_flow_cubic_vs_newreno_lossless () =
  let nr = Flow.direct ~units:2000 () in
  let cu = Flow.direct ~units:2000 ~cc:(fun ~mss () -> Cubic.create ~mss ()) () in
  check bool "both complete" true (nr.Flow.completed && cu.Flow.completed);
  (* lossless slow-start-dominated transfer: comparable FCTs *)
  match (nr.Flow.fct, cu.Flow.fct) with
  | Some a, Some b ->
      let ratio = Time.to_float_s a /. Time.to_float_s b in
      check bool (Printf.sprintf "ratio %.2f" ratio) true (ratio > 0.5 && ratio < 2.)
  | _ -> Alcotest.fail "missing fct"

let test_flow_ack_frequency_tradeoff () =
  let frequent = Flow.direct ~units:2000 ~ack_every:2 () in
  let sparse = Flow.direct ~units:2000 ~ack_every:64 () in
  check bool "both complete" true (frequent.Flow.completed && sparse.Flow.completed);
  check bool "sparse sends far fewer acks" true
    (sparse.Flow.acks_sent * 4 < frequent.Flow.acks_sent)

let test_flow_deterministic () =
  let a = Flow.direct ~seed:9 ~units:1000 ~loss:(Loss.bernoulli 0.03) () in
  let b = Flow.direct ~seed:9 ~units:1000 ~loss:(Loss.bernoulli 0.03) () in
  check bool "identical results" true (a = b)

let test_flow_bdp_limited () =
  (* tiny fixed window over a long-delay path: throughput = w / rtt *)
  let r =
    Flow.direct ~units:1000 ~rate_bps:1_000_000_000 ~delay:(Time.ms 50)
      ~cc:(fun ~mss:_ () -> Cc.fixed ~cwnd_bytes:30_000)
      ()
  in
  (* 30 kB / 100 ms = 2.4 Mbit/s; payload fraction scales it slightly *)
  check bool
    (Printf.sprintf "window-limited %.2f Mbit/s" r.Flow.goodput_mbps)
    true
    (r.Flow.goodput_mbps > 1.5 && r.Flow.goodput_mbps < 2.5)

(* ------------------------------------------------------------------ *)
(* Receiver details                                                    *)

let test_receiver_acks_every_k () =
  let e = Netsim.Engine.create () in
  let acks = ref [] in
  let rx =
    Receiver.create e ~ack_every:4 ~total_units:100
      ~send_ack:(fun p -> acks := p :: !acks)
      ()
  in
  for seq = 0 to 7 do
    Receiver.deliver rx
      (Frames.data_packet ~uid:seq ~flow:0 ~id:seq ~seq ~size:1500 ~offset:seq ~now:0)
  done;
  check int "2 acks for 8 packets" 2 (List.length !acks);
  match !acks with
  | last :: _ -> (
      match last.Netsim.Packet.payload with
      | Frames.Ack { largest; ranges; acked_units } ->
          check int "largest" 7 largest;
          check int "units" 8 acked_units;
          check bool "single contiguous range" true (ranges = [ (0, 7) ])
      | _ -> Alcotest.fail "not an ack")
  | [] -> Alcotest.fail "no acks"

let test_receiver_sack_ranges_with_gap () =
  let e = Netsim.Engine.create () in
  let acks = ref [] in
  let rx =
    Receiver.create e ~ack_every:1 ~total_units:100
      ~send_ack:(fun p -> acks := p :: !acks)
      ()
  in
  List.iter
    (fun seq ->
      Receiver.deliver rx
        (Frames.data_packet ~uid:seq ~flow:0 ~id:seq ~seq ~size:1500 ~offset:seq ~now:0))
    [ 0; 1; 3; 4; 7 ];
  match !acks with
  | last :: _ -> (
      match last.Netsim.Packet.payload with
      | Frames.Ack { ranges; _ } ->
          check
            (Alcotest.list (Alcotest.pair int int))
            "descending disjoint ranges"
            [ (7, 7); (3, 4); (0, 1) ]
            ranges
      | _ -> Alcotest.fail "not an ack")
  | [] -> Alcotest.fail "no acks"

let test_receiver_delayed_ack_timer () =
  let e = Netsim.Engine.create () in
  let acks = ref 0 in
  let rx =
    Receiver.create e ~ack_every:10 ~max_ack_delay:(Time.ms 25) ~total_units:10
      ~send_ack:(fun _ -> incr acks)
      ()
  in
  Receiver.deliver rx (Frames.data_packet ~uid:0 ~flow:0 ~id:0 ~seq:0 ~size:1500 ~offset:0 ~now:0);
  Netsim.Engine.run e;
  check int "delayed ack fired" 1 !acks;
  check bool "fired at 25ms" true (Netsim.Engine.now e = Time.ms 25)

let test_receiver_duplicate_units () =
  let e = Netsim.Engine.create () in
  let rx = Receiver.create e ~total_units:10 ~send_ack:(fun _ -> ()) () in
  Receiver.deliver rx (Frames.data_packet ~uid:0 ~flow:0 ~id:0 ~seq:0 ~size:1500 ~offset:3 ~now:0);
  Receiver.deliver rx (Frames.data_packet ~uid:1 ~flow:0 ~id:1 ~seq:1 ~size:1500 ~offset:3 ~now:0);
  check int "one distinct unit" 1 (Receiver.received_units rx);
  check int "one duplicate" 1 (Receiver.duplicates rx)

(* ------------------------------------------------------------------ *)
(* Sender details                                                      *)

let test_sender_window_limits_inflight () =
  let e = Netsim.Engine.create () in
  let sent = ref 0 in
  let sender =
    Sender.create e ~mss:1460
      ~cc:(Cc.fixed ~cwnd_bytes:(5 * 1500))
      ~total_units:100
      ~egress:(fun _ -> incr sent)
      ()
  in
  Sender.start sender;
  check int "window-limited burst" 5 !sent;
  check int "bytes in flight" (5 * 1500) (Sender.bytes_in_flight sender)

let test_sender_pto_recovers_lost_tail () =
  (* Drop everything the sender first sends; PTO must eventually
     retransmit and complete. *)
  let e = Netsim.Engine.create () in
  let drop_first = ref 3 in
  let rx = ref None in
  let sender_ref = ref None in
  let sender =
    Sender.create e ~mss:1460 ~total_units:3
      ~egress:(fun p ->
        if !drop_first > 0 then decr drop_first
        else
          Netsim.Engine.schedule e ~delay:(Time.ms 5) (fun () ->
              Receiver.deliver (wired !rx) p))
      ()
  in
  sender_ref := Some sender;
  let receiver =
    Receiver.create e ~total_units:3
      ~send_ack:(fun p ->
        Netsim.Engine.schedule e ~delay:(Time.ms 5) (fun () ->
            Sender.deliver_ack (wired !sender_ref) p))
      ()
  in
  rx := Some receiver;
  Sender.start sender;
  Netsim.Engine.run ~until:(Time.s 60) e;
  check bool "completed after total initial loss" true
    (Receiver.complete_at receiver <> None);
  check bool "timeouts counted" true ((Sender.stats sender).Sender.timeouts > 0)

let test_sender_sidecar_ack_frees_window () =
  let e = Netsim.Engine.create () in
  let sent = ref [] in
  let sender =
    Sender.create e ~mss:1460
      ~cc:(Cc.fixed ~cwnd_bytes:(3 * 1500))
      ~total_units:100
      ~egress:(fun p -> sent := p :: !sent)
      ()
  in
  Sender.start sender;
  check int "3 in flight" 3 (List.length !sent);
  let seqs = List.rev_map (fun p -> p.Netsim.Packet.seq) !sent in
  let freed = Sender.sidecar_ack sender ~seqs in
  check int "freed bytes" (3 * 1500) freed;
  check int "window refilled" 6 (List.length !sent)

let test_sender_external_cc_ignores_e2e_acks () =
  let e = Netsim.Engine.create () in
  let sender =
    Sender.create e ~mss:1460 ~external_cc:true ~total_units:1000
      ~egress:(fun _ -> ())
      ()
  in
  Sender.start sender;
  let w0 = Sender.cwnd sender in
  Sender.deliver_ack sender
    (Frames.ack_packet ~uid:0 ~flow:0 ~id:0 ~seq:0 ~size:40 ~largest:5 ~ranges:[ (0, 5) ]
       ~acked_units:6 ~now:0);
  check int "cwnd unmoved by e2e ack" w0 (Sender.cwnd sender);
  Sender.external_ack sender ~acked_bytes:15000 ~rtt:None;
  check bool "cwnd moved by external ack" true (Sender.cwnd sender > w0)

(* ------------------------------------------------------------------ *)
(* Sealed datapath: whole flows over actual ciphertext                 *)

let run_sealed_flow ?(units = 800) ?(loss = Loss.none) ?(tamper = false) () =
  Sealed.reset_counters ();
  let e = Netsim.Engine.create ~seed:5 () in
  let key = Wire_image.key_gen ~seed:77 in
  let fwd =
    Netsim.Link.create e ~name:"fwd" ~rate_bps:20_000_000 ~delay:(Time.ms 10) ~loss ()
  in
  let rev = Netsim.Link.create e ~name:"rev" ~rate_bps:20_000_000 ~delay:(Time.ms 10) () in
  (* the sidecar observes ciphertext ids in the middle of the path *)
  let observed = ref [] in
  let sender =
    Sender.create e ~total_units:units
      ~egress:(Sealed.seal_egress ~key (fun p -> ignore (Netsim.Link.send fwd p)))
      ()
  in
  let receiver =
    Receiver.create e ~total_units:units
      ~send_ack:(fun p -> ignore (Netsim.Link.send rev p))
      ()
  in
  Netsim.Link.set_deliver fwd (fun p ->
      (match p.Netsim.Packet.payload with
      | Sealed.Sealed wire ->
          observed := Wire_image.extract_id wire ~bits:32 :: !observed;
          if tamper then begin
            (* an adversarial middlebox flips a payload bit *)
            let b = Bytes.of_string wire in
            Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 1));
            Sealed.unseal_data ~key (Receiver.deliver receiver)
              { p with Netsim.Packet.payload = Sealed.Sealed (Bytes.to_string b) }
          end
          else Sealed.unseal_data ~key (Receiver.deliver receiver) p
      | _ -> Sealed.unseal_data ~key (Receiver.deliver receiver) p));
  Netsim.Link.set_deliver rev (Sender.deliver_ack sender);
  let result = Flow.run e ~sender ~receiver ~until:(Time.s 60) () in
  (result, !observed)

let test_sealed_flow_completes () =
  let result, observed = run_sealed_flow () in
  check bool "completed over ciphertext" true result.Flow.completed;
  check int "every unit" 800 result.Flow.units;
  (* extracted ids match what the sender's packets advertised *)
  let distinct = List.length (List.sort_uniq compare observed) in
  check bool "ids pseudo-random" true (distinct >= 795)

let test_sealed_flow_with_loss () =
  let result, _ = run_sealed_flow ~loss:(Loss.bernoulli 0.03) () in
  check bool "completed despite loss" true result.Flow.completed;
  check bool "retransmitted" true (result.Flow.retransmissions > 0);
  check int "no auth failures" 0 (Sealed.auth_failures ())

let test_sealed_tamper_is_loss () =
  (* a meddling middlebox can only turn packets into losses *)
  let result, _ = run_sealed_flow ~units:200 ~tamper:true () in
  check bool "auth failures counted" true (Sealed.auth_failures () > 0);
  (* the transport treats tampering as loss and recovers via PTO...
     eventually; with every packet tampered nothing can get through,
     so completion must NOT happen *)
  check bool "total tampering = total loss" false result.Flow.completed

(* ------------------------------------------------------------------ *)
(* Codec: varints and frames                                           *)

let test_varint_roundtrip () =
  List.iter
    (fun v ->
      let buf = Buffer.create 8 in
      Codec.put_varint buf v;
      let s = Buffer.contents buf in
      check int (Printf.sprintf "size of %d" v) (Codec.varint_size v) (String.length s);
      let v', pos = Codec.get_varint s ~pos:0 in
      check int "value" v v';
      check int "consumed all" (String.length s) pos)
    [ 0; 1; 63; 64; 16383; 16384; 0x3FFFFFFF; 0x40000000; (1 lsl 62) - 1 ]

let test_varint_boundaries () =
  check int "1-byte max" 1 (Codec.varint_size 63);
  check int "2-byte min" 2 (Codec.varint_size 64);
  check int "4-byte" 4 (Codec.varint_size 20000);
  check int "8-byte" 8 (Codec.varint_size (1 lsl 40));
  Alcotest.check_raises "negative" (Invalid_argument "Codec.varint_size: out of range")
    (fun () -> ignore (Codec.varint_size (-1)))

let test_frames_roundtrip () =
  let frames =
    [
      Codec.Data { offset = 12345 };
      Codec.Ack { largest = 999; ranges = [ (990, 999); (0, 500) ]; acked_units = 501 };
      Codec.Padding 37;
    ]
  in
  let encoded = Codec.encode_frames ~seq:777 frames in
  match Codec.decode_frames encoded with
  | Ok (seq, decoded) ->
      check int "seq" 777 seq;
      check bool "frames" true (decoded = frames)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_frames_reject_garbage () =
  (match Codec.decode_frames "\xff\xff\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated varint accepted");
  (* unknown frame type *)
  let buf = Buffer.create 8 in
  Codec.put_varint buf 5;
  Codec.put_varint buf 99;
  match Codec.decode_frames (Buffer.contents buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown frame type accepted"

let qcheck_sealed =
  let open QCheck in
  [
    Test.make ~name:"seal/open roundtrips any plaintext" ~count:200
      (pair small_string (int_bound 0xFFFF))
      (fun (plaintext, pn) ->
        let k = Wire_image.key_gen ~seed:3 in
        match Wire_image.open_ k (Wire_image.seal k ~conn_id:5L ~packet_number:pn ~plaintext) with
        | Ok (pn', pt) -> pn' = pn && String.equal pt plaintext
        | Error _ -> false);
    Test.make ~name:"open_ never raises on random bytes" ~count:300 string
      (fun s ->
        let k = Wire_image.key_gen ~seed:4 in
        match Wire_image.open_ k s with Ok _ | Error _ -> true);
    Test.make ~name:"truncated sealed packet never opens" ~count:200
      (pair small_string (int_bound 0xFFFF))
      (fun (plaintext, pn) ->
        (* an on-path adversary chopping bytes off a genuine packet
           must always get a clean [Error], never an [Ok] (the tag
           covers the length) and never an exception *)
        let k = Wire_image.key_gen ~seed:5 in
        let wire = Wire_image.seal k ~conn_id:7L ~packet_number:pn ~plaintext in
        let ok = ref true in
        for len = 0 to String.length wire - 1 do
          match Wire_image.open_ k (String.sub wire 0 len) with
          | Ok _ -> ok := false
          | Error (`Too_short | `Bad_tag) -> ()
        done;
        !ok);
  ]

let qcheck_codec =
  let open QCheck in
  [
    Test.make ~name:"varint roundtrips any 62-bit value" ~count:500
      (map abs int) (fun v ->
        let v = v land ((1 lsl 62) - 1) in
        let buf = Buffer.create 8 in
        Codec.put_varint buf v;
        fst (Codec.get_varint (Buffer.contents buf) ~pos:0) = v);
    Test.make ~name:"decode_frames never raises on random bytes" ~count:500
      string (fun s ->
        match Codec.decode_frames s with Ok _ | Error _ -> true);
  ]

(* ------------------------------------------------------------------ *)
(* Wire image: toy AEAD + header protection                            *)

let wkey = Wire_image.key_gen ~seed:11

let test_wire_seal_open () =
  let plaintext = Codec.encode_frames ~seq:42 [ Codec.Data { offset = 7 } ] in
  let wire = Wire_image.seal wkey ~conn_id:0xABCDL ~packet_number:42 ~plaintext in
  check int "size" (String.length plaintext + Wire_image.min_size) (String.length wire);
  (match Wire_image.open_ wkey wire with
  | Ok (pn, pt) ->
      check int "packet number" 42 pn;
      check bool "plaintext" true (String.equal pt plaintext)
  | Error _ -> Alcotest.fail "legitimate packet rejected");
  check bool "conn id readable in clear" true
    (Wire_image.conn_id_of_wire wire = 0xABCDL)

let test_wire_tamper_detected () =
  let wire = Wire_image.seal wkey ~conn_id:1L ~packet_number:5 ~plaintext:"hello" in
  for i = 0 to String.length wire - 1 do
    let b = Bytes.of_string wire in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match Wire_image.open_ wkey (Bytes.to_string b) with
    | Error `Bad_tag -> ()
    | Error `Too_short -> Alcotest.fail "length unchanged"
    | Ok _ -> Alcotest.failf "bit flip at %d accepted" i
  done

let test_wire_wrong_key () =
  let other = Wire_image.key_gen ~seed:12 in
  let wire = Wire_image.seal wkey ~conn_id:1L ~packet_number:5 ~plaintext:"hello" in
  match Wire_image.open_ other wire with
  | Error `Bad_tag -> ()
  | _ -> Alcotest.fail "wrong key must fail"

let test_wire_ids_look_random () =
  (* identifiers extracted from consecutive packet numbers must be
     spread out — this is what header protection buys the quACK *)
  let ids =
    List.init 1000 (fun pn ->
        let wire = Wire_image.seal wkey ~conn_id:9L ~packet_number:pn ~plaintext:"xx" in
        Wire_image.extract_id wire ~bits:32)
  in
  let distinct = List.length (List.sort_uniq compare ids) in
  check bool (Printf.sprintf "%d distinct of 1000" distinct) true (distinct > 995);
  (* crude uniformity: mean of top bit *)
  let ones = List.length (List.filter (fun id -> id land 0x80000000 <> 0) ids) in
  check bool (Printf.sprintf "top bit ones=%d" ones) true (ones > 420 && ones < 580)

let test_wire_end_to_end_quack () =
  (* full-fidelity path: sender seals packets; the sidecar sees only
     bytes; a quACK over byte-extracted ids decodes the missing set *)
  let open Sidecar_quack in
  let n = 300 in
  let dropped = [ 13; 130; 250 ] in
  let sent = Psum.create ~threshold:8 () in
  let received = Psum.create ~threshold:8 () in
  let log = ref [] in
  for pn = 0 to n - 1 do
    let plaintext = Codec.encode_frames ~seq:pn [ Codec.Data { offset = pn } ] in
    let wire = Wire_image.seal wkey ~conn_id:3L ~packet_number:pn ~plaintext in
    let id = Wire_image.extract_id wire ~bits:32 in
    Psum.insert sent id;
    log := (id, pn) :: !log;
    if not (List.mem pn dropped) then Psum.insert received id
  done;
  let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
  match
    Decoder.decode ~field:(Psum.field sent) ~diff_sums:diff
      ~num_missing:(List.length dropped)
      ~candidates:(List.rev_map fst !log) ()
  with
  | Ok { missing; unresolved = 0 } ->
      let pns =
        List.filter_map
          (fun (id, pn) -> if List.mem id missing then Some pn else None)
          !log
      in
      check (Alcotest.list int) "dropped PNs recovered" dropped (List.sort compare pns)
  | _ -> Alcotest.fail "decode failed over real wire bytes"

let test_sender_streaming_availability () =
  let e = Netsim.Engine.create () in
  let sent = ref 0 in
  let sender =
    Sender.create e ~mss:1460 ~initially_available:2 ~total_units:10
      ~cc:(Cc.fixed ~cwnd_bytes:(100 * 1500))
      ~egress:(fun _ -> incr sent)
      ()
  in
  Sender.start sender;
  check int "only available units sent" 2 !sent;
  Sender.make_available sender 7;
  check int "watermark raise sends more" 7 !sent;
  Sender.make_available sender 3;
  check int "watermark is monotone" 7 !sent;
  Sender.make_available sender 100;
  check int "clamped to total" 10 !sent

(* One ACK that reveals many losses at once. They are re-queued in the
   order the sender's former in-flight [Hashtbl.create 1024] gave them
   (bucket descending, then seq ascending; see [retx_order] in
   sender.ml),
   and that order reaches every report downstream. This pins one
   instance observed on the table itself; the property below checks
   the order against a real table over random histories. *)
let test_sender_multi_loss_retx_order () =
  let e = Netsim.Engine.create () in
  let sent = ref [] in
  let sender =
    Sender.create e ~mss:1460
      ~cc:(Cc.fixed ~cwnd_bytes:(20 * 1500))
      ~total_units:100
      ~egress:(fun p ->
        match p.Netsim.Packet.payload with
        | Frames.Data { offset } -> sent := offset :: !sent
        | _ -> ())
      ()
  in
  Sender.start sender;
  check int "initial window" 20 (List.length !sent);
  sent := [];
  (* seqs 6..8 and 19 arrive; 0..5 and 9..15 fall behind the packet
     threshold (3), 16..18 are younger than the time threshold *)
  Netsim.Engine.schedule e ~delay:(Time.ms 10) (fun () ->
      Sender.deliver_ack sender
        (Frames.ack_packet ~uid:0 ~flow:0 ~id:0 ~seq:0 ~size:40 ~largest:19
           ~ranges:[ (19, 19); (6, 8) ] ~acked_units:4 ~now:(Time.ms 10)));
  Netsim.Engine.run ~until:(Time.ms 10) e;
  let after = List.rev !sent in
  let retx = List.filter (fun o -> o < 20) after in
  check (Alcotest.list int) "retransmission order"
    [ 3; 5; 10; 14; 12; 11; 9; 15; 4; 1; 0; 13; 2 ] retx;
  check int "retransmissions counted" 13 (Sender.stats sender).Sender.retransmissions;
  check (Alcotest.list int) "then new data" [ 20; 21; 22; 23 ]
    (List.filter (fun o -> o >= 20) after)

(* Random sender histories against a shadow of the in-flight set kept
   in a real [Hashtbl.create 1024], filled and emptied as the old
   sender's table was. Ops are new data, ACKs with random ranges,
   [sidecar_ack]s, each after a random delay, and whatever PTOs fire
   in between; the window is so large that every re-queued unit goes
   out within the event that queued it. After each event the shadow
   drops what the event itself removed (acked or sidecar-acked seqs,
   the oldest seq on a PTO) and reads the losses off the event's
   retransmissions: a resent unit still in flight in the shadow was
   declared lost. Their order must be the table's iter-plus-cons
   order, and the shadow must hold exactly [bytes_in_flight]. Some
   histories put more than 2,048 packets in flight, past the table's
   first resize. *)
type sender_op = Send of int | Ack of (int * int) list | Sidecar of (int * int) list

let qcheck_sender_loss_order =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (4, map (fun n -> Send n) (int_range 1 40));
          (1, map (fun n -> Send n) (int_range 400 2600));
          ( 6,
            map (fun r -> Ack r)
              (list_size (int_range 1 4) (pair (int_bound 1000) (int_bound 200))) );
          ( 1,
            map (fun r -> Sidecar r)
              (list_size (int_range 1 3) (pair (int_bound 1000) (int_bound 60))) );
        ])
  in
  let delay_ms =
    Gen.(frequency [ (6, int_bound 20); (2, int_range 20 300); (1, int_range 300 3000) ])
  in
  let print_op = function
    | Send n -> Printf.sprintf "Send %d" n
    | Ack r -> "Ack " ^ Print.(list (pair int int)) r
    | Sidecar r -> "Sidecar " ^ Print.(list (pair int int)) r
  in
  [
    Test.make ~name:"multi-loss re-queue order = Hashtbl.create 1024 iter order"
      ~count:150
      (make
         ~print:Print.(list (pair int print_op))
         Gen.(list_size (int_range 1 40) (pair delay_ms op)))
      (fun ops ->
        let total_units = 8000 in
        let e = Netsim.Engine.create () in
        let burst = ref [] in
        let sender =
          Sender.create e ~cc:(Cc.fixed ~cwnd_bytes:(1 lsl 40)) ~initially_available:0
            ~total_units
            ~egress:(fun p ->
              match p.Netsim.Packet.payload with
              | Frames.Data { offset } -> burst := (p.Netsim.Packet.seq, offset) :: !burst
              | _ -> ())
            ()
        in
        Sender.start sender;
        let shadow : (int, int) Hashtbl.t = Hashtbl.create 1024 in
        let seq_of_unit = Array.make total_units (-1) in
        let sent = ref 0 and frontier = ref 0 and available = ref 0 in
        let drop seq =
          match Hashtbl.find_opt shadow seq with
          | Some u ->
              Hashtbl.remove shadow seq;
              seq_of_unit.(u) <- -1
          | None -> ()
        in
        let at n permille = min (n - 1) (permille * n / 1000) in
        let ranges n = List.map (fun (p, w) -> (at n p, min (n - 1) (at n p + w))) in
        let seqs_of (lo, hi) = List.init (hi - lo + 1) (( + ) lo) in
        let covered ranges =
          List.filter (Hashtbl.mem shadow) (List.concat_map seqs_of ranges)
        in
        (* What one fired event did, once it has run. *)
        let reconcile removed =
          List.iter drop removed;
          let out = List.rev !burst in
          burst := [];
          let lost =
            List.filter_map
              (fun (_, u) ->
                if u < !frontier && seq_of_unit.(u) >= 0 then Some seq_of_unit.(u) else None)
              out
          in
          let is_lost = Hashtbl.create 16 in
          List.iter (fun seq -> Hashtbl.replace is_lost seq ()) lost;
          let order = ref [] in
          Hashtbl.iter
            (fun seq _ -> if Hashtbl.mem is_lost seq then order := seq :: !order)
            shadow;
          List.iter drop lost;
          List.iter
            (fun (seq, u) ->
              Hashtbl.replace shadow seq u;
              seq_of_unit.(u) <- seq;
              frontier := max !frontier (u + 1);
              sent := seq + 1)
            out;
          !order = lost
          && Sender.bytes_in_flight sender = Hashtbl.length shadow * Sender.wire_size sender
        in
        List.for_all
          (fun (d, op) ->
            let ran = ref None in
            Netsim.Engine.schedule e ~delay:(Time.ms d) (fun () ->
                let n = !sent in
                ran :=
                  Some
                    (match op with
                    | Send k ->
                        available := !available + k;
                        Sender.make_available sender !available;
                        []
                    | Ack _ | Sidecar _ when n = 0 -> []
                    | Ack r ->
                        let ranges = ranges n r in
                        let largest = List.fold_left (fun m (_, hi) -> max m hi) 0 ranges in
                        Sender.deliver_ack sender
                          (Frames.ack_packet ~uid:0 ~flow:0 ~id:0 ~seq:0 ~size:40 ~largest
                             ~ranges ~acked_units:0 ~now:(Netsim.Engine.now e));
                        covered ranges
                    | Sidecar r ->
                        (* sidecar quACKs free whole runs, as ack reduction's do *)
                        let ranges = ranges n r in
                        let seqs = List.concat_map seqs_of ranges in
                        ignore (Sender.sidecar_ack sender ~seqs);
                        covered ranges));
            let ok = ref true in
            while !ok && !ran = None do
              let timeouts = (Sender.stats sender).Sender.timeouts in
              Netsim.Engine.run ~max_events:1 e;
              let removed =
                match !ran with
                | Some removed -> removed
                | None when (Sender.stats sender).Sender.timeouts > timeouts ->
                    (* a PTO declares the oldest in-flight packet lost *)
                    let oldest = Hashtbl.fold (fun seq _ m -> min seq m) shadow max_int in
                    if oldest = max_int then [] else [ oldest ]
                | None -> []
              in
              ok := reconcile removed
            done;
            !ok)
          ops);
  ]

(* The sender-inflight-low contract's runtime twin runs after every ACK
   and PTO once the debug gate is on; a lossy flow exercises both, plus
   multi-loss scans, and must finish without a violation. *)
let test_sender_low_twin_fires () =
  let module Invariant = Sidecar_quack.Invariant in
  let was = Invariant.active () in
  Invariant.set_active true;
  let before = Invariant.checks_run () in
  let r =
    Fun.protect
      ~finally:(fun () -> Invariant.set_active was)
      (fun () -> Flow.direct ~units:400 ~loss:(Loss.bernoulli 0.05) ())
  in
  check bool "completes" true r.Flow.completed;
  check bool "twin fired" true (Invariant.checks_run () - before > 0)

let () =
  Alcotest.run "transport"
    [
      ( "rtt",
        [
          Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
          Alcotest.test_case "smoothing" `Quick test_rtt_smoothing;
          Alcotest.test_case "ignores garbage" `Quick test_rtt_ignores_garbage;
          Alcotest.test_case "rto floor" `Quick test_rtt_rto_floor;
        ] );
      ( "cc",
        [
          Alcotest.test_case "newreno slow start" `Quick test_newreno_slow_start;
          Alcotest.test_case "newreno congestion" `Quick test_newreno_congestion;
          Alcotest.test_case "newreno linear CA" `Quick test_newreno_congestion_avoidance_linear;
          Alcotest.test_case "newreno timeout" `Quick test_newreno_timeout_collapse;
          Alcotest.test_case "newreno floor" `Quick test_newreno_floor;
          Alcotest.test_case "cubic growth" `Quick test_cubic_basic_growth;
          Alcotest.test_case "cubic beta" `Quick test_cubic_beta_decrease;
          Alcotest.test_case "cubic regrowth" `Quick test_cubic_regrows_after_congestion;
          Alcotest.test_case "fixed" `Quick test_fixed_cc;
          Alcotest.test_case "bbr startup growth" `Quick test_bbr_startup_growth;
          Alcotest.test_case "bbr exits startup" `Quick test_bbr_exits_startup_on_plateau;
          Alcotest.test_case "bbr ignores single loss" `Quick test_bbr_ignores_single_loss;
          Alcotest.test_case "bbr over lossy path" `Quick test_bbr_flow_over_lossy_path;
          Alcotest.test_case "vegas low delay" `Quick test_vegas_tracks_low_delay;
          Alcotest.test_case "vegas backs off" `Quick test_vegas_backs_off_on_queueing;
          Alcotest.test_case "vegas flow completes" `Quick test_vegas_flow_completes;
        ] );
      ( "flow",
        [
          Alcotest.test_case "lossless completes" `Quick test_flow_lossless_completes;
          Alcotest.test_case "utilization" `Slow test_flow_utilization;
          Alcotest.test_case "lossy completes" `Quick test_flow_lossy_completes;
          Alcotest.test_case "heavy loss completes" `Quick test_flow_heavy_loss_completes;
          Alcotest.test_case "loss hurts throughput" `Quick test_flow_loss_hurts_throughput;
          Alcotest.test_case "cubic vs newreno" `Quick test_flow_cubic_vs_newreno_lossless;
          Alcotest.test_case "ack frequency tradeoff" `Quick test_flow_ack_frequency_tradeoff;
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "bdp limited" `Quick test_flow_bdp_limited;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "acks every k" `Quick test_receiver_acks_every_k;
          Alcotest.test_case "sack ranges" `Quick test_receiver_sack_ranges_with_gap;
          Alcotest.test_case "delayed ack timer" `Quick test_receiver_delayed_ack_timer;
          Alcotest.test_case "duplicate units" `Quick test_receiver_duplicate_units;
        ] );
      ( "sender",
        [
          Alcotest.test_case "window limits inflight" `Quick test_sender_window_limits_inflight;
          Alcotest.test_case "pto recovers tail loss" `Quick test_sender_pto_recovers_lost_tail;
          Alcotest.test_case "sidecar_ack frees window" `Quick test_sender_sidecar_ack_frees_window;
          Alcotest.test_case "external cc" `Quick test_sender_external_cc_ignores_e2e_acks;
          Alcotest.test_case "streaming availability" `Quick test_sender_streaming_availability;
          Alcotest.test_case "multi-loss retransmission order" `Quick
            test_sender_multi_loss_retx_order;
          Alcotest.test_case "inflight-low twin fires" `Quick test_sender_low_twin_fires;
        ]
        @ List.map QCheck_alcotest.to_alcotest qcheck_sender_loss_order );
      ( "sealed",
        [
          Alcotest.test_case "flow over ciphertext" `Quick test_sealed_flow_completes;
          Alcotest.test_case "with loss" `Quick test_sealed_flow_with_loss;
          Alcotest.test_case "tampering = loss" `Quick test_sealed_tamper_is_loss;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "varint boundaries" `Quick test_varint_boundaries;
          Alcotest.test_case "frames roundtrip" `Quick test_frames_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_frames_reject_garbage;
        ] );
      ("codec-props", List.map QCheck_alcotest.to_alcotest qcheck_codec);
      ("sealed-props", List.map QCheck_alcotest.to_alcotest qcheck_sealed);
      ( "wire-image",
        [
          Alcotest.test_case "seal/open" `Quick test_wire_seal_open;
          Alcotest.test_case "tamper detected" `Quick test_wire_tamper_detected;
          Alcotest.test_case "wrong key" `Quick test_wire_wrong_key;
          Alcotest.test_case "ids look random" `Quick test_wire_ids_look_random;
          Alcotest.test_case "end-to-end quACK over bytes" `Quick test_wire_end_to_end_quack;
        ] );
    ]
