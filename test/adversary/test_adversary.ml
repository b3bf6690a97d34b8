(* The adversarial layer (ROADMAP item 4): the on-path Adversary node
   unit-by-unit (pass-through, forge, replay, truncate, bit-flip), and
   the adversary/leakage scenario families end-to-end — the
   unauthenticated seam demonstrably admits attacker quACKs, the
   authenticated seam admits exactly zero, and quACK-channel shaping
   measurably blinds a counting observer. *)

module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Rng = Netsim.Rng
module Time = Netsim.Sim_time
module Q = Sidecar_quack
module Adv = Sidecar_protocols.Adversary
module A = Sidecar_runtime.Adversary
module L = Sidecar_runtime.Leakage

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fixtures: a genuine sealed quACK as the runtime would emit it.      *)

let key = Sidecar_hash.Sha256.digest_string "test-adversary-key"

let genuine_quack () =
  let acc = Q.Receiver_state.create ~bits:32 ~count_bits:16 ~threshold:16 () in
  let idk = Q.Identifier.key_of_int 0xFEED in
  for i = 0 to 9 do
    ignore (Q.Receiver_state.on_receive acc (Q.Identifier.of_counter idk ~bits:32 i))
  done;
  Q.Receiver_state.emit acc

let sealed ?(flow = 3) ~index () =
  let q = genuine_quack () in
  let wire = Q.Wire.encode_framed q in
  let tag = Q.Wire.tag ~key ~flow ~index wire in
  Packet.make ~uid:1 ~flow ~id:0 ~seq:0
    ~size:(String.length wire + String.length tag)
    ~payload:(Adv.Sealed { wire; tag; index; origin = Adv.Proxy })
    ~sent_at:Time.zero ()

let make_adv ?(rates = Adv.no_attack) ?(seed = 7) () =
  let engine = Engine.create ~seed () in
  let out = ref [] in
  let adv =
    Adv.create ~engine
      ~rng:(Rng.create seed)
      ~rates
      ~emit:(fun p -> out := p :: !out)
      ()
  in
  (engine, adv, out)

let emissions out = List.rev !out

let sealed_parts p =
  match p.Packet.payload with
  | Adv.Sealed { wire; tag; index; origin } -> (wire, tag, index, origin)
  | _ -> Alcotest.fail "expected a Sealed payload"

(* ------------------------------------------------------------------ *)
(* The node, attack by attack.                                         *)

let test_passthrough () =
  let engine, adv, out = make_adv () in
  let p = sealed ~index:1 () in
  Adv.on_path adv p;
  let data = Packet.make ~uid:2 ~flow:3 ~id:9 ~seq:4 ~size:1460
                ~sent_at:Time.zero () in
  Adv.on_path adv data;
  Engine.run engine;
  (match emissions out with
  | [ a; b ] ->
      checkb "sealed packet unchanged" true (a == p);
      checkb "data packet unchanged" true (b == data)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 emissions, got %d"
                          (List.length l)));
  let st = Adv.stats adv in
  checki "only the sealed quACK is observed" 1 st.Adv.observed;
  checki "no spoofs at rate 0" 0 st.Adv.spoofs;
  checki "no replays at rate 0" 0 st.Adv.replays;
  checki "no truncations at rate 0" 0 st.Adv.truncations;
  checki "no bitflips at rate 0" 0 st.Adv.bitflips

let test_forge () =
  let engine, adv, out =
    make_adv ~rates:{ Adv.no_attack with Adv.spoof = 1.0 } ()
  in
  Adv.on_path adv (sealed ~index:5 ());
  Engine.run engine;
  let origin_of p = let _, _, _, o = sealed_parts p in o in
  match emissions out with
  | ([ a; b ] as l)
    when List.exists (fun p -> origin_of p = Adv.Forged) l
         && List.exists (fun p -> origin_of p = Adv.Proxy) l ->
      let forged, original = if origin_of a = Adv.Forged then (a, b) else (b, a) in
      let fwire, ftag, findex, _ = sealed_parts forged in
      let owire, _, _, _ = sealed_parts original in
      (* well-formed at the codec level: the lie decodes *)
      (match Q.Wire.decode_framed fwire with
      | Ok q ->
          checkb "forged sums differ from genuine" true
            (match Q.Wire.decode_framed owire with
            | Ok g -> q.Q.Quack.sums <> g.Q.Quack.sums
            | Error _ -> false)
      | Error _ -> Alcotest.fail "forged frame does not decode");
      checkb "forged index is bumped past genuine" true (findex > 5);
      (* ... but the tag cannot be valid without the key *)
      checkb "forged tag fails verification" false
        (Q.Wire.verify_tag ~key ~flow:3 ~index:findex ~tag:ftag fwire)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected original + forgery, got %d emissions"
           (List.length l))

let test_replay () =
  let engine, adv, out =
    make_adv ~rates:{ Adv.no_attack with Adv.replay = 1.0 } ()
  in
  let p = sealed ~index:2 () in
  Adv.on_path adv p;
  (match emissions out with
  | [ first ] ->
      let _, _, _, origin = sealed_parts first in
      checkb "original passes through immediately" true (origin = Adv.Proxy)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 immediate emission, got %d"
           (List.length l)));
  Engine.run engine;
  match emissions out with
  | [ _; replayed ] ->
      let rwire, rtag, rindex, rorigin = sealed_parts replayed in
      let wire, tag, index, _ = sealed_parts p in
      checkb "replay is byte-identical (wire)" true (rwire = wire);
      checkb "replay is byte-identical (tag)" true (rtag = tag);
      checki "replay keeps the index" index rindex;
      checkb "replay is marked as such" true (rorigin = Adv.Replayed);
      (* the whole point: its tag is VALID, so the tag check alone
         cannot stop it *)
      checkb "replayed tag still verifies" true
        (Q.Wire.verify_tag ~key ~flow:3 ~index:rindex ~tag:rtag rwire)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected original + delayed replay, got %d"
           (List.length l))

let test_truncate () =
  let engine, adv, out =
    make_adv ~rates:{ Adv.no_attack with Adv.truncate = 1.0 } ()
  in
  Adv.on_path adv (sealed ~index:4 ());
  Engine.run engine;
  match emissions out with
  | [ tampered ] -> (
      let twire, ttag, tindex, torigin = sealed_parts tampered in
      checkb "tampered origin" true (torigin = Adv.Tampered);
      match Q.Wire.decode_framed twire with
      | Ok q ->
          (* the self-describing frame happily decodes the shorter
             sketch — only the (stale) tag betrays the tampering *)
          checki "threshold halved" 8 (Q.Quack.threshold q);
          checkb "stale tag fails verification" false
            (Q.Wire.verify_tag ~key ~flow:3 ~index:tindex ~tag:ttag twire)
      | Error _ -> Alcotest.fail "truncated frame does not decode")
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 tampered emission, got %d" (List.length l))

let test_bitflip () =
  let engine, adv, out =
    make_adv ~rates:{ Adv.no_attack with Adv.bitflip = 1.0 } ()
  in
  let p = sealed ~index:6 () in
  Adv.on_path adv p;
  Engine.run engine;
  match emissions out with
  | [ tampered ] ->
      let twire, ttag, tindex, torigin = sealed_parts tampered in
      let wire, _, _, _ = sealed_parts p in
      checkb "tampered origin" true (torigin = Adv.Tampered);
      checki "same length" (String.length wire) (String.length twire);
      let diff_bits = ref 0 in
      String.iteri
        (fun i c ->
          let x = Char.code c lxor Char.code twire.[i] in
          let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
          diff_bits := !diff_bits + pop x)
        wire;
      checki "exactly one bit flipped" 1 !diff_bits;
      checkb "flipped wire fails verification" false
        (Q.Wire.verify_tag ~key ~flow:3 ~index:tindex ~tag:ttag twire)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 tampered emission, got %d" (List.length l))

let test_bad_rates_rejected () =
  let engine = Engine.create ~seed:1 () in
  let mk rates =
    ignore
      (Adv.create ~engine ~rng:(Rng.create 1) ~rates ~emit:(fun _ -> ()) ())
  in
  Alcotest.check_raises "rate above 1 rejected"
    (Invalid_argument "Adversary.create: spoof rate 1.5 outside [0, 1]")
    (fun () -> mk { Adv.no_attack with Adv.spoof = 1.5 });
  Alcotest.check_raises "negative rate rejected"
    (Invalid_argument "Adversary.create: replay rate -0.1 outside [0, 1]")
    (fun () -> mk { Adv.no_attack with Adv.replay = -0.1 })

(* ------------------------------------------------------------------ *)
(* The scenario families, end to end.                                  *)

let small cfg rate auth =
  { cfg with A.flows = 8; table_flows = 8; attack_rate = rate; auth }

let test_scenario_unauth_admits () =
  let r = A.run (small A.default_config 0.3 false) in
  checkb "attacks actually happened" true
    (r.A.attacks.Adv.spoofs > 0 && r.A.attacks.Adv.replays > 0);
  checkb "unauthenticated seam admits attacker quACKs" true
    (r.A.attacker_admitted > 0);
  checkb "attacker-forced resyncs happened" true (r.A.attacker_resyncs > 0);
  checki "no tag rejections without the tag check" 0 r.A.auth_rejected;
  checki "no guard drops without the guard" 0 r.A.replays_dropped

let test_scenario_auth_admits_zero () =
  let r = A.run (small A.default_config 0.3 true) in
  checkb "attacks actually happened" true (r.A.attacks.Adv.spoofs > 0);
  checki "authenticated seam admits zero attacker quACKs" 0
    r.A.attacker_admitted;
  checkb "forgeries die at the tag" true (r.A.auth_rejected > 0);
  checkb "replays die at the guard" true (r.A.replays_dropped > 0);
  checki "nothing hostile reaches the codec" 0 r.A.malformed;
  checki "tag bytes accounted" (16 * r.A.quacks_sealed) r.A.auth_bytes_overhead

let test_scenario_damage_monotone () =
  let admitted rate = (A.run (small A.default_config rate false)).A.attacker_admitted in
  let a0 = admitted 0.0 and a1 = admitted 0.15 and a2 = admitted 0.3 in
  checki "no attacks, no damage" 0 a0;
  checkb "damage grows with the attack rate" true (a0 <= a1 && a1 <= a2 && a2 > 0)

let test_scenario_rate0_is_clean () =
  let r = A.run (small A.default_config 0.0 false) in
  let st = r.A.attacks in
  checki "no spoofs" 0 st.Adv.spoofs;
  checki "no replays" 0 st.Adv.replays;
  checki "no truncations" 0 st.Adv.truncations;
  checki "no bitflips" 0 st.Adv.bitflips;
  checki "nothing admitted" 0 r.A.attacker_admitted;
  checki "nothing malformed" 0 r.A.malformed

let test_leakage_shaping_blinds () =
  let base = { L.default_config with L.flows = 8; table_flows = 8 } in
  let unshaped = L.run { base with L.shape = false } in
  let shaped = L.run { base with L.shape = true } in
  checki "unshaped arm emits no dummies" 0 unshaped.L.dummy_quacks;
  checkb "shaped arm emits chaff" true (shaped.L.dummy_quacks > 0);
  checki "the guard absorbs exactly the chaff" shaped.L.dummy_quacks
    shaped.L.replays_dropped;
  checki "chaff never corrupts the server" 0 shaped.L.srv_resyncs;
  checkb "shaping reduces observer accuracy" true
    (shaped.L.observer_accuracy < unshaped.L.observer_accuracy);
  checkb "shaping costs bytes" true
    (shaped.L.quack_bytes_on_wire > unshaped.L.quack_bytes_on_wire);
  check (Alcotest.float 1e-9) "unshaped observer beats coin-flipping"
    unshaped.L.observer_accuracy
    (max unshaped.L.observer_accuracy 0.75)

(* ------------------------------------------------------------------ *)
(* Same-seed golden pins: the four adversary arms and the two leakage
   arms exactly as CI runs them ([runtime --scenario adversary --flows
   16 --attack-rate 0.2] and [--scenario leakage --flows 16]), every
   report field lossless (hex floats), plus both JSON schemas. The
   relational checks above hold for many wrong answers; these pin the
   answer itself across commits.

   Regenerate (only when a behaviour change is intended):
     dune exec test/adversary/test_adversary.exe -- gen <abs path to
       test/adversary/golden> *)

let b fmt v = Printf.sprintf fmt v

let proxy_snap (p : Sidecar_runtime.Proxy.stats) =
  let module P = Sidecar_runtime.Proxy in
  String.concat "\n"
    [
      b "proxy_data_packets=%d" p.P.data_packets;
      b "proxy_degraded_packets=%d" p.P.degraded_packets;
      b "proxy_buffer_bypass=%d" p.P.buffer_bypass;
      b "proxy_quacks_rx=%d" p.P.quacks_rx;
      b "proxy_degraded_quacks=%d" p.P.degraded_quacks;
      b "proxy_quacks_tx=%d" p.P.quacks_tx;
      b "proxy_quack_bytes=%d" p.P.quack_bytes;
      b "proxy_freq_updates=%d" p.P.freq_updates;
      b "proxy_resyncs=%d" p.P.resyncs;
      b "proxy_flushed_on_evict=%d" p.P.flushed_on_evict;
    ]

let ci_adversary = { A.default_config with A.flows = 16 }
let ci_leakage = { L.default_config with L.flows = 16 }
let adversary_arms = A.arms { ci_adversary with A.attack_rate = 0.2 }
let leakage_arms = L.arms ci_leakage

let snap_adversary (name, cfg) () =
  let r = A.run cfg in
  String.concat "\n"
    [
      b "adversary %s (flows 16)" name;
      b "auth=%b" r.A.auth;
      b "attack_rate=%h" r.A.attack_rate;
      b "flows=%d" r.A.flows;
      b "completed=%d" r.A.completed;
      b "wedged=%d" r.A.wedged;
      b "fct_p50=%h" r.A.fct_p50;
      b "fct_p95=%h" r.A.fct_p95;
      b "fct_p99=%h" r.A.fct_p99;
      b "fct_mean=%h" r.A.fct_mean;
      b "data_delivered_bytes=%d" r.A.data_delivered_bytes;
      proxy_snap r.A.proxy;
      b "quacks_sealed=%d" r.A.quacks_sealed;
      b "auth_bytes_overhead=%d" r.A.auth_bytes_overhead;
      b "attacks_observed=%d" r.A.attacks.Adv.observed;
      b "attacks_spoofed=%d" r.A.attacks.Adv.spoofs;
      b "attacks_replayed=%d" r.A.attacks.Adv.replays;
      b "attacks_truncated=%d" r.A.attacks.Adv.truncations;
      b "attacks_bitflipped=%d" r.A.attacks.Adv.bitflips;
      b "attacker_admitted=%d" r.A.attacker_admitted;
      b "attacker_resyncs=%d" r.A.attacker_resyncs;
      b "auth_rejected=%d" r.A.auth_rejected;
      b "replays_dropped=%d" r.A.replays_dropped;
      b "malformed=%d" r.A.malformed;
      b "srv_resyncs=%d" r.A.srv_resyncs;
      b "retransmissions=%d" r.A.retransmissions;
      b "timeouts=%d" r.A.timeouts;
      b "spurious_retx=%d" r.A.spurious_retx;
      b "sim_end=%d" r.A.sim_end;
    ]
  ^ "\n"

let snap_leakage (name, cfg) () =
  let r = L.run cfg in
  String.concat "\n"
    [
      b "leakage %s (flows 16)" name;
      b "shaped=%b" r.L.shaped;
      b "flows=%d" r.L.flows;
      b "completed=%d" r.L.completed;
      b "fct_p50=%h" r.L.fct_p50;
      b "fct_p95=%h" r.L.fct_p95;
      b "fct_p99=%h" r.L.fct_p99;
      b "fct_mean=%h" r.L.fct_mean;
      b "quacks_on_wire=%d" r.L.quacks_on_wire;
      b "quack_bytes_on_wire=%d" r.L.quack_bytes_on_wire;
      b "dummy_quacks=%d" r.L.dummy_quacks;
      b "replays_dropped=%d" r.L.replays_dropped;
      b "observer_accuracy=%h" r.L.observer_accuracy;
      b "srv_resyncs=%d" r.L.srv_resyncs;
      b "retransmissions=%d" r.L.retransmissions;
      b "timeouts=%d" r.L.timeouts;
      b "sim_end=%d" r.L.sim_end;
    ]
  ^ "\n"

let schema_snap json_of () =
  Obs.Json.to_string (Obs.Json.schema_of (json_of ())) ^ "\n"

let fixtures =
  List.map
    (fun ((name, _) as arm) -> ("adversary_" ^ name, snap_adversary arm))
    adversary_arms
  @ List.map
      (fun ((name, _) as arm) -> ("leakage_" ^ name, snap_leakage arm))
      leakage_arms
  @ [
      ("schema_adversary", schema_snap (fun () -> A.json_report (A.run ci_adversary)));
      ("schema_leakage", schema_snap (fun () -> L.json_report (L.run ci_leakage)));
    ]

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
      check Alcotest.string
        (name ^ " matches the committed same-seed snapshot")
        expected (snap ()))

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: _ -> gen dir
  | _ ->
      Alcotest.run "adversary"
        [
          ( "node",
            [
              Alcotest.test_case "rate 0 is a pass-through" `Quick test_passthrough;
              Alcotest.test_case "forge: decodable lie, invalid tag" `Quick
                test_forge;
              Alcotest.test_case "replay: delayed, byte-identical, valid tag"
                `Quick test_replay;
              Alcotest.test_case "truncate: shorter sketch, stale tag" `Quick
                test_truncate;
              Alcotest.test_case "bit-flip: one bit, stale tag" `Quick test_bitflip;
              Alcotest.test_case "bad rates rejected" `Quick test_bad_rates_rejected;
            ] );
          ( "scenario",
            [
              Alcotest.test_case "unauth arm admits attacker quACKs" `Quick
                test_scenario_unauth_admits;
              Alcotest.test_case "auth arm admits exactly zero" `Quick
                test_scenario_auth_admits_zero;
              Alcotest.test_case "damage monotone in attack rate" `Quick
                test_scenario_damage_monotone;
              Alcotest.test_case "zero rate, zero attacks" `Quick
                test_scenario_rate0_is_clean;
              Alcotest.test_case "shaping blinds the counting observer" `Quick
                test_leakage_shaping_blinds;
            ] );
          ("golden", List.map golden_case fixtures);
        ]
