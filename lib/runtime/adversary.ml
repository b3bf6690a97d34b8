module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Rng = Netsim.Rng
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Migration = Sidecar_protocols.Migration
module Adv = Sidecar_protocols.Adversary

type config = {
  auth : bool;
      (** [true] = the server verifies tags and runs the replay guard;
          [false] = the pre-fix seams, to measure the damage *)
  attack_rate : float;  (** per-attack bernoulli rate (all four equal) *)
  flows : int;
  table_flows : int;
  near : Path.segment;  (** server -> junction *)
  far : Path.segment;  (** junction -> client *)
  mss : int;
  size_dist : Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival : Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  replay_delay : Time.span;
  seed : int;
  until : Time.t;
}

let default_config =
  {
    auth = false;
    attack_rate = 0.1;
    flows = 40;
    table_flows = 40;
    near = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 10) ();
    far = Path.cellular;
    mss = 1460;
    size_dist = Workload.web_flows;
    min_units = 200;
    max_units = 2000;
    arrival = Workload.Poisson { mean_s = 0.05 };
    quack_every = 16;
    bits = 32;
    threshold = 16;
    count_bits = 16;
    replay_delay = Time.ms 50;
    seed = 1;
    until = Time.s 180;
  }

let arms base =
  let rate = base.attack_rate in
  [
    ("unauth_rate0", { base with auth = false; attack_rate = 0. });
    ("unauth_rate_half", { base with auth = false; attack_rate = rate /. 2. });
    ("unauth", { base with auth = false; attack_rate = rate });
    ("auth", { base with auth = true; attack_rate = rate });
  ]

type report = {
  auth : bool;
  attack_rate : float;
  flows : int;
  completed : int;
  wedged : int;  (** flows still incomplete at the horizon *)
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy : Proxy.stats;
  quacks_sealed : int;  (** genuine emissions sealed at the proxy *)
  auth_bytes_overhead : int;  (** tag bytes added to those emissions *)
  attacks : Adv.stats;
  attacker_admitted : int;
      (** quACKs whose sums were never emitted by the sidecar
          (fabricated or tampered contents) yet reached the sender
          state (fresh apply or adopted by a resync) — the headline
          integrity number; must be 0 under [auth]. Replays of genuine
          bytes the server never received are delivery delay, not an
          integrity violation, and are excluded. *)
  attacker_resyncs : int;
      (** §3.3 resyncs triggered by attacker-delivered packets
          (replayed genuine bytes included) *)
  auth_rejected : int;  (** sealed quACKs dropped by tag verification *)
  replays_dropped : int;  (** valid-tag replays dropped by the guard *)
  malformed : int;
      (** sealed quACKs whose wire bytes failed to decode, or decoded
          to sketch parameters other than the server's own *)
  srv_resyncs : int;
  retransmissions : int;
  timeouts : int;
  spurious_retx : int;  (** duplicate deliveries at clients *)
  sim_end : Time.t;
}

(* The shared quACK-authentication key: in a deployment this is the
   out-of-band sidecar-protocol secret (§3.2 configuration); here it
   is derived from the run seed so arms stay reproducible. The
   adversary never sees it. *)
let auth_key seed =
  Sidecar_hash.Sha256.digest_string (Printf.sprintf "quack-auth-key-%d" seed)

let run (cfg : config) =
  if not (cfg.attack_rate >= 0. && cfg.attack_rate <= 1.) then
    invalid_arg "Adversary.run: attack rate outside [0, 1]";
  let path = Path.build ~seed:cfg.seed [ cfg.near; cfg.far ] in
  let { Path.engine; fwd; rev } = path in
  let key = auth_key cfg.seed in
  (* Unauthenticated, the server runs the pre-guard seam below: its
     consumers are unguarded. *)
  let pop =
    Population.create ~name:"Adversary" path ~flows:cfg.flows
      ~sizes:(Population.Sampled cfg.size_dist) ~min_units:cfg.min_units
      ~max_units:cfg.max_units ~arrival:cfg.arrival ~mss:cfg.mss
      ~id_key_base:0x51DE
      ~sketch:
        {
          Q.Sender_state.default_config with
          bits = cfg.bits;
          threshold = cfg.threshold;
          count_bits = cfg.count_bits;
        }
      ~sidecar:(if cfg.auth then Population.Guarded else Population.Unguarded)
      ~client:None
      ~ack_link:(fun _ -> rev.(0))
      ()
  in

  (* ---- the quACK-emitting sidecar at the junction ----------------- *)
  let protocol, _handle =
    Migration.make
      {
        Migration.addr = "sidecar";
        bits = cfg.bits;
        threshold = cfg.threshold;
        count_bits = cfg.count_bits;
        quack_every = cfg.quack_every;
        field = None;
      }
  in
  let quacks_sealed = ref 0 in
  (* Ground truth for damage attribution: every wire encoding the
     sidecar actually emitted, per flow. A packet whose *contents*
     appear here is genuine feedback however it was delivered — an
     attacker replaying bytes the server never received is
     indistinguishable from (and no worse than) network delay, so it
     is not an admitted attack; fabricated or tampered sums are. *)
  let emitted = Array.init cfg.flows (fun _ -> Hashtbl.create 64) in
  (* The proxy's return traffic: quACK frames leave as sealed wire
     bytes + detached tag (what actually travels, and what the
     adversary gets to attack); everything else passes through. *)
  let seal_backward p =
    let p =
      match p.Packet.payload with
      | Sframes.Quack_frame { quack; dst = "server"; index; _ } ->
          incr quacks_sealed;
          let wire = Q.Wire.encode_framed quack in
          Hashtbl.replace emitted.(p.Packet.flow) wire ();
          let tag = Q.Wire.tag ~key ~flow:p.Packet.flow ~index wire in
          {
            p with
            Packet.payload = Adv.Sealed { wire; tag; index; origin = Adv.Proxy };
            size =
              String.length wire + String.length tag + Sframes.encapsulation;
          }
      | _ -> p
    in
    ignore (Link.send rev.(1) p)
  in
  let proxy =
    Proxy.create engine ~capacity:cfg.table_flows ~policy:Flow_table.Lru
      ~protocol
      ~forward:(fun p -> ignore (Link.send fwd.(1) p))
      ~backward:seal_backward ()
  in

  (* ---- server-side quACK consumption ------------------------------ *)
  let attacker_admitted = ref 0 in
  let attacker_resyncs = ref 0 in
  let auth_rejected = ref 0 in
  let malformed = ref 0 in
  (* legacy high-water marks for the unauthenticated arm *)
  let last_index = Array.make cfg.flows 0 in
  (* [foreign] = the quACK's contents were never emitted by the
     sidecar (fabricated or tampered sums — the integrity violation
     [attacker_admitted] counts); [hostile] = the packet was delivered
     by the adversary (replayed genuine bytes included — what
     [attacker_resyncs] attributes). A §3.3 resync is the escape hatch
     an attacker's garbage sums reach almost surely, so without
     authentication the server adopts the forgery as its baseline. *)
  let attribute ~foreign ~hostile = function
    | Q.Quack_consumer.Decoded _ -> if foreign then incr attacker_admitted
    | Q.Quack_consumer.(Resynced _ | Restarted _) ->
        if hostile then incr attacker_resyncs;
        if foreign then incr attacker_admitted
    | Q.Quack_consumer.(Stale | Replay | Mismatch) -> ()
  in
  let on_sealed_unauth i ~index quack =
    let outcome =
      if index <= last_index.(i) then
        (* the pre-guard seam: any regressed index is read as a restart
           and its sums adopted wholesale — replayed AND forged quACKs
           both walk straight in *)
        Q.Quack_consumer.resync (Population.consumer pop i) quack
      else Population.consume pop i quack
    in
    last_index.(i) <- index;
    outcome
  in
  let on_sealed i ~index ~origin ~tag ~wire =
    if cfg.auth && not (Q.Wire.verify_tag ~key ~flow:i ~index ~tag wire) then
      (* forged, truncated and bit-flipped quACKs all die here — the
         verifier's expected tag length is its own, so the old
         short-tag forgery is closed too *)
      incr auth_rejected
    else
      match Q.Wire.decode_framed wire with
      | Error _ -> incr malformed
      | Ok quack
        when quack.Q.Quack.bits <> cfg.bits
             || Q.Quack.threshold quack <> cfg.threshold
             || quack.Q.Quack.count_bits <> cfg.count_bits ->
          (* decodes, but not with the server's sketch parameters (the
             truncation attack lands here even unauthenticated: the
             server knows its own threshold) *)
          incr malformed
      | Ok quack ->
          let hostile = origin <> Adv.Proxy in
          let foreign = hostile && not (Hashtbl.mem emitted.(i) wire) in
          attribute ~foreign ~hostile
            (if cfg.auth then Population.consume pop i ~index quack
             else on_sealed_unauth i ~index quack)
  in

  (* ---- wiring ------------------------------------------------------ *)
  Population.attach_clients pop [ fwd.(1) ];
  Link.set_deliver fwd.(0) (fun p ->
      if p.Packet.flow >= 0 && p.Packet.flow < cfg.flows then
        Proxy.on_ingress proxy p);
  Link.set_deliver rev.(0) (Proxy.on_return proxy);
  let deliver_server =
    Population.server_demux pop (fun i -> function
      | Adv.Sealed { wire; tag; index; origin } ->
          on_sealed i ~index ~origin ~tag ~wire;
          true
      | _ -> false)
  in
  let adv =
    Adv.create ~replay_delay:cfg.replay_delay ~engine
      ~rng:(Rng.split (Engine.rng engine))
      ~rates:(Adv.uniform cfg.attack_rate)
      ~emit:deliver_server ()
  in
  Link.set_deliver rev.(1) (Adv.on_path adv);

  (* ---- run ---------------------------------------------------------- *)
  Population.start pop ~period:(Time.ms 500) ~on_start:ignore ~on_tick:ignore
    ~proxies:[ proxy ] ~until:cfg.until;
  Engine.run ~until:cfg.until engine;

  let sum = Population.summary pop in
  {
    auth = cfg.auth;
    attack_rate = cfg.attack_rate;
    flows = cfg.flows;
    completed = sum.Population.completed;
    wedged = cfg.flows - sum.Population.completed;
    fct_p50 = sum.Population.fct_p50;
    fct_p95 = sum.Population.fct_p95;
    fct_p99 = sum.Population.fct_p99;
    fct_mean = sum.Population.fct_mean;
    data_delivered_bytes = sum.Population.data_delivered_bytes;
    proxy = Proxy.stats proxy;
    quacks_sealed = !quacks_sealed;
    auth_bytes_overhead = Q.Wire.auth_overhead * !quacks_sealed;
    attacks = Adv.stats adv;
    attacker_admitted = !attacker_admitted;
    attacker_resyncs = !attacker_resyncs;
    auth_rejected = !auth_rejected;
    replays_dropped = sum.Population.srv_replays;
    malformed = !malformed;
    srv_resyncs = sum.Population.srv_resyncs;
    retransmissions = sum.Population.retransmissions;
    timeouts = sum.Population.timeouts;
    spurious_retx = sum.Population.duplicates;
    sim_end = Engine.now engine;
  }

let arm_name (r : report) = if r.auth then "auth" else "unauth"

let json_report (r : report) =
  Obs.Json.Obj
    [
      ("arm", Obs.Json.String (arm_name r));
      ("attack_rate", Obs.Json.Float r.attack_rate);
      ("flows", Obs.Json.Int r.flows);
      ("completed", Obs.Json.Int r.completed);
      ("wedged", Obs.Json.Int r.wedged);
      ("fct_p50_s", Obs.Json.Float r.fct_p50);
      ("fct_p95_s", Obs.Json.Float r.fct_p95);
      ("fct_p99_s", Obs.Json.Float r.fct_p99);
      ("fct_mean_s", Obs.Json.Float r.fct_mean);
      ("data_delivered_bytes", Obs.Json.Int r.data_delivered_bytes);
      ("proxy", Scenario.json_proxy_stats r.proxy);
      ("quacks_sealed", Obs.Json.Int r.quacks_sealed);
      ("auth_bytes_overhead", Obs.Json.Int r.auth_bytes_overhead);
      ("attacks_spoofed", Obs.Json.Int r.attacks.Adv.spoofs);
      ("attacks_replayed", Obs.Json.Int r.attacks.Adv.replays);
      ("attacks_truncated", Obs.Json.Int r.attacks.Adv.truncations);
      ("attacks_bitflipped", Obs.Json.Int r.attacks.Adv.bitflips);
      ("attacker_admitted", Obs.Json.Int r.attacker_admitted);
      ("attacker_resyncs", Obs.Json.Int r.attacker_resyncs);
      ("auth_rejected", Obs.Json.Int r.auth_rejected);
      ("replays_dropped", Obs.Json.Int r.replays_dropped);
      ("malformed", Obs.Json.Int r.malformed);
      ("srv_resyncs", Obs.Json.Int r.srv_resyncs);
      ("retransmissions", Obs.Json.Int r.retransmissions);
      ("timeouts", Obs.Json.Int r.timeouts);
      ("spurious_retx", Obs.Json.Int r.spurious_retx);
      ("sim_end_ns", Obs.Json.Int r.sim_end);
    ]

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>adversary arm=%s rate=%.3f: %d/%d completed (%d wedged) by %a@,\
     fct p50 %.3fs p95 %.3fs p99 %.3fs mean %.3fs@,\
     attacks: %d spoofed, %d replayed, %d truncated, %d bit-flipped (of %d \
     observed)@,\
     damage: %d attacker quACKs admitted, %d attacker-forced resyncs@,\
     defence: %d rejected by tag, %d replays dropped, %d malformed@,\
     sealed %d quACKs (+%d B tags); server resyncs %d, retx %d (spurious \
     %d), timeouts %d@,\
     proxy: %a@,delivered %d B@]"
    (arm_name r) r.attack_rate r.completed r.flows r.wedged Time.pp r.sim_end
    r.fct_p50 r.fct_p95 r.fct_p99 r.fct_mean r.attacks.Adv.spoofs
    r.attacks.Adv.replays r.attacks.Adv.truncations r.attacks.Adv.bitflips
    r.attacks.Adv.observed r.attacker_admitted r.attacker_resyncs
    r.auth_rejected r.replays_dropped r.malformed r.quacks_sealed
    r.auth_bytes_overhead r.srv_resyncs r.retransmissions r.spurious_retx
    r.timeouts Scenario.pp_proxy_stats r.proxy r.data_delivered_bytes
