module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Migration = Sidecar_protocols.Migration

type strategy = Resync | Transfer

let strategy_name = function Resync -> "resync" | Transfer -> "transfer"

type config = {
  strategy : strategy;
  migrate : bool;  (** [false] = baseline arm: every flow stays on A *)
  flows : int;
  table_flows : int;
  near : Path.segment;  (** server -> junction *)
  far_a : Path.segment;  (** junction -> client via sidecar A *)
  far_b : Path.segment;  (** junction -> client via sidecar B *)
  mss : int;
  size_dist : Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival : Workload.arrival;
  migrate_after : Time.span;  (** per flow, relative to its start *)
  ctrl_delay : Time.span;  (** control-channel latency of a Transfer *)
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Time.t;
}

let default_config =
  {
    strategy = Transfer;
    migrate = true;
    flows = 40;
    table_flows = 40;
    near = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 10) ();
    far_a = Path.cellular;
    far_b = Path.congested_cell;
    mss = 1460;
    size_dist = Workload.web_flows;
    min_units = 200;
    max_units = 2000;
    arrival = Workload.Flash_crowd
        { base_mean_s = 0.05; at_s = 0.4; crowd = 16; spread_s = 0.05 };
    migrate_after = Time.ms 250;
    ctrl_delay = Time.ms 5;
    quack_every = 16;
    bits = 32;
    threshold = 16;
    count_bits = 16;
    seed = 1;
    until = Time.s 180;
  }

let arms base =
  [
    ("baseline", { base with migrate = false });
    ("resync", { base with strategy = Resync });
    ("transfer", { base with strategy = Transfer });
  ]

type report = {
  strategy : strategy;
  migrated : bool;
  flows : int;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy_a : Proxy.stats;
  proxy_b : Proxy.stats;
  migrations : int;
  transfers : int;  (** snapshots shipped over the control channel *)
  transfer_bytes : int;  (** modeled control-channel cost *)
  install_merges : int;  (** transfers that raced with migrated data *)
  srv_resyncs : int;
  srv_replays_dropped : int;
  retransmissions : int;
  timeouts : int;
  spurious_retx : int;  (** duplicate deliveries at the client *)
  sim_end : Time.t;
}

let run (cfg : config) =
  if cfg.migrate_after <= 0 then
    invalid_arg "Handover.run: migrate_after must be positive";
  if cfg.ctrl_delay < 0 then
    invalid_arg "Handover.run: negative control-channel delay";
  (* One engine, three unwired duplex segments: near (server-junction)
     plus the two parallel far branches. [Path.build] returns the
     return links receiver-side first, so rev.(0)/rev.(1) are the far
     B/A client-side links and rev.(2) is the junction-server link. *)
  let path = Path.build ~seed:cfg.seed [ cfg.near; cfg.far_a; cfg.far_b ] in
  let { Path.engine; fwd; rev } = path in
  (* sized before Population.create validates [flows] *)
  let on_a = Array.make (max 0 cfg.flows) true in
  let pop =
    Population.create ~name:"Handover" path ~flows:cfg.flows
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
      ~sidecar:Population.Guarded ~client:None
        (* end-to-end ACKs ride the flow's current path *)
      ~ack_link:(fun i -> if on_a.(i) then rev.(1) else rev.(0))
      ()
  in

  (* ---- the two sidecars ------------------------------------------- *)
  let mk_migration addr =
    Migration.make
      {
        Migration.addr;
        bits = cfg.bits;
        threshold = cfg.threshold;
        count_bits = cfg.count_bits;
        quack_every = cfg.quack_every;
        field = None;
      }
  in
  let proto_a, handle_a = mk_migration "sidecarA" in
  let proto_b, handle_b = mk_migration "sidecarB" in
  let mk_proxy ~protocol ~forward =
    Proxy.create engine ~capacity:cfg.table_flows ~policy:Flow_table.Lru
      ~protocol ~forward
      ~backward:(fun p -> ignore (Link.send rev.(2) p))
      ()
  in
  let proxy_a =
    mk_proxy ~protocol:proto_a ~forward:(fun p -> ignore (Link.send fwd.(1) p))
  in
  let proxy_b =
    mk_proxy ~protocol:proto_b ~forward:(fun p -> ignore (Link.send fwd.(2) p))
  in

  (* ---- wiring ------------------------------------------------------ *)
  Population.attach_clients pop [ fwd.(1); fwd.(2) ];
  (* junction: route by the flow's current path assignment *)
  Link.set_deliver fwd.(0) (fun p ->
      if p.Packet.flow >= 0 && p.Packet.flow < cfg.flows then
        if on_a.(p.Packet.flow) then Proxy.on_ingress proxy_a p
        else Proxy.on_ingress proxy_b p);
  Link.set_deliver rev.(1) (Proxy.on_return proxy_a);
  Link.set_deliver rev.(0) (Proxy.on_return proxy_b);
  (* Server sidecar: quACKs -> provisional window credit. Under
     [Resync], sidecar B's first fresh quACK after the handover carries
     a regressed index with novel contents: the consumer adopts its sums
     as the new baseline (§3.3). *)
  Link.set_deliver rev.(2)
    (Population.server_demux pop (fun i -> function
      | Sframes.Quack_frame { quack; dst = "server"; index; _ } ->
          ignore (Population.consume pop i ~index quack);
          true
      | _ -> false));

  (* ---- the migration event ---------------------------------------- *)
  let migrations = ref 0 in
  let transfers = ref 0 in
  let transfer_bytes = ref 0 in
  let migrate i () =
    if (not (Population.flow_done pop i)) && on_a.(i) then begin
      incr migrations;
      (match cfg.strategy with
      | Resync -> ()
      | Transfer -> (
          (* EMQX-style session takeover: A exports the flow's sketch
             and emission index; the snapshot reaches B after the
             control channel's delay. Data starts taking the new path
             immediately, so a slow control plane can lose the race —
             [Migration.install] folds the snapshot into live state in
             that case. *)
          match Migration.snapshot handle_a ~flow:i with
          | None -> ()
          | Some snap ->
              incr transfers;
              transfer_bytes :=
                !transfer_bytes + Migration.snapshot_wire_bytes snap;
              Engine.schedule engine ~delay:cfg.ctrl_delay (fun () ->
                  Migration.install handle_b ~flow:i snap)));
      (* the old sidecar drops the flow either way; under [Resync] B
         simply admits it fresh on the first migrated packet *)
      ignore (Proxy.release proxy_a i);
      on_a.(i) <- false
    end
  in

  (* ---- run ---------------------------------------------------------- *)
  Population.start pop ~period:(Time.ms 500)
    ~on_start:(fun i ->
      if cfg.migrate then
        Engine.schedule engine ~delay:cfg.migrate_after (migrate i))
    ~on_tick:ignore ~proxies:[ proxy_a; proxy_b ] ~until:cfg.until;
  Engine.run ~until:cfg.until engine;

  let sum = Population.summary pop in
  {
    strategy = cfg.strategy;
    migrated = cfg.migrate;
    flows = cfg.flows;
    completed = sum.Population.completed;
    fct_p50 = sum.Population.fct_p50;
    fct_p95 = sum.Population.fct_p95;
    fct_p99 = sum.Population.fct_p99;
    fct_mean = sum.Population.fct_mean;
    data_delivered_bytes = sum.Population.data_delivered_bytes;
    proxy_a = Proxy.stats proxy_a;
    proxy_b = Proxy.stats proxy_b;
    migrations = !migrations;
    transfers = !transfers;
    transfer_bytes = !transfer_bytes;
    install_merges = Migration.install_merges handle_b;
    srv_resyncs = sum.Population.srv_resyncs;
    srv_replays_dropped = sum.Population.srv_replays;
    retransmissions = sum.Population.retransmissions;
    timeouts = sum.Population.timeouts;
    spurious_retx = sum.Population.duplicates;
    sim_end = Engine.now engine;
  }

let json_report (r : report) =
  Obs.Json.Obj
    [
      ("strategy", Obs.Json.String (strategy_name r.strategy));
      ("migrated", Obs.Json.Bool r.migrated);
      ("flows", Obs.Json.Int r.flows);
      ("completed", Obs.Json.Int r.completed);
      ("fct_p50_s", Obs.Json.Float r.fct_p50);
      ("fct_p95_s", Obs.Json.Float r.fct_p95);
      ("fct_p99_s", Obs.Json.Float r.fct_p99);
      ("fct_mean_s", Obs.Json.Float r.fct_mean);
      ("data_delivered_bytes", Obs.Json.Int r.data_delivered_bytes);
      ("proxy_a", Scenario.json_proxy_stats r.proxy_a);
      ("proxy_b", Scenario.json_proxy_stats r.proxy_b);
      ("migrations", Obs.Json.Int r.migrations);
      ("transfers", Obs.Json.Int r.transfers);
      ("transfer_bytes", Obs.Json.Int r.transfer_bytes);
      ("install_merges", Obs.Json.Int r.install_merges);
      ("srv_resyncs", Obs.Json.Int r.srv_resyncs);
      ("srv_replays_dropped", Obs.Json.Int r.srv_replays_dropped);
      ("retransmissions", Obs.Json.Int r.retransmissions);
      ("timeouts", Obs.Json.Int r.timeouts);
      ("spurious_retx", Obs.Json.Int r.spurious_retx);
      ("sim_end_ns", Obs.Json.Int r.sim_end);
    ]

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>handover %s%s: %d/%d completed by %a@,\
     fct p50 %.3fs p95 %.3fs p99 %.3fs mean %.3fs@,\
     migrations %d (transfers %d, %d B ctrl, %d merged on race)@,\
     server resyncs %d (replays dropped %d), retx %d (spurious %d), timeouts \
     %d@,\
     sidecar A: %a@,sidecar B: %a@,delivered %d B@]"
    (strategy_name r.strategy)
    (if r.migrated then "" else " (baseline: no migration)")
    r.completed r.flows Time.pp r.sim_end r.fct_p50 r.fct_p95 r.fct_p99
    r.fct_mean r.migrations r.transfers r.transfer_bytes r.install_merges
    r.srv_resyncs r.srv_replays_dropped r.retransmissions r.spurious_retx
    r.timeouts
    Scenario.pp_proxy_stats r.proxy_a Scenario.pp_proxy_stats r.proxy_b
    r.data_delivered_bytes
