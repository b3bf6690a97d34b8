module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Rng = Netsim.Rng
module Stats = Netsim.Stats
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Protocol = Sidecar_protocols.Protocol
module Proto_cc = Sidecar_protocols.Proto_cc
module Proto_ar = Sidecar_protocols.Proto_ar
module Proto_retx = Sidecar_protocols.Proto_retx

type config = {
  protocol : [ `Cc | `Ack | `Retx ];
  flows : int;
  table_flows : int;
  policy : Flow_table.policy;
  near : Path.segment;
  middle : Path.segment;
  far : Path.segment;
  mss : int;
  size_dist : Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival_mean_s : float;
  client_quack_every : int;
  client_ack_every : int;
  warmup_units : int;
  keepalive : Time.span;
  bits : int;
  threshold : int;
  count_bits : int;
  upstream_quack_every : int;
  adaptive : bool;
  target_missing : int;
  buffer_pkts : int;
  field : [ `Modular | `Log ];
  seed : int;
  until : Time.t;
}

let default_far =
  Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
    ~loss:(Path.Bernoulli 0.01) ()

let default_near =
  Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 28) ()

(* Only the [`Retx] protocol uses the middle segment: it becomes the
   lossy subpath the near/far proxy pair brackets. *)
let default_middle =
  Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 1)
    ~loss:
      (Path.Gilbert { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_bad = 0.3 })
    ()

(* §4's parameter selection, applied to the far segment (the link the
   per-flow quACK state must absorb): identifier width from the
   collision budget, threshold from worst-case losses per interval,
   interval from the CC-division cadence. *)
let planned_for (far : Path.segment) =
  let link =
    {
      Q.Frequency.rtt_s = Time.to_float_s (Path.rtt [ far ]);
      rate_bps = float_of_int far.Path.rate_bps;
      loss = Float.max 1e-4 (Path.average_loss far.Path.loss);
      mtu_bytes = 1500;
    }
  in
  Q.Planner.plan
    { Q.Planner.default_requirements with link; protocol = Q.Planner.Cc_division }

let default_config =
  let d = planned_for default_far in
  {
    protocol = `Cc;
    flows = 200;
    table_flows = 64;
    policy = Flow_table.Lru;
    near = default_near;
    middle = default_middle;
    far = default_far;
    mss = 1460;
    size_dist = Workload.web_flows;
    min_units = 1;
    max_units = 2000;
    arrival_mean_s = 0.02;
    client_quack_every = max 2 (min 64 d.Q.Planner.interval_packets);
    client_ack_every = 32;
    warmup_units = 200;
    keepalive = 4 * Path.rtt [ default_far ];
    bits = d.Q.Planner.bits;
    (* the planner sizes [t] for one clean interval; short-flow churn
       (admissions, resyncs) wants head-room, hence the floor *)
    threshold = max 8 d.Q.Planner.threshold;
    count_bits = max 16 d.Q.Planner.count_bits;
    upstream_quack_every = 16;
    adaptive = true;
    target_missing = 2;
    buffer_pkts = 256;
    field = `Modular;
    seed = 1;
    until = Time.s 120;
  }

type flow_report = Population.flow_report = {
  flow : int;
  units : int;
  started_at : Time.t;
  completed : bool;
  fct_s : float;
  transmissions : int;
  retransmissions : int;
  timeouts : int;
  duplicates : int;
}

type report = {
  flows : flow_report array;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy : Proxy.stats;
  proxy2 : Proxy.stats option;
  table : Flow_table.stats;
  table2 : Flow_table.stats option;
  peak_occupancy : int;
  evictions : int;
  srv_resyncs : int;
  srv_replays_dropped : int;
  freq_updates_sent : int;
  proxy_retransmissions : int;
  proxy_busy_s : float;
  sim_end : Time.t;
}

let run ?cost_clock (cfg : config) =
  if cfg.client_quack_every < 1 then
    invalid_arg "Scenario.run: client quack interval must be positive";
  if cfg.keepalive <= 0 then
    invalid_arg "Scenario.run: keepalive must be positive";
  let segments =
    match cfg.protocol with
    | `Retx -> [ cfg.near; cfg.middle; cfg.far ]
    | `Cc | `Ack -> [ cfg.near; cfg.far ]
  in
  let path = Path.build ~seed:cfg.seed segments in
  let { Path.engine; fwd; rev } = path in
  let nseg = Array.length fwd in
  let wire = cfg.mss + 40 in
  (* Sketch arithmetic shared by every sketch in the run, so each
     decode pair (proxy rx / server ss, client rx / proxy ss) agrees
     on its field. [`Log] is table-backed and only fits small moduli
     (Log_field rejects bits > 20). *)
  let field_mod =
    match cfg.field with
    | `Modular -> None
    | `Log ->
        Some
          (Sidecar_field.Log_field.make
             (Sidecar_field.Primes.field_for_bits cfg.bits))
  in

  (* ---- clients ----------------------------------------------------- *)
  (* sized before Population.create validates [flows] *)
  let clients = max 0 cfg.flows in
  let client_rx =
    Array.init clients (fun _ ->
        Q.Receiver_state.create ~bits:cfg.bits ?field:field_mod
          ~count_bits:cfg.count_bits
          ~policy:(Q.Receiver_state.Every_packets cfg.client_quack_every)
          ~threshold:cfg.threshold ())
  in
  let client_quack_index = Array.make clients 0 in
  let send_client_quack i q =
    client_quack_index.(i) <- client_quack_index.(i) + 1;
    ignore
      (Link.send rev.(0)
         (Sframes.quack_packet ~src:"client" ~quack:q ~dst:"proxy"
            ~index:client_quack_index.(i) ~count_omitted:false ~flow:i
            ~now:(Engine.now engine) ()))
  in
  let client =
    match cfg.protocol with
    | `Cc ->
        Some
          (fun _ (p : Packet.t) ->
            let i = p.Packet.flow in
            match Q.Receiver_state.on_receive client_rx.(i) p.Packet.id with
            | Some q -> send_client_quack i q
            | None -> ())
    | `Ack ->
        (* The ACK-frequency extension keeps immediate ACKs during
           start-up (the sender needs the clocking) and goes sparse
           once the flow is established. *)
        Some
          (fun r _ ->
            if Transport.Receiver.data_packets_seen r = cfg.warmup_units then
              Transport.Receiver.set_ack_every r cfg.client_ack_every)
    | `Retx -> None
  in
  (* In [`Retx] the server runs no sidecar (the pair is self-contained
     in-network), but its loss detection must tolerate the reordering
     local retransmission introduces. *)
  let pop =
    Population.create ~name:"Scenario" path ~flows:cfg.flows
      ~sizes:(Population.Sampled cfg.size_dist) ~min_units:cfg.min_units
      ~max_units:cfg.max_units
      ~arrival:(Workload.Poisson { mean_s = cfg.arrival_mean_s })
      ~mss:cfg.mss ~id_key_base:0x51DE
      ?pkt_threshold:(match cfg.protocol with `Retx -> Some 1024 | _ -> None)
      ~sketch:
        {
          Q.Sender_state.default_config with
          bits = cfg.bits;
          threshold = cfg.threshold;
          count_bits = cfg.count_bits;
          field = field_mod;
        }
      ~sidecar:
        (match cfg.protocol with
        | `Cc | `Ack -> Population.Guarded
        | `Retx -> Population.No_sidecar)
      ~client
      ~ack_link:(fun _ -> rev.(0))
      ()
  in

  (* ---- proxies ---------------------------------------------------- *)
  (* The proxy at junction [k] sits between segments [k - 1] and [k]:
     it takes fwd.(k - 1) and forwards on fwd.(k); [Path.build] lists
     the return links receiver side first, so it takes rev.(nseg - 1 - k)
     and returns on rev.(nseg - k). *)
  let mk_proxy k protocol =
    let px =
      Proxy.create engine ~capacity:cfg.table_flows ~policy:cfg.policy ~protocol
        ~forward:(fun p -> ignore (Link.send fwd.(k) p))
        ~backward:(fun p -> ignore (Link.send rev.(nseg - k) p))
        ?cost_clock ()
    in
    Link.set_deliver fwd.(k - 1) (Proxy.on_ingress px);
    Link.set_deliver rev.(nseg - 1 - k) (Proxy.on_return px);
    px
  in
  (* [proxy] sits at the first junction in every mode; [proxy2] exists
     only for [`Retx], where the pair brackets the middle segment. *)
  let proxy, proxy2 =
    match cfg.protocol with
    | `Cc ->
        ( mk_proxy 1
            (Proto_cc.make
               {
                 Proto_cc.bits = cfg.bits;
                 threshold = cfg.threshold;
                 count_bits = Some cfg.count_bits;
                 wire;
                 buffer_pkts = cfg.buffer_pkts;
                 upstream = Proto_cc.Every cfg.upstream_quack_every;
                 overflow = Proto_cc.Bypass;
                 field = field_mod;
               }),
          None )
    | `Ack ->
        ( mk_proxy 1
            (Proto_ar.make
               {
                 Proto_ar.bits = cfg.bits;
                 threshold = cfg.threshold;
                 count_bits = Some cfg.count_bits;
                 quack_every = cfg.upstream_quack_every;
                 omit_count = false;
                 field = field_mod;
               }),
          None )
    | `Retx ->
        let pcfg =
          {
            Proto_retx.bits = cfg.bits;
            threshold = cfg.threshold;
            strikes_to_lose = 1;
            buffer_pkts = cfg.buffer_pkts;
            initial_quack_every = cfg.upstream_quack_every;
            adaptive = cfg.adaptive;
            target_missing = cfg.target_missing;
            subpath_rtt = 2 * cfg.middle.Path.delay;
            near_addr = "proxyA";
            far_addr = "proxyB";
            field = field_mod;
          }
        in
        (mk_proxy 1 (Proto_retx.near pcfg), Some (mk_proxy 2 (Proto_retx.far pcfg)))
  in
  let proxies = proxy :: Option.to_list proxy2 in

  (* The server-side sidecar of §2.2/§2.3: decode the proxy's upstream
     quACKs into provisional window space, and steer the proxy's quACK
     cadence toward [target_missing] losses per interval. *)
  let upstream_interval = Array.make cfg.flows cfg.upstream_quack_every in
  let freq_updates_sent = ref 0 in
  let adapt i (rep : int Q.Sender_state.report) =
    let lost = List.length rep.Q.Sender_state.lost in
    let got = List.length rep.Q.Sender_state.acked in
    if lost + got > 0 then begin
      let observed_loss = float_of_int lost /. float_of_int (lost + got) in
      let next =
        Q.Frequency.adapt_interval ~current:upstream_interval.(i)
          ~observed_loss ~target_missing:cfg.target_missing
      in
      if next <> upstream_interval.(i) then begin
        upstream_interval.(i) <- next;
        incr freq_updates_sent;
        ignore
          (Link.send fwd.(0)
             (Sframes.freq_packet ~dst:"proxy" ~interval_packets:next ~flow:i
                ~now:(Engine.now engine)))
      end
    end
  in
  let deliver_server =
    Population.server_demux pop (fun i -> function
      | Sframes.Quack_frame { quack; dst = "server"; index; _ } ->
          (match Population.consume pop i ~index quack with
          | Q.Quack_consumer.Decoded rep when cfg.adaptive -> adapt i rep
          | _ -> ());
          true
      | _ -> false)
  in

  (* ---- wiring ------------------------------------------------------ *)
  Population.attach_clients pop [ fwd.(nseg - 1) ];
  Link.set_deliver rev.(nseg - 1) deliver_server;

  (* Protocol timers (the retransmission pair's far proxy quACKs on a
     subpath-RTT backstop); a no-op for timerless protocols. *)
  List.iter (fun px -> Proxy.start px ~until:cfg.until) proxies;

  (* Client keepalive: for CC division, re-emit the cumulative quACK
     while the flow is open, so a lost quACK can never leave the proxy
     window closed forever (cumulative quACKs make the duplicates
     harmless); for every protocol, release the proxy slots when the
     flow completes. *)
  Population.start pop ~period:cfg.keepalive ~on_start:ignore
    ~on_tick:
      (match cfg.protocol with
      | `Cc -> fun i -> send_client_quack i (Q.Receiver_state.emit client_rx.(i))
      | `Ack | `Retx -> ignore)
    ~proxies ~until:cfg.until;

  (match cfg.policy with
  | Flow_table.Lru -> ()
  | Flow_table.Idle span ->
      let period = max (Time.ms 1) (span / 2) in
      let rec sweep () =
        List.iter (fun px -> ignore (Proxy.sweep_idle px)) proxies;
        if Engine.now engine < cfg.until && not (Population.all_done pop) then
          Engine.schedule engine ~delay:period sweep
      in
      Engine.schedule engine ~delay:period sweep);

  Engine.run ~until:cfg.until engine;

  (* ---- summary ----------------------------------------------------- *)
  let sum = Population.summary pop in
  let table = Proxy.table_stats proxy in
  {
    flows = sum.Population.per_flow;
    completed = sum.Population.completed;
    fct_p50 = sum.Population.fct_p50;
    fct_p95 = sum.Population.fct_p95;
    fct_p99 = sum.Population.fct_p99;
    fct_mean = sum.Population.fct_mean;
    data_delivered_bytes = sum.Population.data_delivered_bytes;
    proxy = Proxy.stats proxy;
    proxy2 = Option.map Proxy.stats proxy2;
    table;
    table2 = Option.map Proxy.table_stats proxy2;
    peak_occupancy = Proxy.peak_occupancy proxy;
    evictions = table.Flow_table.evicted_lru + table.Flow_table.evicted_idle;
    srv_resyncs = sum.Population.srv_resyncs;
    srv_replays_dropped = sum.Population.srv_replays;
    freq_updates_sent =
      (match cfg.protocol with
      | `Cc | `Ack -> !freq_updates_sent
      | `Retx ->
          Obs.Metrics.Counter.get (Proxy.counters proxy).Protocol.freq_sent);
    proxy_retransmissions =
      Obs.Metrics.Counter.get (Proxy.counters proxy).Protocol.retransmissions;
    proxy_busy_s = List.fold_left (fun a px -> a +. Proxy.busy_s px) 0. proxies;
    sim_end = Engine.now engine;
  }

let json_proxy_stats (s : Proxy.stats) =
  Obs.Json.Obj
    [
      ("data_packets", Obs.Json.Int s.Proxy.data_packets);
      ("degraded_packets", Obs.Json.Int s.Proxy.degraded_packets);
      ("buffer_bypass", Obs.Json.Int s.Proxy.buffer_bypass);
      ("quacks_rx", Obs.Json.Int s.Proxy.quacks_rx);
      ("degraded_quacks", Obs.Json.Int s.Proxy.degraded_quacks);
      ("quacks_tx", Obs.Json.Int s.Proxy.quacks_tx);
      ("quack_bytes", Obs.Json.Int s.Proxy.quack_bytes);
      ("freq_updates", Obs.Json.Int s.Proxy.freq_updates);
      ("resyncs", Obs.Json.Int s.Proxy.resyncs);
      ("flushed_on_evict", Obs.Json.Int s.Proxy.flushed_on_evict);
    ]

let json_table_stats (s : Flow_table.stats) =
  Obs.Json.Obj
    [
      ("admitted", Obs.Json.Int s.Flow_table.admitted);
      ("evicted_lru", Obs.Json.Int s.Flow_table.evicted_lru);
      ("evicted_idle", Obs.Json.Int s.Flow_table.evicted_idle);
      ("removed", Obs.Json.Int s.Flow_table.removed);
      ("denied", Obs.Json.Int s.Flow_table.denied);
      ("hits", Obs.Json.Int s.Flow_table.hits);
      ("misses", Obs.Json.Int s.Flow_table.misses);
    ]

let json_report r =
  let opt f = function Some x -> f x | None -> Obs.Json.Null in
  Obs.Json.Obj
    [
      ("flows", Obs.Json.Int (Array.length r.flows));
      ("completed", Obs.Json.Int r.completed);
      ("fct_p50_s", Obs.Json.Float r.fct_p50);
      ("fct_p95_s", Obs.Json.Float r.fct_p95);
      ("fct_p99_s", Obs.Json.Float r.fct_p99);
      ("fct_mean_s", Obs.Json.Float r.fct_mean);
      ("data_delivered_bytes", Obs.Json.Int r.data_delivered_bytes);
      ("proxy", json_proxy_stats r.proxy);
      ("proxy2", opt json_proxy_stats r.proxy2);
      ("table", json_table_stats r.table);
      ("table2", opt json_table_stats r.table2);
      ("peak_occupancy", Obs.Json.Int r.peak_occupancy);
      ("evictions", Obs.Json.Int r.evictions);
      ("srv_resyncs", Obs.Json.Int r.srv_resyncs);
      ("srv_replays_dropped", Obs.Json.Int r.srv_replays_dropped);
      ("freq_updates_sent", Obs.Json.Int r.freq_updates_sent);
      ("proxy_retransmissions", Obs.Json.Int r.proxy_retransmissions);
      ("proxy_busy_s", Obs.Json.Float r.proxy_busy_s);
      ("sim_end_ns", Obs.Json.Int r.sim_end);
    ]

let pp_proxy_stats ppf (s : Proxy.stats) =
  Format.fprintf ppf
    "%d tracked pkts, %d degraded pkts, %d quacks in (%d degraded), %d quacks \
     out (%d B), %d resyncs, %d flushed on evict"
    s.Proxy.data_packets s.Proxy.degraded_packets s.Proxy.quacks_rx
    s.Proxy.degraded_quacks s.Proxy.quacks_tx s.Proxy.quack_bytes
    s.Proxy.resyncs s.Proxy.flushed_on_evict

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>flows %d/%d completed by %a@,\
     fct p50 %.3fs p95 %.3fs p99 %.3fs mean %.3fs@,\
     table: peak %d, admitted %d, evicted %d (lru %d, idle %d), denied %d, \
     released %d@,\
     proxy: %a"
    r.completed (Array.length r.flows) Time.pp r.sim_end r.fct_p50 r.fct_p95
    r.fct_p99 r.fct_mean r.peak_occupancy r.table.Flow_table.admitted
    r.evictions r.table.Flow_table.evicted_lru r.table.Flow_table.evicted_idle
    r.table.Flow_table.denied r.table.Flow_table.removed pp_proxy_stats r.proxy;
  (match r.proxy2 with
  | Some s -> Format.fprintf ppf "@,far proxy: %a" pp_proxy_stats s
  | None -> ());
  Format.fprintf ppf
    "@,server sidecars: %d resyncs, %d replays dropped, %d freq updates@,\
     proxy retransmissions: %d@,delivered %d B downstream@]"
    r.srv_resyncs r.srv_replays_dropped r.freq_updates_sent
    r.proxy_retransmissions r.data_delivered_bytes
