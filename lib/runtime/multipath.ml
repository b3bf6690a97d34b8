module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Migration = Sidecar_protocols.Migration

type config = {
  flows : int;
  table_flows : int;
  near : Path.segment;  (** server -> splitter *)
  far_1 : Path.segment;  (** splitter -> client via sidecar 1 *)
  far_2 : Path.segment;  (** splitter -> client via sidecar 2 *)
  split : int * int;
      (** deterministic per-flow packet schedule: of every
          [fst + snd] data packets, the first [fst] take path 1 and
          the rest path 2. [(k, 0)] sends everything on path 1 — the
          single-path arm the merged decode is compared against. *)
  mss : int;
  size_dist : Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival : Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Time.t;
}

let default_config =
  {
    flows = 40;
    table_flows = 40;
    near = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 10) ();
    far_1 = Path.cellular;
    far_2 = Path.congested_cell;
    split = (1, 1);
    mss = 1460;
    size_dist = Workload.web_flows;
    min_units = 200;
    max_units = 2000;
    arrival = Workload.Flash_crowd
        { base_mean_s = 0.05; at_s = 0.4; crowd = 16; spread_s = 0.05 };
    quack_every = 16;
    bits = 32;
    threshold = 16;
    count_bits = 16;
    seed = 1;
    until = Time.s 180;
  }

let arms base = [ ("split", base); ("single_path", { base with split = (1, 0) }) ]

type report = {
  flows : int;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy_1 : Proxy.stats;
  proxy_2 : Proxy.stats;
  path1_pkts : int;
  path2_pkts : int;
  folded_decodes : int;  (** sender decodes fed a [Psum.merge] fold *)
  srv_resyncs : int;
  srv_replays_dropped : int;
  retransmissions : int;
  timeouts : int;
  duplicates : int;
  sim_end : Time.t;
}

let run (cfg : config) =
  let share_1, share_2 = cfg.split in
  if share_1 < 0 || share_2 < 0 || share_1 + share_2 = 0 then
    invalid_arg "Multipath.run: bad split shares";
  let cycle = share_1 + share_2 in
  let path = Path.build ~seed:cfg.seed [ cfg.near; cfg.far_1; cfg.far_2 ] in
  let { Path.engine; fwd; rev } = path in
  let n = cfg.flows in
  (* Cross-path delay disparity reorders deeply, so loss detection leans
     on the folded quACK decode and the PTO, not dupacks. The folded
     stream has no single emission index: the per-path guards below
     classify, and the consumers run unguarded. *)
  let pop =
    Population.create ~name:"Multipath" path ~flows:n
      ~sizes:(Population.Sampled cfg.size_dist) ~min_units:cfg.min_units
      ~max_units:cfg.max_units ~arrival:cfg.arrival ~mss:cfg.mss
      ~id_key_base:0x517E ~pkt_threshold:1024
      ~sketch:
        {
          Q.Sender_state.default_config with
          bits = cfg.bits;
          threshold = cfg.threshold;
          count_bits = cfg.count_bits;
        }
      ~sidecar:Population.Unguarded ~client:None
        (* asymmetric routing: end-to-end ACKs take path 1's reverse
           (path 2's when path 1 carries no data) *)
      ~ack_link:(fun _ -> if share_1 > 0 then rev.(1) else rev.(0))
      ()
  in

  (* ---- the two path sidecars -------------------------------------- *)
  let mk_sidecar addr =
    fst
      (Migration.make
         {
           Migration.addr;
           bits = cfg.bits;
           threshold = cfg.threshold;
           count_bits = cfg.count_bits;
           quack_every = cfg.quack_every;
           field = None;
         })
  in
  let mk_proxy ~protocol ~forward =
    Proxy.create engine ~capacity:cfg.table_flows ~policy:Flow_table.Lru
      ~protocol ~forward
      ~backward:(fun p -> ignore (Link.send rev.(2) p))
      ()
  in
  let proxy_1 =
    mk_proxy ~protocol:(mk_sidecar "path1")
      ~forward:(fun p -> ignore (Link.send fwd.(1) p))
  in
  let proxy_2 =
    mk_proxy ~protocol:(mk_sidecar "path2")
      ~forward:(fun p -> ignore (Link.send fwd.(2) p))
  in

  (* ---- the sender-side fold: two path quACKs -> one decode -------- *)
  (* Per flow, the latest cumulative quACK of each path. The fold
     reconstructs each as a sketch, merges them ([Psum.merge] is
     linear: power sums of a multiset union add pointwise), and snaps
     the union back to a quACK via [Quack.of_psum] — the seam that
     wraps the combined count to its wire width. *)
  let last_q1 : Q.Quack.t option array = Array.make n None in
  let last_q2 : Q.Quack.t option array = Array.make n None in
  (* one guard per (flow, path): replays are per-emission-stream *)
  let guards1 = Array.init n (fun _ -> Q.Replay_guard.create ()) in
  let guards2 = Array.init n (fun _ -> Q.Replay_guard.create ()) in
  let folded_decodes = ref 0 in
  let psum_of (q : Q.Quack.t) =
    let p = Q.Psum.create ~bits:cfg.bits ~threshold:cfg.threshold () in
    Q.Psum.set_state p ~sums:q.Q.Quack.sums ~count:q.Q.Quack.count;
    p
  in
  let fold i =
    match (last_q1.(i), last_q2.(i)) with
    | None, None -> None
    | Some q, None | None, Some q -> Some q
    | Some q1, Some q2 ->
        incr folded_decodes;
        let merged = Q.Psum.merge (psum_of q1) (psum_of q2) in
        Some (Q.Quack.of_psum ~count_bits:cfg.count_bits merged)
  in
  let on_server_quack i ~src ~index quack =
    let guard, slot =
      match src with "path1" -> (guards1.(i), last_q1) | _ -> (guards2.(i), last_q2)
    in
    match Q.Replay_guard.classify guard ~index quack with
    | Q.Replay_guard.Replay ->
        (* a re-delivered copy of a path emission already folded in:
           dropped before it touches the fold state — folding it
           again would force a spurious resync *)
        ()
    | (Q.Replay_guard.Fresh | Q.Replay_guard.Regression) as verdict -> (
        slot.(i) <- Some quack;
        match fold i with
        | None -> ()
        | Some folded ->
            if verdict = Q.Replay_guard.Regression then
              (* one path's sidecar state restarted (eviction +
                 re-admission): its fresh baseline makes the fold
                 undecodable against ours, so adopt it (§3.3) *)
              ignore
                (Q.Quack_consumer.resync (Population.consumer pop i) folded)
            else ignore (Population.consume pop i folded))
  in

  (* ---- wiring ------------------------------------------------------ *)
  Population.attach_clients pop [ fwd.(1); fwd.(2) ];
  (* splitter: a deterministic per-flow cycle over the two branches *)
  let split_pos = Array.make n 0 in
  let path1_pkts = ref 0 in
  let path2_pkts = ref 0 in
  Link.set_deliver fwd.(0) (fun p ->
      let f = p.Packet.flow in
      if f >= 0 && f < n then begin
        let pos = split_pos.(f) in
        split_pos.(f) <- (pos + 1) mod cycle;
        if pos < share_1 then begin
          incr path1_pkts;
          Proxy.on_ingress proxy_1 p
        end
        else begin
          incr path2_pkts;
          Proxy.on_ingress proxy_2 p
        end
      end);
  Link.set_deliver rev.(1) (Proxy.on_return proxy_1);
  Link.set_deliver rev.(0) (Proxy.on_return proxy_2);
  Link.set_deliver rev.(2)
    (Population.server_demux pop (fun i -> function
      | Sframes.Quack_frame { quack; src; dst = "server"; index } ->
          on_server_quack i ~src ~index quack;
          true
      | _ -> false));

  (* ---- run ---------------------------------------------------------- *)
  Population.start pop ~period:(Time.ms 500) ~on_start:ignore ~on_tick:ignore
    ~proxies:[ proxy_1; proxy_2 ] ~until:cfg.until;
  Engine.run ~until:cfg.until engine;

  let sum = Population.summary pop in
  let replays guards =
    Array.fold_left (fun a g -> a + Q.Replay_guard.replays g) 0 guards
  in
  {
    flows = n;
    completed = sum.Population.completed;
    fct_p50 = sum.Population.fct_p50;
    fct_p95 = sum.Population.fct_p95;
    fct_p99 = sum.Population.fct_p99;
    fct_mean = sum.Population.fct_mean;
    data_delivered_bytes = sum.Population.data_delivered_bytes;
    proxy_1 = Proxy.stats proxy_1;
    proxy_2 = Proxy.stats proxy_2;
    path1_pkts = !path1_pkts;
    path2_pkts = !path2_pkts;
    folded_decodes = !folded_decodes;
    srv_resyncs = sum.Population.srv_resyncs;
    srv_replays_dropped = replays guards1 + replays guards2;
    retransmissions = sum.Population.retransmissions;
    timeouts = sum.Population.timeouts;
    duplicates = sum.Population.duplicates;
    sim_end = Engine.now engine;
  }

let json_report (r : report) =
  Obs.Json.Obj
    [
      ("flows", Obs.Json.Int r.flows);
      ("completed", Obs.Json.Int r.completed);
      ("fct_p50_s", Obs.Json.Float r.fct_p50);
      ("fct_p95_s", Obs.Json.Float r.fct_p95);
      ("fct_p99_s", Obs.Json.Float r.fct_p99);
      ("fct_mean_s", Obs.Json.Float r.fct_mean);
      ("data_delivered_bytes", Obs.Json.Int r.data_delivered_bytes);
      ("proxy_1", Scenario.json_proxy_stats r.proxy_1);
      ("proxy_2", Scenario.json_proxy_stats r.proxy_2);
      ("path1_pkts", Obs.Json.Int r.path1_pkts);
      ("path2_pkts", Obs.Json.Int r.path2_pkts);
      ("folded_decodes", Obs.Json.Int r.folded_decodes);
      ("srv_resyncs", Obs.Json.Int r.srv_resyncs);
      ("srv_replays_dropped", Obs.Json.Int r.srv_replays_dropped);
      ("retransmissions", Obs.Json.Int r.retransmissions);
      ("timeouts", Obs.Json.Int r.timeouts);
      ("duplicates", Obs.Json.Int r.duplicates);
      ("sim_end_ns", Obs.Json.Int r.sim_end);
    ]

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>multipath: %d/%d completed by %a@,\
     fct p50 %.3fs p95 %.3fs p99 %.3fs mean %.3fs@,\
     split %d/%d pkts, %d folded decodes, %d server resyncs (%d replays \
     dropped)@,\
     retx %d, timeouts %d, duplicates %d@,\
     path 1: %a@,path 2: %a@,delivered %d B@]"
    r.completed r.flows Time.pp r.sim_end r.fct_p50 r.fct_p95 r.fct_p99
    r.fct_mean r.path1_pkts r.path2_pkts r.folded_decodes r.srv_resyncs
    r.srv_replays_dropped r.retransmissions r.timeouts r.duplicates
    Scenario.pp_proxy_stats r.proxy_1
    Scenario.pp_proxy_stats r.proxy_2 r.data_delivered_bytes
