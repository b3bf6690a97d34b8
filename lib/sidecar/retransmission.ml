module Link = Netsim.Link
module Time = Netsim.Sim_time

type config = {
  units : int;
  mss : int;
  ingress : Path.segment;
  middle : Path.segment;
  egress : Path.segment;
  initial_quack_every : int;
  adaptive : bool;
  target_missing : int;
  threshold : int;
  bits : int;
  buffer_pkts : int;
  strikes_to_lose : int;
  reorder_tolerant_endpoints : bool;
  seed : int;
  until : Time.t;
}

let default_config =
  {
    units = 2000;
    mss = 1460;
    ingress = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 20) ();
    middle =
      Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 1)
        ~loss:
          (Path.Gilbert
             { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_bad = 0.3 })
        ();
    egress = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 9) ();
    initial_quack_every = 8;
    adaptive = true;
    target_missing = 20;
    threshold = 64;
    bits = 32;
    buffer_pkts = 8192;
    strikes_to_lose = 1;
    reorder_tolerant_endpoints = true;
    seed = 1;
    until = Time.s 300;
  }

type report = {
  flow : Transport.Flow.result;
  proxy_retransmissions : int;
  quacks : int;
  quack_bytes : int;
  freq_updates : int;
  final_quack_every : int;
  buffer_peak : int;
  subpath_loss_observed : float;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%a@,proxy retransmissions: %d@,quACKs: %d (%d B)@,\
     frequency updates: %d (final: every %d pkts)@,buffer peak: %d@,\
     subpath loss observed: %.2f%%@]"
    Transport.Flow.pp_result r.flow r.proxy_retransmissions r.quacks
    r.quack_bytes r.freq_updates r.final_quack_every r.buffer_peak
    (100. *. r.subpath_loss_observed)

let json_report r =
  Obs.Json.Obj
    [
      ("flow", Transport.Flow.json_result r.flow);
      ("proxy_retransmissions", Obs.Json.Int r.proxy_retransmissions);
      ("quacks", Obs.Json.Int r.quacks);
      ("quack_bytes", Obs.Json.Int r.quack_bytes);
      ("freq_updates", Obs.Json.Int r.freq_updates);
      ("final_quack_every", Obs.Json.Int r.final_quack_every);
      ("buffer_peak", Obs.Json.Int r.buffer_peak);
      ("subpath_loss_observed", Obs.Json.Float r.subpath_loss_observed);
    ]

let segments cfg = [ cfg.ingress; cfg.middle; cfg.egress ]

(* Both the baseline and the sidecar run use the same endpoint
   configuration; reorder tolerance (a large packet threshold, leaving
   RFC 9002's time threshold in charge) is an endpoint property, not
   part of the sidecar. *)
let pkt_threshold cfg = if cfg.reorder_tolerant_endpoints then 1024 else 3

let baseline cfg =
  (Chain.run ~seed:cfg.seed ~units:cfg.units ~mss:cfg.mss
     ~pkt_threshold:(pkt_threshold cfg)
     ~nodes:[ Node.pass_through; Node.pass_through ]
     ~until:cfg.until (segments cfg))
    .Chain.flow

let run cfg =
  let counters = Protocol.fresh_counters () in
  let near_flow = ref None in
  let pcfg =
    {
      Proto_retx.bits = cfg.bits;
      threshold = cfg.threshold;
      strikes_to_lose = cfg.strikes_to_lose;
      buffer_pkts = cfg.buffer_pkts;
      initial_quack_every = cfg.initial_quack_every;
      adaptive = cfg.adaptive;
      target_missing = cfg.target_missing;
      subpath_rtt = 2 * cfg.middle.Path.delay;
      near_addr = "proxyA";
      far_addr = "proxyB";
      field = None;
    }
  in
  let outcome =
    Chain.run ~seed:cfg.seed ~units:cfg.units ~mss:cfg.mss
      ~pkt_threshold:(pkt_threshold cfg)
      ~nodes:
        [
          Node.of_protocol ~counters
            ~expose:(fun fl -> near_flow := Some fl)
            (Proto_retx.near pcfg);
          Node.of_protocol ~counters (Proto_retx.far pcfg);
        ]
      ~until:cfg.until (segments cfg)
  in
  let near_info =
    match !near_flow with
    | Some fl -> fl.Protocol.info ()
    | None -> Protocol.no_info
  in
  {
    flow = outcome.Chain.flow;
    proxy_retransmissions =
      Obs.Metrics.Counter.get counters.Protocol.retransmissions;
    quacks = Obs.Metrics.Counter.get counters.Protocol.quacks_tx;
    quack_bytes = Obs.Metrics.Counter.get counters.Protocol.quack_bytes;
    freq_updates = Obs.Metrics.Counter.get counters.Protocol.freq_sent;
    final_quack_every = near_info.Protocol.upstream_interval;
    buffer_peak = near_info.Protocol.buffer_peak;
    subpath_loss_observed = Link.loss_rate_observed outcome.Chain.built.Path.fwd.(1);
  }
