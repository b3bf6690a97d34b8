module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Q = Sidecar_quack

type config = {
  units : int;
  mss : int;
  near : Path.segment;
  far : Path.segment;
  quack_interval : Time.span option;
  threshold : int;
  bits : int;
  proxy_buffer_pkts : int;
  seed : int;
  until : Time.t;
}

(* The canonical PEP setting: a long, clean haul from the server and a
   short, lossy access segment to the client. The division pays off
   because the far control loop runs at the 4 ms segment RTT instead
   of the 60 ms end-to-end RTT. *)
let default_config =
  {
    units = 2000;
    mss = 1460;
    near = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 28) ();
    far =
      Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
        ~loss:(Path.Bernoulli 0.01) ();
    quack_interval = None;
    threshold = 64;
    bits = 32;
    proxy_buffer_pkts = 4096;
    seed = 1;
    until = Time.s 300;
  }

type report = {
  flow : Transport.Flow.result;
  quacks_from_client : int;
  quacks_from_proxy : int;
  quack_bytes : int;
  proxy_buffer_peak : int;
  proxy_window_final : int;
  server_decode_failures : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%a@,quACKs client->proxy: %d@,quACKs proxy->server: %d@,\
     sidecar bytes: %d@,proxy buffer peak: %d pkts@,proxy window final: %d B@,\
     server decode failures: %d@]"
    Transport.Flow.pp_result r.flow r.quacks_from_client r.quacks_from_proxy
    r.quack_bytes r.proxy_buffer_peak r.proxy_window_final
    r.server_decode_failures

let json_report r =
  Obs.Json.Obj
    [
      ("flow", Transport.Flow.json_result r.flow);
      ("quacks_from_client", Obs.Json.Int r.quacks_from_client);
      ("quacks_from_proxy", Obs.Json.Int r.quacks_from_proxy);
      ("quack_bytes", Obs.Json.Int r.quack_bytes);
      ("proxy_buffer_peak", Obs.Json.Int r.proxy_buffer_peak);
      ("proxy_window_final", Obs.Json.Int r.proxy_window_final);
      ("server_decode_failures", Obs.Json.Int r.server_decode_failures);
    ]

let baseline cfg =
  Path.baseline ~seed:cfg.seed ~units:cfg.units ~mss:cfg.mss ~until:cfg.until
    [ cfg.near; cfg.far ]

(* The proxy's AIMD pacing window lives in Proxy_window; the per-flow
   observe/buffer/pace/quack logic in Proto_cc (both shared with the
   multi-flow runtime); the topology and endpoints in Chain. *)

let run cfg =
  let wire = cfg.mss + 40 in
  let quack_interval =
    match cfg.quack_interval with
    | Some i -> i
    | None -> max (Time.ms 1) (Path.rtt [ cfg.far ])
  in
  let quacks_from_client = ref 0 in
  let client_quack_bytes = ref 0 in

  (* ---- server sidecar -------------------------------------------- *)
  let server =
    Q.Quack_consumer.create
      { Q.Sender_state.default_config with bits = cfg.bits; threshold = cfg.threshold }
  in
  let on_transmit p = Q.Quack_consumer.on_send server ~id:p.Packet.id p.Packet.size in
  let server_quack ~sender ~index:_ q =
    match Q.Quack_consumer.consume server q with
    | Q.Quack_consumer.Decoded rep ->
        let acked_bytes = List.fold_left ( + ) 0 rep.Q.Sender_state.acked in
        if rep.Q.Sender_state.lost <> [] then
          Transport.Sender.external_congestion sender;
        if acked_bytes > 0 then
          Transport.Sender.external_ack sender ~acked_bytes ~rtt:None
    | Q.Quack_consumer.Resynced _ ->
        (* conservative: treat as congestion; e2e ACKs keep reliability *)
        Transport.Sender.external_congestion sender
    | Q.Quack_consumer.(Stale | Restarted _ | Replay | Mismatch) -> ()
  in

  (* ---- proxy ------------------------------------------------------ *)
  let counters = Protocol.fresh_counters () in
  let proxy_flow = ref None in
  let proto =
    Proto_cc.make
      {
        Proto_cc.bits = cfg.bits;
        threshold = cfg.threshold;
        count_bits = None;
        wire;
        buffer_pkts = cfg.proxy_buffer_pkts;
        upstream =
          Proto_cc.Timer
            {
              interval = quack_interval;
              high_watermark = cfg.proxy_buffer_pkts / 2;
            };
        overflow = Proto_cc.Drop;
        field = None;
      }
  in

  (* ---- client sidecar --------------------------------------------- *)
  let client (cp : Chain.client_ports) =
    let client_rx =
      Q.Receiver_state.create ~bits:cfg.bits ~threshold:cfg.threshold ()
    in
    let client_quack_index = ref 0 in
    let rec client_quack_timer () =
      let q = Q.Receiver_state.emit client_rx in
      incr client_quack_index;
      incr quacks_from_client;
      let pkt =
        Sframes.quack_packet ~src:"client" ~quack:q ~dst:"proxy"
          ~index:!client_quack_index ~count_omitted:false ~flow:0
          ~now:(Engine.now cp.Chain.engine) ()
      in
      client_quack_bytes := !client_quack_bytes + pkt.Packet.size;
      cp.Chain.inject pkt;
      if Engine.now cp.Chain.engine < cfg.until && not (cp.Chain.complete ())
      then
        Engine.schedule cp.Chain.engine ~delay:quack_interval
          client_quack_timer
    in
    {
      Chain.on_data =
        Some
          (fun p ->
            ignore (Q.Receiver_state.on_receive client_rx p.Packet.id));
      on_ack = None;
      start =
        (fun () ->
          Engine.schedule cp.Chain.engine ~delay:quack_interval
            client_quack_timer);
    }
  in

  let outcome =
    Chain.run ~seed:cfg.seed ~units:cfg.units ~mss:cfg.mss ~external_cc:true
      ~cc:(Transport.Newreno.create ~mss:wire ())
      ~on_transmit ~server_quack ~client
      ~nodes:
        [
          Node.of_protocol ~counters
            ~expose:(fun fl -> proxy_flow := Some fl)
            proto;
        ]
      ~until:cfg.until
      [ cfg.near; cfg.far ]
  in
  let proxy_info =
    match !proxy_flow with
    | Some fl -> fl.Protocol.info ()
    | None -> Protocol.no_info
  in
  {
    flow = outcome.Chain.flow;
    quacks_from_client = !quacks_from_client;
    quacks_from_proxy = Obs.Metrics.Counter.get counters.Protocol.quacks_tx;
    quack_bytes =
      !client_quack_bytes
      + Obs.Metrics.Counter.get counters.Protocol.quack_bytes;
    proxy_buffer_peak = proxy_info.Protocol.buffer_peak;
    proxy_window_final = proxy_info.Protocol.window_bytes;
    server_decode_failures =
      Q.Quack_consumer.resyncs server + Q.Quack_consumer.mismatches server;
  }
