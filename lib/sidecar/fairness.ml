module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Q = Sidecar_quack

type config = {
  units_per_flow : int;
  mss : int;
  near : Path.segment;
  far : Path.segment;
  quack_interval : Time.span option;
  threshold : int;
  seed : int;
  until : Time.t;
}

let default_config =
  {
    units_per_flow = 1500;
    mss = 1460;
    near = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 28) ();
    far =
      Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
        ~loss:(Path.Bernoulli 0.005) ();
    quack_interval = None;
    threshold = 64;
    seed = 1;
    until = Time.s 300;
  }

type flow_result = {
  fct : Time.span option;
  goodput_mbps : float;
  retransmissions : int;
  congestion_events : int;
}

type report = {
  flows : flow_result array;
  jain_index : float;
  total_goodput_mbps : float;
}

let jain xs =
  let n = float_of_int (Array.length xs) in
  let sum = Array.fold_left ( +. ) 0. xs in
  let sumsq = Array.fold_left (fun a x -> a +. (x *. x)) 0. xs in
  if sumsq = 0. then 1. else sum *. sum /. (n *. sumsq)

let pp_report ppf r =
  Array.iteri
    (fun i f ->
      Format.fprintf ppf "flow %d: fct %s, %.2f Mbit/s, retx %d, cc-events %d@." i
        (match f.fct with
        | Some t -> Format.asprintf "%a" Time.pp t
        | None -> "-")
        f.goodput_mbps f.retransmissions f.congestion_events)
    r.flows;
  Format.fprintf ppf "Jain fairness index: %.3f; aggregate %.2f Mbit/s"
    r.jain_index r.total_goodput_mbps

let flow_result ~mss ~units (sender : Transport.Sender.t)
    (receiver : Transport.Receiver.t) =
  let fct = Transport.Receiver.complete_at receiver in
  let stats = Transport.Sender.stats sender in
  let goodput =
    match fct with
    | Some f when f > 0 -> float_of_int (units * mss * 8) /. Time.to_float_s f /. 1e6
    | _ -> 0.
  in
  {
    fct;
    goodput_mbps = goodput;
    retransmissions = stats.Transport.Sender.retransmissions;
    congestion_events = stats.Transport.Sender.congestion_events;
  }

let summarize ~mss ~units pairs =
  let flows = Array.map (fun (s, r) -> flow_result ~mss ~units s r) pairs in
  let rates = Array.map (fun f -> f.goodput_mbps) flows in
  {
    flows;
    jain_index = jain rates;
    total_goodput_mbps = Array.fold_left ( +. ) 0. rates;
  }

(* Shared-topology construction: two near segments, one far segment.
   [attach] wires per-flow behaviour at the proxy junction. *)
let build_links cfg =
  let engine = Engine.create ~seed:cfg.seed () in
  let mk_link name seg ~loss =
    Link.create engine ~name ~rate_bps:seg.Path.rate_bps ~delay:seg.Path.delay
      ~loss:(Path.to_loss loss) ()
  in
  let s2p = Array.init 2 (fun i ->
      mk_link (Printf.sprintf "s2p%d" i) cfg.near ~loss:cfg.near.Path.loss)
  in
  let p2s = Array.init 2 (fun i ->
      mk_link (Printf.sprintf "p2s%d" i) cfg.near ~loss:cfg.near.Path.rev_loss)
  in
  let p2c = mk_link "p2c" cfg.far ~loss:cfg.far.Path.loss in
  let c2p = mk_link "c2p" cfg.far ~loss:cfg.far.Path.rev_loss in
  (engine, s2p, p2s, p2c, c2p)

let baseline cfg =
  let engine, s2p, p2s, p2c, c2p = build_links cfg in
  (* Construction has no engine side effects, so senders and receivers
     can be built up front; options and Option.get are unnecessary. *)
  let senders =
    Array.init 2 (fun i ->
        Transport.Sender.create engine ~mss:cfg.mss ~flow:i
          ~total_units:cfg.units_per_flow
          ~egress:(fun p -> ignore (Link.send s2p.(i) p))
          ())
  in
  let receivers =
    Array.init 2 (fun i ->
        Transport.Receiver.create engine ~flow:i ~total_units:cfg.units_per_flow
          ~send_ack:(fun p -> ignore (Link.send c2p p))
          ())
  in
  for i = 0 to 1 do
    Link.set_deliver s2p.(i) (fun p -> ignore (Link.send p2c p));
    Link.set_deliver p2s.(i) (Transport.Sender.deliver_ack senders.(i))
  done;
  Link.set_deliver p2c (fun p ->
      Transport.Receiver.deliver receivers.(p.Packet.flow) p);
  Link.set_deliver c2p (fun p -> ignore (Link.send p2s.(p.Packet.flow) p));
  Array.iter Transport.Sender.start senders;
  Engine.run ~until:cfg.until engine;
  summarize ~mss:cfg.mss ~units:cfg.units_per_flow
    (Array.init 2 (fun i -> (senders.(i), receivers.(i))))

(* Per-flow CC-division state at the proxy: one {!Proto_cc} flow
   instance each (AIMD window + observe/buffer/pace), competing for the
   shared far link. The protocol instances are driven directly — the
   same code the single-flow {!Cc_division} harness and the multi-flow
   runtime run behind a {!Node}. *)
let run cfg =
  let engine, s2p, p2s, p2c, c2p = build_links cfg in
  let wire = cfg.mss + 40 in
  let quack_interval =
    match cfg.quack_interval with
    | Some i -> i
    | None -> max (Time.ms 1) (Path.rtt [ cfg.far ])
  in
  let client_rx = Array.init 2 (fun _ ->
      Q.Receiver_state.create ~threshold:cfg.threshold ())
  in
  let proto =
    Proto_cc.make
      {
        Proto_cc.bits = Q.Sender_state.default_config.Q.Sender_state.bits;
        threshold = cfg.threshold;
        count_bits = None;
        wire;
        (* unbounded: this experiment studies window fairness, not
           buffer contention *)
        buffer_pkts = max_int;
        upstream =
          Proto_cc.Timer { interval = quack_interval; high_watermark = max_int };
        overflow = Proto_cc.Drop;
        field = None;
      }
  in
  let counters = Protocol.fresh_counters () in
  let flows =
    Array.init 2 (fun i ->
        proto.Protocol.init
          {
            Protocol.engine;
            flow = i;
            forward = (fun p -> ignore (Link.send p2c p));
            backward = (fun p -> ignore (Link.send p2s.(i) p));
            counters;
          })
  in
  let quack_idx = Array.make 2 0 in
  let server = Array.init 2 (fun _ ->
      Q.Quack_consumer.create
        { Q.Sender_state.default_config with threshold = cfg.threshold })
  in
  let senders =
    Array.init 2 (fun i ->
        Transport.Sender.create engine ~mss:cfg.mss ~flow:i ~external_cc:true
          ~cc:(Transport.Newreno.create ~mss:wire ())
          ~on_transmit:(fun p ->
            Q.Quack_consumer.on_send server.(i) ~id:p.Packet.id p.Packet.size)
          ~total_units:cfg.units_per_flow
          ~egress:(fun p -> ignore (Link.send s2p.(i) p))
          ())
  in
  let receivers =
    Array.init 2 (fun i ->
        Transport.Receiver.create engine ~flow:i ~total_units:cfg.units_per_flow
          ~on_data:(fun p -> ignore (Q.Receiver_state.on_receive client_rx.(i) p.Packet.id))
          ~send_ack:(fun p -> ignore (Link.send c2p p))
          ())
  in
  for i = 0 to 1 do
    Link.set_deliver s2p.(i) (fun p -> flows.(i).Protocol.on_data p);
    Link.set_deliver p2s.(i) (fun p ->
        match p.Packet.payload with
        | Sframes.Quack_frame { quack; dst = "server"; _ } -> (
            match Q.Quack_consumer.consume server.(i) quack with
            | Q.Quack_consumer.Decoded rep ->
                let bytes = List.fold_left ( + ) 0 rep.Q.Sender_state.acked in
                if rep.Q.Sender_state.lost <> [] then
                  Transport.Sender.external_congestion senders.(i);
                if bytes > 0 then
                  Transport.Sender.external_ack senders.(i) ~acked_bytes:bytes
                    ~rtt:None
            | Q.Quack_consumer.Resynced _ ->
                Transport.Sender.external_congestion senders.(i)
            | Q.Quack_consumer.(Stale | Restarted _ | Replay | Mismatch) -> ())
        | _ -> Transport.Sender.deliver_ack senders.(i) p)
  done;
  Link.set_deliver p2c (fun p ->
      Transport.Receiver.deliver receivers.(p.Packet.flow) p);
  Link.set_deliver c2p (fun p ->
      match p.Packet.payload with
      | Sframes.Quack_frame { quack; dst = "proxy"; index; _ } ->
          flows.(p.Packet.flow).Protocol.on_feedback ~index quack
      | _ -> ignore (Link.send p2s.(p.Packet.flow) p));
  let all_done () =
    Array.for_all
      (fun r -> Transport.Receiver.complete_at r <> None)
      receivers
  in
  let rec timers i () =
    (* client quACK for flow i; proxy quACK for flow i rides the same
       tick (the quACK frame carries the flow id as its 5-tuple) *)
    let cq = Q.Receiver_state.emit client_rx.(i) in
    quack_idx.(i) <- quack_idx.(i) + 1;
    ignore
      (Link.send c2p
         (Sframes.quack_packet ~src:"client" ~quack:cq ~dst:"proxy"
            ~index:quack_idx.(i) ~count_omitted:false ~flow:i
            ~now:(Engine.now engine) ()));
    flows.(i).Protocol.on_timer ();
    if Engine.now engine < cfg.until && not (all_done ()) then
      Engine.schedule engine ~delay:quack_interval (timers i)
  in
  for i = 0 to 1 do
    Engine.schedule engine ~delay:quack_interval (timers i)
  done;
  Array.iter Transport.Sender.start senders;
  Engine.run ~until:cfg.until engine;
  summarize ~mss:cfg.mss ~units:cfg.units_per_flow
    (Array.init 2 (fun i -> (senders.(i), receivers.(i))))
