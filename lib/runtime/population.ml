module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Rng = Netsim.Rng
module Stats = Netsim.Stats
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path

type sizes = Sampled of Workload.size_dist | Bimodal
type sidecar = No_sidecar | Unguarded | Guarded

type t = {
  engine : Engine.t;
  units : int array;
  start_at : Time.t array;
  consumers : int Q.Quack_consumer.t array;
  senders : Transport.Sender.t array;
  receivers : Transport.Receiver.t array;
  mutable delivered_bytes : int;
}

let create ~name (path : Path.built) ~flows:n ~sizes ~min_units ~max_units
    ~arrival ~mss ~id_key_base ?pkt_threshold ~sketch ~sidecar ~client
    ~ack_link () =
  if n < 1 then invalid_arg (name ^ ".run: need at least one flow");
  if min_units < 1 || max_units < min_units then
    invalid_arg (name ^ ".run: bad unit bounds");
  let engine = path.Path.engine in
  let wl_rng = Rng.split (Engine.rng engine) in
  let units =
    Array.init n (fun _ ->
        match sizes with
        | Sampled dist ->
            max min_units (min max_units (Workload.sample_size wl_rng dist))
        | Bimodal -> if Rng.bool wl_rng ~p:0.5 then max_units else min_units)
  in
  let start_at =
    Array.map Time.of_float_s (Workload.arrival_times wl_rng arrival ~n)
  in
  let consumers =
    Array.init n (fun _ ->
        Q.Quack_consumer.create ~replay_guard:(sidecar = Guarded) sketch)
  in
  let senders =
    Array.init n (fun i ->
        Transport.Sender.create engine ~mss ~flow:i
          ~id_key:(Q.Identifier.key_of_int (id_key_base + i))
          ?pkt_threshold
          ?on_transmit:
            (match sidecar with
            | No_sidecar -> None
            | Unguarded | Guarded ->
                Some
                  (fun p ->
                    Q.Quack_consumer.on_send consumers.(i) ~id:p.Packet.id
                      p.Packet.seq))
          ~total_units:units.(i)
          ~egress:(fun p -> ignore (Link.send path.Path.fwd.(0) p))
          ())
  in
  (* the client hook is handed its own receiver: tie the knot *)
  let receivers = ref [||] in
  receivers :=
    Array.init n (fun i ->
        Transport.Receiver.create engine ~flow:i ~total_units:units.(i)
          ?on_data:(Option.map (fun hook p -> hook !receivers.(i) p) client)
          ~send_ack:(fun p -> ignore (Link.send (ack_link i) p))
          ());
  {
    engine;
    units;
    start_at;
    consumers;
    senders;
    receivers = !receivers;
    delivered_bytes = 0;
  }

let units t i = t.units.(i)
let start_at t i = t.start_at.(i)
let consumer t i = t.consumers.(i)
let flow_done t i = Transport.Receiver.complete_at t.receivers.(i) <> None

let all_done t =
  Array.for_all (fun r -> Transport.Receiver.complete_at r <> None) t.receivers

let in_range t i = i >= 0 && i < Array.length t.senders

let consume t i ?index q =
  let outcome = Q.Quack_consumer.consume t.consumers.(i) ?index q in
  (match outcome with
  | Q.Quack_consumer.Decoded { Q.Sender_state.acked = _ :: _ as seqs; _ } ->
      ignore (Transport.Sender.sidecar_ack t.senders.(i) ~seqs)
  | _ -> ());
  outcome

let attach_clients t links =
  List.iter
    (fun link ->
      Link.set_tap link (fun p ->
          t.delivered_bytes <- t.delivered_bytes + p.Packet.size);
      Link.set_deliver link (fun p ->
          if in_range t p.Packet.flow then
            Transport.Receiver.deliver t.receivers.(p.Packet.flow) p))
    links

let server_demux t feedback p =
  let i = p.Packet.flow in
  if in_range t i && not (feedback i p.Packet.payload) then
    Transport.Sender.deliver_ack t.senders.(i) p

let start t ~period ~on_start ~on_tick ~proxies ~until =
  let rec poll i () =
    if flow_done t i then List.iter (fun px -> ignore (Proxy.release px i)) proxies
    else if Engine.now t.engine < until then begin
      on_tick i;
      Engine.schedule t.engine ~delay:period (poll i)
    end
  in
  Array.iteri
    (fun i at ->
      Engine.schedule_at t.engine at (fun () ->
          Transport.Sender.start t.senders.(i);
          on_start i;
          Engine.schedule t.engine ~delay:period (poll i)))
    t.start_at

type flow_report = {
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

type summary = {
  per_flow : flow_report array;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  retransmissions : int;
  timeouts : int;
  duplicates : int;
  data_delivered_bytes : int;
  srv_resyncs : int;
  srv_replays : int;
}

let summary t =
  let per_flow =
    Array.mapi
      (fun i sender ->
        let completed_at = Transport.Receiver.complete_at t.receivers.(i) in
        let stats = Transport.Sender.stats sender in
        {
          flow = i;
          units = t.units.(i);
          started_at = t.start_at.(i);
          completed = completed_at <> None;
          fct_s =
            (match completed_at with
            | Some at -> Time.to_float_s (Time.diff at t.start_at.(i))
            | None -> Float.nan);
          transmissions = stats.Transport.Sender.transmissions;
          retransmissions = stats.Transport.Sender.retransmissions;
          timeouts = stats.Transport.Sender.timeouts;
          duplicates = Transport.Receiver.duplicates t.receivers.(i);
        })
      t.senders
  in
  let qs = Stats.Quantiles.create () in
  let mean = Stats.Summary.create () in
  Array.iter
    (fun (f : flow_report) ->
      if f.completed then begin
        Stats.Quantiles.add qs f.fct_s;
        Stats.Summary.add mean f.fct_s
      end)
    per_flow;
  let completed = Stats.Summary.count mean in
  let fct stat = if completed = 0 then Float.nan else stat in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 in
  {
    per_flow;
    completed;
    fct_p50 = fct (Stats.Quantiles.p50 qs);
    fct_p95 = fct (Stats.Quantiles.p95 qs);
    fct_p99 = fct (Stats.Quantiles.p99 qs);
    fct_mean = fct (Stats.Summary.mean mean);
    retransmissions = sum (fun (f : flow_report) -> f.retransmissions) per_flow;
    timeouts = sum (fun (f : flow_report) -> f.timeouts) per_flow;
    duplicates = sum (fun (f : flow_report) -> f.duplicates) per_flow;
    data_delivered_bytes = t.delivered_bytes;
    srv_resyncs = sum Q.Quack_consumer.resyncs t.consumers;
    srv_replays = sum Q.Quack_consumer.replays t.consumers;
  }
