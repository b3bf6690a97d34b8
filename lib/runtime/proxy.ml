module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Sframes = Sidecar_protocols.Sframes
module Protocol = Sidecar_protocols.Protocol
module Counter = Obs.Metrics.Counter

type stats = {
  data_packets : int;
  degraded_packets : int;
  buffer_bypass : int;
  quacks_rx : int;
  degraded_quacks : int;
  quacks_tx : int;
  quack_bytes : int;
  freq_updates : int;
  resyncs : int;
  flushed_on_evict : int;
}

type t = {
  engine : Engine.t;
  label : string;
  trace : Obs.Trace.t;
  protocol : Protocol.t;
  table : Protocol.flow Flow_table.t;
  counters : Protocol.counters;
  forward : Packet.t -> unit;
  backward : Packet.t -> unit;
  cost_clock : (unit -> float) option;
  mutable busy : float;
  data_packets : Counter.t;
  degraded_packets : Counter.t;
  quacks_rx : Counter.t;
  degraded_quacks : Counter.t;
  freq_updates : Counter.t;
}

let create engine ~capacity ~policy ~protocol ~forward ~backward ?cost_clock ()
    =
  let counters = Protocol.fresh_counters () in
  let label = Printf.sprintf "proxy.%s" protocol.Protocol.addr in
  let metrics = Engine.metrics engine in
  let trace = Engine.trace engine in
  let record ev = Obs.Trace.record trace ~time:(Engine.now engine) ev in
  (* State forced out mid-stream gets its protocol's eviction hook —
     for CC division that flushes the pacing buffer downstream, for
     retransmission it drops the copy buffer. Either way nothing is
     stranded: end-to-end ACKs keep reliability. A voluntary [release]
     of a completed flow is different: the flow terminated cleanly, so
     its state is discarded with no eviction flush (running the hook
     there would replay a finished flow's buffer into the network).
     Both record their trace event before the hook runs. *)
  let on_evict flow fl =
    record (Obs.Trace.Evict { table = label; flow });
    fl.Protocol.on_evict ()
  in
  let on_remove flow fl =
    record (Obs.Trace.Release { table = label; flow });
    fl.Protocol.on_release ()
  in
  Protocol.register_counters metrics ~prefix:label counters;
  let table = Flow_table.create ~policy ~on_evict ~on_remove ~capacity () in
  let field f = Printf.sprintf "%s.%s" label f in
  Flow_table.register table metrics ~prefix:(field "table");
  let data_packets = Obs.Metrics.counter metrics (field "data_packets") in
  let degraded_packets = Obs.Metrics.counter metrics (field "degraded_packets") in
  let quacks_rx = Obs.Metrics.counter metrics (field "quacks_rx") in
  let degraded_quacks = Obs.Metrics.counter metrics (field "degraded_quacks") in
  let freq_updates = Obs.Metrics.counter metrics (field "freq_updates") in
  {
    engine;
    label;
    trace;
    protocol;
    table;
    counters;
    forward;
    backward;
    cost_clock;
    busy = 0.;
    data_packets;
    degraded_packets;
    quacks_rx;
    degraded_quacks;
    freq_updates;
  }

let timed t f =
  match t.cost_clock with
  | None -> f ()
  | Some clock ->
      let t0 = clock () in
      Fun.protect ~finally:(fun () -> t.busy <- t.busy +. (clock () -. t0)) f

let fresh_flow t key () =
  t.protocol.Protocol.init
    {
      Protocol.engine = t.engine;
      flow = key;
      forward = t.forward;
      backward = t.backward;
      counters = t.counters;
    }

let on_ingress t p =
  timed t (fun () ->
      match p.Packet.payload with
      | Sframes.Freq_update { dst; interval_packets }
        when String.equal dst t.protocol.Protocol.addr -> (
          (* §2.3: the far sidecar tunes how often this flow quACKs. *)
          match
            Flow_table.find t.table ~now:(Engine.now t.engine) p.Packet.flow
          with
          | Some fl ->
              fl.Protocol.on_freq interval_packets;
              Counter.incr t.freq_updates
          | None -> ())
      | Sframes.Freq_update _ | Sframes.Quack_frame _ ->
          (* sidecar frames for someone else ride along unchanged *)
          t.forward p
      | _ -> (
          let flow = p.Packet.flow in
          let now = Engine.now t.engine in
          let tracing = Obs.Trace.on t.trace Obs.Trace.Table in
          let known = tracing && Flow_table.mem t.table flow in
          match Flow_table.admit t.table ~now flow (fresh_flow t flow) with
          | None ->
              (* Denied a slot: the flow is untracked and sees the path
                 as a plain store-and-forward hop — pure end-to-end
                 behaviour. *)
              Counter.incr t.degraded_packets;
              if tracing then
                Obs.Trace.record t.trace ~time:now
                  (Obs.Trace.Deny { table = t.label; flow });
              t.forward p
          | Some fl ->
              Counter.incr t.data_packets;
              if tracing && not known then
                Obs.Trace.record t.trace ~time:now
                  (Obs.Trace.Admit { table = t.label; flow });
              fl.Protocol.on_data p))

let on_return t p =
  timed t (fun () ->
      match p.Packet.payload with
      | Sframes.Quack_frame { quack; dst; index; _ }
        when String.equal dst t.protocol.Protocol.addr -> (
          Counter.incr t.quacks_rx;
          match
            Flow_table.find t.table ~now:(Engine.now t.engine) p.Packet.flow
          with
          | Some fl -> fl.Protocol.on_feedback ~index quack
          | None -> Counter.incr t.degraded_quacks)
      | _ -> t.backward p)

let start t ~until =
  match t.protocol.Protocol.timer with
  | None -> ()
  | Some { Protocol.period; _ } ->
      let rec tick () =
        Flow_table.iter t.table (fun _ fl -> fl.Protocol.on_timer ());
        if Engine.now t.engine < until then
          Engine.schedule t.engine ~delay:period tick
      in
      Engine.schedule t.engine ~delay:period tick

let flow_info t flow =
  match Flow_table.peek t.table flow with
  | None -> None
  | Some fl -> Some (fl.Protocol.info ())

let release t flow = Flow_table.remove t.table flow
let sweep_idle t = Flow_table.sweep_idle t.table ~now:(Engine.now t.engine)

let stats t =
  let get = Counter.get in
  {
    data_packets = get t.data_packets;
    degraded_packets = get t.degraded_packets;
    buffer_bypass = get t.counters.Protocol.buffer_bypass;
    quacks_rx = get t.quacks_rx;
    degraded_quacks = get t.degraded_quacks;
    quacks_tx = get t.counters.Protocol.quacks_tx;
    quack_bytes = get t.counters.Protocol.quack_bytes;
    freq_updates = get t.freq_updates;
    resyncs = get t.counters.Protocol.resyncs;
    flushed_on_evict = get t.counters.Protocol.flushed_on_evict;
  }

let counters t = t.counters
let busy_s t = t.busy
let occupancy t = Flow_table.occupancy t.table
let peak_occupancy t = Flow_table.peak_occupancy t.table
let table_stats t = Flow_table.stats t.table
