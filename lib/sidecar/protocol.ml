module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Counter = Obs.Metrics.Counter

let server_addr = "server"

type counters = {
  quacks_tx : Counter.t;
  quack_bytes : Counter.t;
  resyncs : Counter.t;
  replays_dropped : Counter.t;
  buffer_bypass : Counter.t;
  flushed_on_evict : Counter.t;
  freq_sent : Counter.t;
  retransmissions : Counter.t;
}

let fresh_counters () =
  {
    quacks_tx = Counter.create ();
    quack_bytes = Counter.create ();
    resyncs = Counter.create ();
    replays_dropped = Counter.create ();
    buffer_bypass = Counter.create ();
    flushed_on_evict = Counter.create ();
    freq_sent = Counter.create ();
    retransmissions = Counter.create ();
  }

let register_counters metrics ~prefix c =
  let field f = Printf.sprintf "%s.%s" prefix f in
  Obs.Metrics.attach_counter metrics (field "quacks_tx") c.quacks_tx;
  Obs.Metrics.attach_counter metrics (field "quack_bytes") c.quack_bytes;
  Obs.Metrics.attach_counter metrics (field "resyncs") c.resyncs;
  Obs.Metrics.attach_counter metrics (field "replays_dropped") c.replays_dropped;
  Obs.Metrics.attach_counter metrics (field "buffer_bypass") c.buffer_bypass;
  Obs.Metrics.attach_counter metrics (field "flushed_on_evict") c.flushed_on_evict;
  Obs.Metrics.attach_counter metrics (field "freq_sent") c.freq_sent;
  Obs.Metrics.attach_counter metrics (field "retransmissions") c.retransmissions

type ctx = {
  engine : Engine.t;
  flow : int;
  forward : Packet.t -> unit;
  backward : Packet.t -> unit;
  counters : counters;
}

type info = {
  buffered : int;
  outstanding : int;
  window_bytes : int;
  upstream_interval : int;
  buffer_peak : int;
}

let no_info =
  {
    buffered = 0;
    outstanding = 0;
    window_bytes = 0;
    upstream_interval = 0;
    buffer_peak = 0;
  }

type flow = {
  on_data : Packet.t -> unit;
  on_feedback : index:int -> Sidecar_quack.Quack.t -> unit;
  on_freq : int -> unit;
  on_timer : unit -> unit;
  on_evict : unit -> unit;
  on_release : unit -> unit;
  info : unit -> info;
}

type timer_scope = Flow_active | Until
type timer = { period : Time.span; scope : timer_scope }

type t = { name : string; addr : string; timer : timer option; init : ctx -> flow }

module type S = sig
  type config

  val make : config -> t
end

let trace ctx ev =
  Obs.Trace.record (Engine.trace ctx.engine) ~time:(Engine.now ctx.engine) ev

let send_quack ?src ctx ~dst ~index ~count_omitted quack =
  let pkt =
    Sframes.quack_packet ?src ~quack ~dst ~index ~count_omitted ~flow:ctx.flow
      ~now:(Engine.now ctx.engine) ()
  in
  Counter.incr ctx.counters.quacks_tx;
  Counter.add ctx.counters.quack_bytes pkt.Packet.size;
  let tr = Engine.trace ctx.engine in
  if Obs.Trace.on tr Obs.Trace.Quack then
    Obs.Trace.record tr ~time:(Engine.now ctx.engine)
      (Obs.Trace.Quack_sent
         { dst; flow = ctx.flow; index; bytes = pkt.Packet.size });
  ctx.backward pkt
