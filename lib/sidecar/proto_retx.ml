module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Q = Sidecar_quack

type config = {
  bits : int;
  threshold : int;
  strikes_to_lose : int;
  buffer_pkts : int;
  initial_quack_every : int;
  adaptive : bool;
  target_missing : int;
  subpath_rtt : Time.span;
  near_addr : string;
  far_addr : string;
  field : (module Sidecar_field.Modular.S) option;
}

let validate cfg =
  if cfg.buffer_pkts <= 0 then
    invalid_arg "Proto_retx: buffer must be positive";
  if cfg.initial_quack_every <= 0 then
    invalid_arg "Proto_retx: quack interval must be positive";
  if String.equal cfg.near_addr cfg.far_addr then
    invalid_arg "Proto_retx: near and far proxies need distinct addresses"

let near cfg =
  validate cfg;
  let init (ctx : Protocol.ctx) =
    let consumer =
      Q.Quack_consumer.create ~replay_guard:true
        {
          Q.Sender_state.default_config with
          bits = cfg.bits;
          threshold = cfg.threshold;
          strikes_to_lose = cfg.strikes_to_lose;
          field = cfg.field;
        }
    in
    (* Copy buffer keyed by uid; bounded FIFO. meta: the buffered
       packet itself, so missing packets can be resent byte-identical.
       It is never iterated, so its bucket count is free: start small
       and let it grow with use. *)
    let buffer : (int, Packet.t) Hashtbl.t = Hashtbl.create 16 in
    let buffer_fifo : int Queue.t = Queue.create () in
    let buffer_peak = ref 0 in
    let quack_every = ref cfg.initial_quack_every in
    let since_freq_update = ref 0 in
    (* Suppress duplicate refills of the same packet while a previous
       local retransmission is still crossing the subpath. *)
    let resend_holdoff = cfg.subpath_rtt + Time.ms 1 in
    let last_resend : (int, Time.t) Hashtbl.t = Hashtbl.create 64 in
    let forward (p : Packet.t) =
      Q.Quack_consumer.on_send consumer ~id:p.Packet.id p;
      if Hashtbl.length buffer >= cfg.buffer_pkts then begin
        match Queue.take_opt buffer_fifo with
        | Some old -> Hashtbl.remove buffer old
        | None -> ()
      end;
      Hashtbl.replace buffer p.Packet.uid p;
      Queue.push p.Packet.uid buffer_fifo;
      if Hashtbl.length buffer > !buffer_peak then
        buffer_peak := Hashtbl.length buffer;
      ctx.forward p
    in
    let resynced ~index =
      Obs.Metrics.Counter.incr ctx.counters.resyncs;
      Protocol.trace ctx
        (Obs.Trace.Resync { node = cfg.near_addr; flow = ctx.flow; to_index = index })
    in
    let on_feedback ~index q =
      match Q.Quack_consumer.consume consumer ~index q with
      | Q.Quack_consumer.Decoded rep ->
          (* confirmed-past-the-far-proxy packets no longer need copies *)
          List.iter
            (fun (p : Packet.t) -> Hashtbl.remove buffer p.Packet.uid)
            rep.Q.Sender_state.acked;
          let resend (p : Packet.t) =
            let now = Engine.now ctx.engine in
            let held =
              match Hashtbl.find_opt last_resend p.Packet.uid with
              | Some t0 -> Time.diff now t0 < resend_holdoff
              | None -> false
            in
            if (not held) && Hashtbl.mem buffer p.Packet.uid then begin
              Hashtbl.replace last_resend p.Packet.uid now;
              Obs.Metrics.Counter.incr ctx.counters.retransmissions;
              let tr = Engine.trace ctx.engine in
              if Obs.Trace.on tr Obs.Trace.Proto then
                Obs.Trace.record tr ~time:now
                  (Obs.Trace.Retransmit
                     { node = cfg.near_addr; flow = ctx.flow; seq = p.Packet.seq });
              forward p
            end
          in
          List.iter resend rep.Q.Sender_state.lost;
          (* adaptive frequency (§4.3): target a constant number of
             missing packets per quACK *)
          if cfg.adaptive then begin
            let n_acked = List.length rep.Q.Sender_state.acked
            and n_lost = List.length rep.Q.Sender_state.lost in
            let total = n_acked + n_lost in
            incr since_freq_update;
            if total > 0 && !since_freq_update >= 4 then begin
              since_freq_update := 0;
              let observed_loss = float_of_int n_lost /. float_of_int total in
              let next =
                Q.Frequency.adapt_interval ~current:!quack_every
                  ~observed_loss ~target_missing:cfg.target_missing
              in
              (* The quACK must arrive (and the refill land) before the
                 end hosts' own loss detection notices the gap, so the
                 interval is clamped to stay well inside one end-to-end
                 reordering window regardless of what the loss ratio
                 alone would suggest. *)
              let next = max 8 (min next 64) in
              if next <> !quack_every then begin
                quack_every := next;
                Obs.Metrics.Counter.incr ctx.counters.freq_sent;
                Protocol.trace ctx
                  (Obs.Trace.Freq_update
                     { dst = cfg.far_addr; flow = ctx.flow; interval = next });
                ctx.forward
                  (Sframes.freq_packet ~dst:cfg.far_addr ~interval_packets:next
                     ~flow:ctx.flow ~now:(Engine.now ctx.engine))
              end
            end
          end
      | Q.Quack_consumer.Resynced _ ->
          (* abandon and resync; the packets' fate falls back to e2e *)
          resynced ~index
      | Q.Quack_consumer.Restarted abandoned ->
          (* quACK indices only regress with novel contents when the
             far proxy's receiver state restarted (eviction +
             re-admission downstream): its fresh power sums are the new
             baseline (§3.3), and the copies of whatever was abandoned
             in flight are dropped — those losses fall back to
             end-to-end recovery. *)
          resynced ~index;
          List.iter
            (fun (p : Packet.t) -> Hashtbl.remove buffer p.Packet.uid)
            abandoned
      | Q.Quack_consumer.Replay ->
          (* byte-identical re-delivery of an emission already
             consumed: resyncing onto its stale sums would hand one
             captured packet the power to roll the baseline back *)
          Obs.Metrics.Counter.incr ctx.counters.replays_dropped
      | Q.Quack_consumer.(Stale | Mismatch) -> ()
    in
    let on_evict () =
      (* Copies are an optimisation, not custody: dropping them only
         means those losses fall back to end-to-end recovery. *)
      Hashtbl.reset buffer;
      Queue.clear buffer_fifo;
      Hashtbl.reset last_resend
    in
    let info () =
      {
        Protocol.buffered = Hashtbl.length buffer;
        outstanding = Q.Sender_state.outstanding (Q.Quack_consumer.state consumer);
        window_bytes = 0;
        upstream_interval = !quack_every;
        buffer_peak = !buffer_peak;
      }
    in
    {
      Protocol.on_data = forward;
      on_feedback;
      on_freq = (fun _ -> ());
      on_timer = (fun () -> ());
      on_evict;
      (* the copy buffer is plain heap, dropped with the flow record *)
      on_release = (fun () -> ());
      info;
    }
  in
  { Protocol.name = "retx-near"; addr = cfg.near_addr; timer = None; init }

let far cfg =
  validate cfg;
  let init (ctx : Protocol.ctx) =
    let rx =
      Q.Receiver_state.create ~bits:cfg.bits ?field:cfg.field
        ~threshold:cfg.threshold ()
    in
    let since = ref 0 in
    let interval = ref cfg.initial_quack_every in
    let index = ref 0 in
    let emit () =
      since := 0;
      let q = Q.Receiver_state.emit rx in
      incr index;
      Protocol.send_quack ctx ~dst:cfg.near_addr ~index:!index
        ~count_omitted:false q
    in
    let on_data p =
      ignore (Q.Receiver_state.on_receive rx p.Packet.id);
      incr since;
      if !since >= !interval then emit ();
      ctx.forward p
    in
    let info () =
      { Protocol.no_info with Protocol.upstream_interval = !interval }
    in
    {
      Protocol.on_data;
      on_feedback = (fun ~index:_ _ -> ());
      on_freq = (fun i -> interval := i);
      on_timer = (fun () -> if !since > 0 then emit ());
      on_evict = (fun () -> ());
      on_release = (fun () -> ());
      info;
    }
  in
  (* Time backstop: at low data rates a packet-count interval is slow
     in wall-clock terms, so also quACK once per ~subpath RTT while
     packets are pending. *)
  {
    Protocol.name = "retx-far";
    addr = cfg.far_addr;
    timer =
      Some
        {
          Protocol.period = max (Time.ms 1) cfg.subpath_rtt;
          scope = Protocol.Until;
        };
    init;
  }
