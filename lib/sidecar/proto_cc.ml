module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Q = Sidecar_quack

type upstream =
  | Timer of { interval : Time.span; high_watermark : int }
  | Every of int

type overflow = Drop | Bypass

type config = {
  bits : int;
  threshold : int;
  count_bits : int option;
  wire : int;
  buffer_pkts : int;
  upstream : upstream;
  overflow : overflow;
  field : (module Sidecar_field.Modular.S) option;
}

let make cfg =
  if cfg.wire <= 0 then invalid_arg "Proto_cc.make: wire size must be positive";
  if cfg.buffer_pkts <= 0 then
    invalid_arg "Proto_cc.make: buffer must be positive";
  (match cfg.upstream with
  | Every n when n <= 0 ->
      invalid_arg "Proto_cc.make: quack interval must be positive"
  | Every _ | Timer _ -> ());
  let ss_config =
    let base =
      {
        Q.Sender_state.default_config with
        bits = cfg.bits;
        threshold = cfg.threshold;
        field = cfg.field;
      }
    in
    match cfg.count_bits with
    | None -> base
    | Some count_bits -> { base with Q.Sender_state.count_bits }
  in
  let init (ctx : Protocol.ctx) =
    let up_rx =
      Q.Receiver_state.create ~bits:cfg.bits ?field:cfg.field
        ?count_bits:cfg.count_bits ~threshold:cfg.threshold ()
    in
    let down = Q.Quack_consumer.create ss_config in
    let down_ss = Q.Quack_consumer.state down in
    let win = Proxy_window.create ~wire:cfg.wire in
    let buffer : Packet.t Queue.t = Queue.create () in
    let buffer_peak = ref 0 in
    let quack_every =
      ref (match cfg.upstream with Every n -> n | Timer _ -> 0)
    in
    let since = ref 0 in
    let index = ref 0 in
    let emit () =
      since := 0;
      incr index;
      Protocol.send_quack ctx ~dst:Protocol.server_addr ~index:!index
        ~count_omitted:false
        (Q.Receiver_state.emit up_rx)
    in
    let rec pump () =
      let outstanding = Q.Sender_state.outstanding down_ss * cfg.wire in
      if outstanding + cfg.wire <= Proxy_window.window win then
        match Queue.take_opt buffer with
        | None -> ()
        | Some p ->
            Q.Sender_state.on_send down_ss ~id:p.Packet.id
              (Proxy_window.next_index win);
            ctx.forward p;
            pump ()
    in
    let bypass_head () =
      match Queue.take_opt buffer with
      | None -> ()
      | Some head ->
          Q.Sender_state.on_send down_ss ~id:head.Packet.id
            (Proxy_window.next_index win);
          Obs.Metrics.Counter.incr ctx.counters.buffer_bypass;
          ctx.forward head
    in
    let on_data p =
      ignore (Q.Receiver_state.on_receive up_rx p.Packet.id);
      (match cfg.upstream with
      | Every _ ->
          incr since;
          if !since >= !quack_every then emit ()
      | Timer _ -> ());
      (match cfg.overflow with
      | Drop ->
          if Queue.length buffer < cfg.buffer_pkts then begin
            Queue.push p buffer;
            if Queue.length buffer > !buffer_peak then
              buffer_peak := Queue.length buffer
          end
      | Bypass ->
          Queue.push p buffer;
          if Queue.length buffer > !buffer_peak then
            buffer_peak := Queue.length buffer;
          (* A full buffer means backpressure failed; push the head out
             unpaced (still logged, so decoding stays sound) rather
             than drop or reorder. *)
          if Queue.length buffer > cfg.buffer_pkts then bypass_head ());
      pump ()
    in
    let on_feedback ~index q =
      match Q.Quack_consumer.consume down q with
      | Q.Quack_consumer.Decoded rep ->
          Proxy_window.on_quack win
            ~acked_pkts:(List.length rep.Q.Sender_state.acked)
            ~lost_indices:rep.Q.Sender_state.lost;
          pump ()
      | Q.Quack_consumer.Resynced abandoned ->
          (* §3.3 unilateral resync: the client's cumulative sums are
             the new baseline — the designed recovery after an
             eviction/re-admission cycle and after genuine decode
             overload alike. *)
          Obs.Metrics.Counter.incr ctx.counters.resyncs;
          Protocol.trace ctx
            (Obs.Trace.Resync { node = "proxy"; flow = ctx.flow; to_index = index });
          Proxy_window.on_quack win ~acked_pkts:0 ~lost_indices:abandoned;
          pump ()
      | Q.Quack_consumer.(Stale | Restarted _ | Replay | Mismatch) -> ()
    in
    let on_timer () =
      match cfg.upstream with
      | Timer { high_watermark; _ } ->
          (* Backpressure: while the forwarding buffer is above the
             high watermark, withhold quACKs so the server's window
             stops growing ("drain ... at a slower rate", §2.1). *)
          if Queue.length buffer < high_watermark then emit ()
      | Every _ -> ()
    in
    let on_evict () =
      (* Flush unpaced and unlogged — sound precisely because the
         pacing/decode state is being destroyed with it: the client's
         next cumulative quACK resyncs a re-admission from scratch. *)
      let flushed = Queue.length buffer in
      Queue.iter ctx.forward buffer;
      Queue.clear buffer;
      Obs.Metrics.Counter.add ctx.counters.flushed_on_evict flushed
    in
    let info () =
      {
        Protocol.buffered = Queue.length buffer;
        outstanding = Q.Sender_state.outstanding down_ss;
        window_bytes = Proxy_window.window win;
        upstream_interval = !quack_every;
        buffer_peak = !buffer_peak;
      }
    in
    {
      Protocol.on_data;
      on_feedback;
      on_freq = (fun i -> quack_every := max 1 i);
      on_timer;
      on_evict;
      (* a cleanly-terminated flow has nothing buffered worth pacing *)
      on_release = (fun () -> ());
      info;
    }
  in
  {
    Protocol.name = "cc-division";
    addr = "proxy";
    timer =
      (match cfg.upstream with
      | Timer { interval; _ } ->
          Some { Protocol.period = interval; scope = Protocol.Flow_active }
      | Every _ -> None);
    init;
  }
