module Packet = Netsim.Packet
module Q = Sidecar_quack

type config = {
  bits : int;
  threshold : int;
  count_bits : int option;
  quack_every : int;
  omit_count : bool;
  field : (module Sidecar_field.Modular.S) option;
}

let make cfg =
  if cfg.quack_every <= 0 then
    invalid_arg "Proto_ar.make: quack interval must be positive";
  let init (ctx : Protocol.ctx) =
    let rx =
      Q.Receiver_state.create ~bits:cfg.bits ?field:cfg.field
        ?count_bits:cfg.count_bits ~threshold:cfg.threshold ()
    in
    let every = ref cfg.quack_every in
    let since = ref 0 in
    let index = ref 0 in
    let on_data p =
      ignore (Q.Receiver_state.on_receive rx p.Packet.id);
      incr since;
      if !since >= !every then begin
        since := 0;
        incr index;
        Protocol.send_quack ctx ~dst:Protocol.server_addr ~index:!index
          ~count_omitted:cfg.omit_count
          (Q.Receiver_state.emit rx)
      end;
      ctx.forward p
    in
    let info () =
      { Protocol.no_info with Protocol.upstream_interval = !every }
    in
    {
      Protocol.on_data;
      on_feedback = (fun ~index:_ _ -> ());
      on_freq = (fun i -> every := max 1 i);
      on_timer = (fun () -> ());
      on_evict = (fun () -> ());
      on_release = (fun () -> ());
      info;
    }
  in
  { Protocol.name = "ack-reduction"; addr = "proxy"; timer = None; init }
