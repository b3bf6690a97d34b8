module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Q = Sidecar_quack

type config = {
  units : int;
  mss : int;
  near : Path.segment;
  far : Path.segment;
  quack_every : int;
  client_ack_every : int;
  warmup_units : int;
  threshold : int;
  bits : int;
  omit_count : bool;
  seed : int;
  until : Time.t;
}

let default_config =
  {
    units = 2000;
    mss = 1460;
    near = Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 5) ();
    far = Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 25) ();
    quack_every = 32;
    client_ack_every = 32;
    warmup_units = 200;
    threshold = 20;
    bits = 32;
    omit_count = true;
    seed = 1;
    until = Time.s 300;
  }

type report = {
  flow : Transport.Flow.result;
  client_acks : int;
  client_ack_bytes : int;
  quacks : int;
  quack_bytes : int;
  window_freed_early_bytes : int;
  spurious_retx : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%a@,client e2e ACKs: %d (%d B)@,proxy quACKs: %d (%d B)@,\
     window freed early: %d B@,spurious retx: %d@]"
    Transport.Flow.pp_result r.flow r.client_acks r.client_ack_bytes r.quacks
    r.quack_bytes r.window_freed_early_bytes r.spurious_retx

let json_report r =
  Obs.Json.Obj
    [
      ("flow", Transport.Flow.json_result r.flow);
      ("client_acks", Obs.Json.Int r.client_acks);
      ("client_ack_bytes", Obs.Json.Int r.client_ack_bytes);
      ("quacks", Obs.Json.Int r.quacks);
      ("quack_bytes", Obs.Json.Int r.quack_bytes);
      ("window_freed_early_bytes", Obs.Json.Int r.window_freed_early_bytes);
      ("spurious_retx", Obs.Json.Int r.spurious_retx);
    ]

let baseline cfg =
  let ack_bytes = ref 0 in
  let client _ =
    {
      Chain.on_data = None;
      on_ack = Some (fun p -> ack_bytes := !ack_bytes + p.Packet.size);
      start = (fun () -> ());
    }
  in
  let outcome =
    Chain.run ~seed:cfg.seed ~units:cfg.units ~mss:cfg.mss ~client
      ~nodes:[ Node.pass_through ] ~until:cfg.until [ cfg.near; cfg.far ]
  in
  (outcome.Chain.flow, !ack_bytes)

let run cfg =
  let quacks = ref 0 in
  let client_acks = ref 0 in
  let client_ack_bytes = ref 0 in
  let freed_early = ref 0 in

  (* ---- server sidecar -------------------------------------------- *)
  (* meta: the packet seq, so quACK-acked ids map back to window
     entries for the provisional release. *)
  let server =
    Q.Quack_consumer.create
      { Q.Sender_state.default_config with bits = cfg.bits; threshold = cfg.threshold }
  in
  let on_transmit p = Q.Quack_consumer.on_send server ~id:p.Packet.id p.Packet.seq in
  let server_quack ~sender ~index (q : Q.Quack.t) =
    (* Count-omitted mode (§4.3): the proxy quACKs every [n] packets,
       so the [index]-th quACK stands for an implicit count of
       [n * index] — robust to lost quACKs because the sums are
       cumulative. *)
    let q =
      if cfg.omit_count then { q with Q.Quack.count = cfg.quack_every * index }
      else q
    in
    incr quacks;
    match Q.Quack_consumer.consume server q with
    | Q.Quack_consumer.Decoded rep ->
        let seqs = rep.Q.Sender_state.acked in
        freed_early := !freed_early + Transport.Sender.sidecar_ack sender ~seqs
    | Q.Quack_consumer.(Stale | Resynced _ | Restarted _ | Replay | Mismatch) -> ()
  in

  (* ---- proxy ------------------------------------------------------ *)
  let counters = Protocol.fresh_counters () in
  let proto =
    Proto_ar.make
      {
        Proto_ar.bits = cfg.bits;
        threshold = cfg.threshold;
        count_bits = None;
        quack_every = cfg.quack_every;
        omit_count = cfg.omit_count;
        field = None;
      }
  in

  (* ---- client ----------------------------------------------------- *)
  (* The ACK-frequency extension keeps immediate ACKs during start-up
     (the sender needs the clocking) and goes sparse once the flow is
     established -- the draft's intended use. *)
  let client (cp : Chain.client_ports) =
    let delivered = ref 0 in
    {
      Chain.on_data =
        Some
          (fun _ ->
            incr delivered;
            if !delivered = cfg.warmup_units then
              match cp.Chain.receiver () with
              | Some r -> Transport.Receiver.set_ack_every r cfg.client_ack_every
              | None -> ());
      on_ack =
        Some
          (fun p ->
            incr client_acks;
            client_ack_bytes := !client_ack_bytes + p.Packet.size);
      start = (fun () -> ());
    }
  in

  let outcome =
    Chain.run ~seed:cfg.seed ~units:cfg.units ~mss:cfg.mss ~on_transmit
      ~server_quack ~client
      ~nodes:[ Node.of_protocol ~counters proto ]
      ~until:cfg.until
      [ cfg.near; cfg.far ]
  in
  let flow = outcome.Chain.flow in
  {
    flow;
    client_acks = !client_acks;
    client_ack_bytes = !client_ack_bytes;
    quacks = !quacks;
    quack_bytes = Obs.Metrics.Counter.get counters.Protocol.quack_bytes;
    window_freed_early_bytes = !freed_early;
    spurious_retx = flow.Transport.Flow.duplicates;
  }
