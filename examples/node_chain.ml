(* Composing sidecar protocols on one path with the node layer.

   The point of the Node/Chain abstraction: protocols are nodes, and
   nodes stack. Here a four-segment path carries one flow through an
   ACK-reduction proxy (§2.2) near the server AND an in-network
   retransmission pair (§2.3) bracketing a bursty middle hop:

     server --J0--> [ack-reduction] --J1--> [retx near] --bursty-->
       [retx far] --J3--> client

   The ACK-reduction proxy quACKs everything it forwards so the server
   frees window space early while the client ACKs rarely; the
   retransmission pair refills the burst losses locally before the
   end hosts' loss detection fires. Neither node knows about the
   other.

   Run with: dune exec examples/node_chain.exe *)

open Sidecar_protocols
module Q = Sidecar_quack
module Time = Netsim.Sim_time
module Packet = Netsim.Packet

let bursty =
  Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 1)
    ~loss:
      (Path.Gilbert { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_bad = 0.3 })
    ()

let segments =
  [
    Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 10) ();
    Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 5) ();
    bursty;
    Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 5) ();
  ]

let units = 2000
let quack_every = 10
let warmup_units = 200
let thinned_ack_every = 64

(* endpoints tolerate the reordering in-network refills introduce *)
let pkt_threshold = 1024

let () =
  Format.printf
    "path: server --100M/10ms--> AR --50M/5ms--> A --50M/1ms, GE bursts--> \
     B --100M/5ms--> client@.";
  Format.printf "middle average loss: %.2f%%@.@."
    (100. *. Path.average_loss bursty.Path.loss);

  Format.printf "--- baseline: same path, pass-through junctions ---@.";
  let base =
    Chain.run ~units ~pkt_threshold
      ~nodes:[ Node.pass_through; Node.pass_through; Node.pass_through ]
      segments
  in
  Format.printf "%a@.@." Transport.Flow.pp_result base.Chain.flow;

  Format.printf "--- chained: ACK reduction + retransmission pair ---@.";
  (* server-side sidecar state: decode the AR proxy's quACKs into
     provisional window credit *)
  let ss = ref None in
  let freed_early = ref 0 in
  let on_transmit (p : Packet.t) =
    match !ss with
    | Some s -> Q.Sender_state.on_send s ~id:p.Packet.id p.Packet.seq
    | None -> ()
  in
  let server_quack ~sender ~index:_ quack =
    match !ss with
    | None -> ()
    | Some s -> (
        match Q.Sender_state.on_quack s quack with
        | Ok rep when not rep.Q.Sender_state.stale ->
            let seqs = rep.Q.Sender_state.acked in
            if seqs <> [] then
              freed_early :=
                !freed_early + Transport.Sender.sidecar_ack sender ~seqs
        | Ok _ -> ()
        | Error (`Threshold_exceeded _) -> ignore (Q.Sender_state.resync_to s quack)
        | Error (`Config_mismatch _) -> ())
  in
  (* client-side: thin the e2e ACKs once the flow is warmed up *)
  let client (cp : Chain.client_ports) =
    let delivered = ref 0 in
    {
      Chain.on_data =
        Some
          (fun (_ : Packet.t) ->
            incr delivered;
            if !delivered = warmup_units then
              match cp.Chain.receiver () with
              | Some rx -> Transport.Receiver.set_ack_every rx thinned_ack_every
              | None -> ());
      on_ack = None;
      start = (fun () -> ());
    }
  in
  let ar_counters = Protocol.fresh_counters () in
  let retx_counters = Protocol.fresh_counters () in
  let ar =
    Proto_ar.make
      {
        Proto_ar.bits = 32;
        threshold = 80;
        count_bits = None;
        quack_every;
        omit_count = false;
        field = None;
      }
  in
  let rcfg =
    {
      Proto_retx.bits = 32;
      threshold = 64;
      strikes_to_lose = 1;
      buffer_pkts = 512;
      initial_quack_every = 16;
      adaptive = true;
      target_missing = 2;
      subpath_rtt = Time.ms 2;
      near_addr = "proxyA";
      far_addr = "proxyB";
      field = None;
    }
  in
  ss :=
    Some
      (Q.Sender_state.create
         { Q.Sender_state.default_config with bits = 32; threshold = 80 });
  let outcome =
    Chain.run ~units ~pkt_threshold ~on_transmit ~server_quack ~client
      ~nodes:
        [
          Node.of_protocol ~counters:ar_counters ar;
          Node.of_protocol ~counters:retx_counters (Proto_retx.near rcfg);
          Node.of_protocol ~counters:retx_counters (Proto_retx.far rcfg);
        ]
      segments
  in
  Format.printf "%a@.@." Transport.Flow.pp_result outcome.Chain.flow;

  let c = Obs.Metrics.Counter.get in
  Format.printf
    "ack reduction: %d quACKs (%d B) to the server, %d B freed early@."
    (c ar_counters.Protocol.quacks_tx)
    (c ar_counters.Protocol.quack_bytes)
    !freed_early;
  Format.printf
    "retx pair:     %d quACKs (%d B) across the subpath, %d local refills, \
     %d interval updates@."
    (c retx_counters.Protocol.quacks_tx)
    (c retx_counters.Protocol.quack_bytes)
    (c retx_counters.Protocol.retransmissions)
    (c retx_counters.Protocol.freq_sent);
  match (base.Chain.flow.Transport.Flow.fct, outcome.Chain.flow.Transport.Flow.fct)
  with
  | Some b, Some s ->
      Format.printf
        "@.flow completion %.2fs -> %.2fs; client ACKs %d -> %d;@.\
         e2e retransmissions %d -> %d@."
        (Time.to_float_s b) (Time.to_float_s s)
        base.Chain.flow.Transport.Flow.acks_sent
        outcome.Chain.flow.Transport.Flow.acks_sent
        base.Chain.flow.Transport.Flow.retransmissions
        outcome.Chain.flow.Transport.Flow.retransmissions
  | _ -> ()
