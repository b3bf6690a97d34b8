(* The one quACK consumer: decode, else resync, in one call. *)
module Q = Sidecar_quack

let on_feedback consumer ~index q =
  match Q.Quack_consumer.consume consumer ~index q with
  | Q.Quack_consumer.Decoded rep -> List.length rep.Q.Sender_state.acked
  | Q.Quack_consumer.(Stale | Resynced _ | Restarted _ | Replay | Mismatch) -> 0
