(* quack-consumer: library code outside lib/core driving the sender
   state's decode and resync by hand, the rule Quack_consumer owns. *)
module Q = Sidecar_quack

let on_feedback ss q =
  match Q.Sender_state.on_quack ss q with
  | Ok _ -> ()
  | Error _ -> ignore (Sidecar_quack.Sender_state.resync_to ss q)

(* sidelint: allow — a deliberate bypass stays expressible *)
let adopt ss q = Q.Sender_state.resync_to ss q
