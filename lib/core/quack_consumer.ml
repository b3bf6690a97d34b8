type 'meta outcome =
  | Decoded of 'meta Sender_state.report
  | Stale
  | Resynced of 'meta list
  | Restarted of 'meta list
  | Replay
  | Mismatch

type 'meta t = {
  ss : 'meta Sender_state.t;
  guard : Replay_guard.t option;
  mutable resyncs : int;
  mutable mismatches : int;
}

let create ?(replay_guard = false) cfg =
  {
    ss = Sender_state.create cfg;
    guard = (if replay_guard then Some (Replay_guard.create ()) else None);
    resyncs = 0;
    mismatches = 0;
  }

let state t = t.ss
let on_send t ~id meta = Sender_state.on_send t.ss ~id meta

let mismatch t =
  t.mismatches <- t.mismatches + 1;
  Mismatch

(* [resync_to] validates before it mutates, so a foreign quACK leaves
   the state as it was. *)
let adopt t q ~restart =
  match Sender_state.resync_to t.ss q with
  | abandoned ->
      t.resyncs <- t.resyncs + 1;
      if restart then Restarted abandoned else Resynced abandoned
  | exception Invalid_argument _ -> mismatch t

let decode t q =
  match Sender_state.on_quack t.ss q with
  | Ok rep when rep.Sender_state.stale -> Stale
  | Ok rep -> Decoded rep
  | Error (`Threshold_exceeded _) -> adopt t q ~restart:false
  | Error (`Config_mismatch _) -> mismatch t

let consume t ?index q =
  match t.guard with
  | None -> decode t q
  | Some guard -> (
      let index =
        match index with
        | Some i -> i
        | None -> invalid_arg "Quack_consumer.consume: a guarded consumer needs ~index"
      in
      match Replay_guard.classify guard ~index q with
      | Replay_guard.Fresh -> decode t q
      | Replay_guard.Replay -> Replay
      | Replay_guard.Regression -> adopt t q ~restart:true)

let resync t q = adopt t q ~restart:true
let resyncs t = t.resyncs

let replays t =
  match t.guard with Some g -> Replay_guard.replays g | None -> 0

let mismatches t = t.mismatches
