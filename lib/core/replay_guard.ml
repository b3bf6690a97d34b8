type verdict = Fresh | Replay | Regression

let verdict_name = function
  | Fresh -> "fresh"
  | Replay -> "replay"
  | Regression -> "regression"

(* One accepted emission: its index and the fields the sender state
   consumes, with a private copy of the sums. *)
type entry = { index : int; bits : int; count_bits : int; count : int; sums : int array }

type t = {
  depth : int;
  (* the last [depth] accepted quACKs, oldest overwritten first; only
     the first [filled] slots hold one *)
  ring : entry array;
  mutable filled : int;
  mutable pos : int;
  mutable last_index : int;
  mutable replays : int;
  mutable regressions : int;
  mutable accepted : int;
}

let create ?(depth = 32) () =
  if depth < 1 then invalid_arg "Replay_guard.create: depth must be positive";
  {
    depth;
    ring = Array.make depth { index = -1; bits = 0; count_bits = 0; count = 0; sums = [||] };
    filled = 0;
    pos = 0;
    last_index = 0;
    replays = 0;
    regressions = 0;
    accepted = 0;
  }

(* A remembered emission matches on everything the sender state
   consumes from a quACK: an attacker replaying bytes reproduces it
   exactly, while a genuinely restarted receiver sketch (fresh counts,
   fresh sums) differs from every remembered emission. The modulus is
   not compared: it is fixed by the configuration, not by the
   emission. *)
let matches e ~index (q : Quack.t) =
  e.index = index && e.bits = q.Quack.bits && e.count_bits = q.Quack.count_bits
  && e.count = q.Quack.count
  && Array.length e.sums = Array.length q.Quack.sums
  &&
  let rec same i = i < 0 || (e.sums.(i) = q.Quack.sums.(i) && same (i - 1)) in
  same (Array.length e.sums - 1)

(* The sums are copied, so later writes to the caller's array cannot
   alter what was remembered. *)
let remember t ~index (q : Quack.t) =
  t.ring.(t.pos) <-
    {
      index;
      bits = q.Quack.bits;
      count_bits = q.Quack.count_bits;
      count = q.Quack.count;
      sums = Array.copy q.Quack.sums;
    };
  t.pos <- (t.pos + 1) mod t.depth;
  t.filled <- min t.depth (t.filled + 1)

let seen t ~index q =
  let rec go k = k < t.filled && (matches t.ring.(k) ~index q || go (k + 1)) in
  go 0

let classify t ~index q =
  if index > t.last_index then begin
    t.last_index <- index;
    t.accepted <- t.accepted + 1;
    remember t ~index q;
    Fresh
  end
  else if seen t ~index q then begin
    t.replays <- t.replays + 1;
    Replay
  end
  else begin
    (* index at or below the high-water mark with contents we have
       never accepted: the emitter's state genuinely restarted and its
       numbering began again (§3.3) — the caller should resync, as it
       did before this guard existed *)
    t.regressions <- t.regressions + 1;
    t.last_index <- index;
    t.accepted <- t.accepted + 1;
    remember t ~index q;
    Regression
  end

let last_index t = t.last_index
let replays t = t.replays
let regressions t = t.regressions
let accepted t = t.accepted
