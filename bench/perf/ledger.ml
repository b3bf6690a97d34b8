(* Clock, order statistics and the in-memory span store of the traced
   run. Nothing here allocates per reading: the clock and
   [Gc.minor_words] are unboxed externals, and spans go into growable
   int arrays. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Obs.Json writes indented output; a result or a trace line must be one
   line. *)
let one_line json =
  String.concat "" (List.map String.trim (String.split_on_char '\n' (Obs.Json.to_string json)))

(* A growable int array. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
  let to_floats v = Array.init v.n (fun i -> float_of_int v.a.(i))

  let sum v =
    let s = ref 0 in
    for i = 0 to v.n - 1 do
      s := !s + v.a.(i)
    done;
    !s
end

(* [quantile xs p] over a non-empty array, linear between closest ranks. *)
let quantile xs p =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile xs 0.5

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so spreads read the same here as in any
   harness that uses it. Needs at least two values. *)
let quartiles xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Per-name totals over every span recorded under that name, kept or
   not. *)
type stage = {
  stage_name : string;
  name_id : int;  (** index into the store's [names] *)
  mutable ns : int;
  mutable calls : int;
  mutable words : float;
  samples : Vec.t;  (** per-call durations of kept ops *)
}

(* The traced run's span store. Spans of one op share its index as
   trace id; an op's children name its root span as parent. Child spans
   are kept for the first [keep_ops] ops and only folded into their
   stage totals after that; root spans are always kept. *)
type t = {
  keep_ops : int;
  name : Vec.t;  (** index into [names] *)
  trace_id : Vec.t;
  span_id : Vec.t;
  parent : Vec.t;  (** -1 for a root *)
  start : Vec.t;
  stop : Vec.t;
  mutable names : string array;
  mutable next_id : int;
  mutable op : int;
  mutable root : int;
}

let create ~keep_ops =
  {
    keep_ops;
    name = Vec.create ();
    trace_id = Vec.create ();
    span_id = Vec.create ();
    parent = Vec.create ();
    start = Vec.create ();
    stop = Vec.create ();
    names = [||];
    next_id = 0;
    op = 0;
    root = 0;
  }

let name_index t n =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| n |];
      i
    end
    else if String.equal t.names.(i) n then i
    else find (i + 1)
  in
  find 0

let stage t stage_name =
  { stage_name; name_id = name_index t stage_name; ns = 0; calls = 0; words = 0.; samples = Vec.create () }

let record t ~name_id ~parent ~id ~start ~stop =
  Vec.push t.name name_id;
  Vec.push t.trace_id t.op;
  Vec.push t.span_id id;
  Vec.push t.parent parent;
  Vec.push t.start start;
  Vec.push t.stop stop

let begin_op t op =
  t.op <- op;
  t.root <- t.next_id;
  t.next_id <- t.next_id + 1

let end_op t ~name ~start ~stop =
  record t ~name_id:(name_index t name) ~parent:(-1) ~id:t.root ~start ~stop

let child t s ~start ~stop ~words =
  let d = stop - start in
  s.ns <- s.ns + d;
  s.calls <- s.calls + 1;
  s.words <- s.words +. words;
  if t.op < t.keep_ops then begin
    Vec.push s.samples d;
    let id = t.next_id in
    t.next_id <- id + 1;
    record t ~name_id:s.name_id ~parent:t.root ~id ~start ~stop
  end

let spans t = Vec.length t.name

(* One JSON object per span, one per line, after a first summary line. *)
let write t ~path ~summary =
  let oc = open_out path in
  output_string oc (one_line summary);
  output_char oc '\n';
  for i = 0 to Vec.length t.name - 1 do
    let p = Vec.get t.parent i in
    Printf.fprintf oc
      "{\"name\":%S,\"trace_id\":%d,\"span_id\":%d,\"parent\":%s,\"start_ns\":%d,\"end_ns\":%d}\n"
      t.names.(Vec.get t.name i) (Vec.get t.trace_id i) (Vec.get t.span_id i)
      (if p < 0 then "null" else string_of_int p)
      (Vec.get t.start i) (Vec.get t.stop i)
  done;
  close_out oc
