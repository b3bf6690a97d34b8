(* The host's pace, read off fixed reference loops run between timed
   ops.

   The benchmark runs on a shared host whose co-tenants slow it by up
   to a half, for seconds to minutes at a time, and unevenly: code that
   looks things up in tables spread over megabytes slows down more than
   arithmetic on a small working set. So each workload names the kind
   of work it mostly does, and loops of that kind, on their own data,
   are timed between its ops:

   - [Memory]: lookups and updates in a 16k-entry [Hashtbl] of records,
     allocating a small block per lookup, for the flat datapath's flow
     table and sketches and for the simulations, which live in hash
     tables of flows and allocate a record per packet;
   - [Mixed]: that loop and a chain of shifts and xors, weighted
     equally (the geometric mean of their times), for the quACK rounds,
     which do field arithmetic as well as log and table work.

   Dividing an op's time by the loops' time around it, and multiplying
   by [reference_ns], gives the op's time at the pace where the loops
   take [reference_ns]: about their time on a quiet host. The loops use
   only the standard library, so no change to the system under test
   moves them. *)

type kind = Memory | Mixed

(* A round figure near each loop's time on a 2-vCPU Intel Xeon guest. *)
let reference_ns = 1_000_000.

let state = ref 0x2545F491

let arithmetic n =
  let x = ref (!state lor 1) in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  state := !x land 0x3fffffff

type entry = { mutable hits : int; mutable level : float }

(* Created on first use, so a set-up probe's heap does not hold it. *)
let table : (int, entry) Hashtbl.t Lazy.t = lazy (Hashtbl.create 4096)

let lookups n =
  let table = Lazy.force table and h = ref !state and s = ref 0 in
  for _ = 1 to n do
    h := ((!h * 1103515245) + 12345) land 0x3fffffff;
    let key = !h land 0x3fff in
    (match Hashtbl.find_opt table key with
    | Some e ->
        e.hits <- e.hits + 1;
        e.level <- (e.level *. 0.5) +. 1.;
        s := !s + e.hits
    | None -> Hashtbl.replace table key { hits = 1; level = 0. });
    s := !s + Array.length (Sys.opaque_identity (Array.make 6 key))
  done;
  state := !s land 0x3fffffff

let time f n =
  let t0 = Ledger.now_ns () in
  f n;
  Ledger.now_ns () - t0

(* The loops' time, in ns. The [lookups] loop's young blocks are
   collected after the clock stops, so the next op does not pay to
   promote them. *)
let sample kind =
  let memory = time lookups 10_000 in
  Gc.minor ();
  match kind with
  | Memory -> memory
  | Mixed -> int_of_float (sqrt (float_of_int (time arithmetic 250_000 * memory)))
