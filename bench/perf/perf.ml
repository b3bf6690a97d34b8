(* The repository benchmark: five fixed workloads from the quACK
   primitive to the 200-flow proxy, the end-to-end metrics their users
   see, and a traced per-layer ledger. See README.md for what each
   workload and metric is for.

   Usage:
     perf.exe --workload W [--seed S] [--seconds T] [--trace 0|1]
              [--trace-out FILE] [--quick] [--expect-checksum SEED=VALUE]
         run one workload; the last line of stdout is the result, one
         JSON object {correct, attempted, failed, metrics}
     perf.exe [--seed S] [--seconds T] [--trace 0|1] [--quick]
         run every workload once, each in its own child process; one
         JSON record per workload
     perf.exe compare PARENT CHANGE
         PARENT and CHANGE are files of such records

   Exit status: 0 on success, 1 when a run fails or its outputs are
   wrong (or compare finds a regression), 2 on bad usage. *)

open Perf_bench
open Ledger

let usage () =
  prerr_endline
    "usage: perf.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
     [--trace-out FILE] [--quick] [--expect-checksum SEED=VALUE]\n\
    \       perf.exe compare PARENT CHANGE";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable quick : bool;
  mutable expected : (int * int) list;
  mutable probe : int option;  (** run as a set-up probe for this op *)
}

let parse_args args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      trace_out = None;
      quick = false;
      expected = Workloads.recorded_checksums;
      probe = None;
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem w Catalog.workloads) then begin
          prerr_endline ("perf: unknown workload " ^ w);
          usage ()
        end;
        o.workload <- Some w;
        go rest
    | "--seed" :: s :: rest ->
        o.seed <- int s;
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some f when f >= 0. -> o.seconds <- f
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace-out" :: f :: rest ->
        o.trace_out <- Some f;
        go rest
    | "--quick" :: rest ->
        o.quick <- true;
        go rest
    | "--expect-checksum" :: kv :: rest ->
        (* replaces the recorded checksum of one seed: the smoke test
           checks that a wrong record fails the run *)
        (match String.split_on_char '=' kv with
        | [ s; v ] ->
            let s = int s in
            o.expected <- (s, int v) :: List.remove_assoc s o.expected
        | _ -> usage ());
        go rest
    | "--probe" :: i :: rest ->
        o.probe <- Some (int i);
        go rest
    | _ -> usage ()
  in
  go args;
  o

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let result_json ~correct ~attempted ~failed metrics =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool correct);
      ("attempted", Obs.Json.Int attempted);
      ("failed", Obs.Json.Int failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun ((m : Catalog.metric), v) ->
               (m.name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String m.unit) ]))
             metrics) );
    ]

let print_metrics metrics =
  List.iter
    (fun ((m : Catalog.metric), v) -> Printf.eprintf "  %-34s %16.6g %s\n" m.name v m.unit)
    metrics

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

let exe = Sys.executable_name

let rec waitpid pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* [argv] as a child process with its stdout on a pipe. *)
let spawn argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  (Unix.in_channel_of_descr rd, pid)

(* Set-up time and memory: a fresh process sets the workload up, says
   so on stdout, runs op [index] and prints its peak heap in words. The
   parent times spawn to that signal, so program start-up counts and
   the warm-up does not, and scales it by the reference loop's time
   just before and after; the heap is one op's, free of the long run's
   history. *)
type setup = {
  seconds : float;  (** at the reference pace *)
  raw_seconds : float;
  heap_mb : float;
}

let probe ~workload ~pace:kind ~seed ~index =
  let before = Pace.sample kind in
  let t0 = now_ns () in
  let ic, pid =
    spawn
      [| exe; "--probe"; string_of_int index; "--workload"; workload; "--seed"; string_of_int seed |]
  in
  let ready = In_channel.input_line ic in
  let t1 = now_ns () in
  let heap = In_channel.input_all ic in
  close_in ic;
  let status = waitpid pid in
  let pace = float_of_int (before + Pace.sample kind) /. 2. in
  match (ready, int_of_string_opt (String.trim heap), status) with
  | Some _, Some words, Unix.WEXITED 0 ->
      let raw_seconds = float_of_int (t1 - t0) /. 1e9 in
      {
        seconds = raw_seconds *. Pace.reference_ns /. pace;
        raw_seconds;
        heap_mb = float_of_int (words * (Sys.word_size / 8)) /. 1e6;
      }
  | _ -> failwith "set-up probe failed"

let capture argv =
  let ic, pid = spawn argv in
  let out = In_channel.input_all ic in
  close_in ic;
  (out, waitpid pid)

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)

type measured = {
  durations : Vec.t;
  scaled : float array;  (** [durations] at the reference pace *)
  paces : Vec.t;  (** the reference loop's times *)
  op_pkts : Vec.t;
  pkts : int;
  attempted : int;
  failed : int;
  words : float;  (** minor words allocated inside the timed calls *)
  promoted : float;
  majors : int;
  inst : Workloads.instance;
}

(* The reference loop runs between ops, untimed, once at least this
   long has passed since it last ran: after every op of the workloads
   whose ops are longer, every twenty or so quACK rounds. It runs after
   the op's heap collection, so it finds the heap the op will. *)
let pace_every_ns = 20_000_000

let measure (w : Workloads.t) ~seed ~quick ~trace ~seconds ~min_ops ~max_ops =
  let inst = w.setup ~seed ~quick ~trace in
  inst.warmup ();
  let durations = Vec.create () and op_pkts = Vec.create () in
  let paces = Vec.create () and pace_before = Vec.create () in
  let pkts = ref 0 and attempted = ref 0 and failed = ref 0 in
  let words = Array.make 1 0. in
  let g0 = Gc.quick_stat () in
  let limit = int_of_float (seconds *. 1e9) in
  let last_pace = ref (now_ns () - pace_every_ns) in
  let take_pace () =
    Vec.push paces (Pace.sample w.pace);
    last_pace := now_ns ()
  in
  let t_start = now_ns () in
  let i = ref 0 in
  while (!i < min_ops || now_ns () - t_start < limit) && !i < max_ops do
    if w.collect then Gc.full_major ();
    if now_ns () - !last_pace >= pace_every_ns then take_pace ();
    Vec.push pace_before (Vec.length paces - 1);
    Option.iter (fun t -> Ledger.begin_op t !i) trace;
    let r = inst.op !i in
    words.(0) <- words.(0) +. r.Workloads.words;
    Option.iter
      (fun t -> Ledger.end_op t ~name:w.op_name ~start:r.Workloads.start ~stop:r.Workloads.stop)
      trace;
    Vec.push durations (r.Workloads.stop - r.Workloads.start);
    Vec.push op_pkts r.Workloads.pkts;
    pkts := !pkts + r.Workloads.pkts;
    attempted := !attempted + r.Workloads.attempted;
    failed := !failed + r.Workloads.failed;
    incr i
  done;
  if w.collect then Gc.full_major ();
  take_pace ();
  let g1 = Gc.quick_stat () in
  (* each op against the mean of the loop's times just before and just
     after it *)
  let scaled =
    Array.init (Vec.length durations) (fun i ->
        let j = Vec.get pace_before i in
        let pace = float_of_int (Vec.get paces j + Vec.get paces (j + 1)) /. 2. in
        float_of_int (Vec.get durations i) *. Pace.reference_ns /. pace)
  in
  {
    durations;
    scaled;
    paces;
    op_pkts;
    pkts = !pkts;
    attempted = !attempted;
    failed = !failed;
    words = words.(0);
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections;
    inst;
  }

let per_pkt x (m : measured) = x /. float_of_int (max 1 m.pkts)
let wall_ns (m : measured) = float_of_int (Vec.sum m.durations)

let metric_values metrics values =
  List.map
    (fun (m : Catalog.metric) ->
      match List.assoc_opt m.name values with
      | Some v -> (m, v)
      | None -> failwith ("no value for metric " ^ m.name))
    metrics

(* Packets per second of one op of each class, each at its class's
   10th-percentile time. Op classes repeat the same work; the pace
   takes out slow stretches of the host, and the faster ops of a class
   are the ones brief stalls left alone. [time i] is op [i]'s time in
   ns. *)
let class_rate ?(ops = max_int) (w : Workloads.t) (m : measured) ~time =
  let n = min ops (Vec.length m.durations) in
  let k = min w.classes n in
  let pkts = ref 0 and ns = ref 0. in
  for c = 0 to k - 1 do
    let times = Array.init ((n - c + k - 1) / k) (fun j -> time (c + (j * k))) in
    pkts := !pkts + Vec.get m.op_pkts c;
    ns := !ns +. quantile times 0.1
  done;
  float_of_int !pkts /. (!ns /. 1e9)

let rate ?ops w m = class_rate ?ops w m ~time:(Array.get m.scaled)
let raw_rate w m = class_rate w m ~time:(fun i -> float_of_int (Vec.get m.durations i))

let end_to_end w ~(probes : setup array) (m : measured) =
  let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs) in
  metric_values Catalog.end_to_end
    [
      ("setup_s", median (Array.map (fun p -> p.seconds) probes));
      ("pkts_per_s", rate w m);
      ("peak_heap_mb", mean (Array.map (fun p -> p.heap_mb) probes));
    ]

(* [traced] and [plain] ran the same first ops; [plain] without
   tracing, which is where the allocation figures come from. *)
let per_layer w ~(traced : measured) ~(plain : measured) =
  let t = traced.inst.Workloads.tally in
  let proxy_ns, proxy_words =
    match traced.inst.Workloads.proxy with
    | Some s -> (float_of_int s.ns, s.words)
    | None -> (0., 0.)
  in
  let k = Vec.length plain.durations in
  let count c = per_pkt (float_of_int c) traced in
  metric_values Catalog.per_layer
    [
      ("proxy.ns_per_pkt", per_pkt proxy_ns traced);
      ("proxy.alloc_words_per_pkt", per_pkt proxy_words traced);
      ("proxy.wall_share", proxy_ns /. wall_ns traced);
      ("outside.alloc_words_per_pkt", per_pkt (traced.words -. proxy_words) traced);
      ("table.admitted_per_kpkt", 1e3 *. count t.admitted);
      ("table.evicted_per_kpkt", 1e3 *. count t.evicted);
      ("quack.untracked_rx_frac", float_of_int t.untracked_quacks /. float_of_int (max 1 t.quacks_rx));
      ("quack.emitted_per_kpkt", 1e3 *. count t.quacks);
      ("quack.resyncs_per_kpkt", 1e3 *. count t.resyncs);
      ("netsim.events_per_pkt", count t.events);
      ("netsim.drops_per_kpkt", 1e3 *. count t.drops);
      ("transport.retransmissions_per_kpkt", 1e3 *. count t.retransmissions);
      ("transport.timeouts_per_kpkt", 1e3 *. count t.timeouts);
      ("gc.alloc_words_per_pkt", per_pkt plain.words plain);
      ("gc.promoted_words_per_pkt", per_pkt plain.promoted plain);
      ("gc.major_per_mpkt", 1e6 *. per_pkt (float_of_int plain.majors) plain);
      ("trace.overhead_frac", (rate w plain /. rate ~ops:k w traced) -. 1.);
    ]

let run_workload o name =
  let expected = o.expected in
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = name) (Workloads.all ~expected) with
    | Some w -> w
    | None -> usage ()
  in
  Option.iter
    (fun index ->
      let inst = w.setup ~seed:o.seed ~quick:false ~trace:None in
      print_newline ();
      ignore (inst.Workloads.op index);
      print_int (Gc.quick_stat ()).Gc.top_heap_words;
      exit 0)
    o.probe;
  let seconds = if o.quick then 0. else o.seconds in
  let min_ops = if o.quick then w.quick_ops else 1 in
  let measure ~trace ~seconds ~min_ops ~max_ops =
    measure w ~seed:o.seed ~quick:o.quick ~trace ~seconds ~min_ops ~max_ops
  in
  let checked (m : measured) =
    match m.inst.Workloads.check () with
    | Ok () -> true
    | Error msg ->
        Printf.eprintf "perf: %s seed %d: incorrect output: %s\n%!" name o.seed msg;
        false
  in
  let correct, m, metrics =
    if not o.trace then begin
      (* one set-up per op class, so the heap covers every class's work *)
      let probes =
        Array.init (if o.quick then 1 else max 9 w.classes) (fun index ->
            probe ~workload:name ~pace:w.pace ~seed:o.seed ~index)
      in
      let m = measure ~trace:None ~seconds ~min_ops ~max_ops:max_int in
      let metrics = end_to_end w ~probes m in
      Printf.eprintf "perf: %s seed %d: %d %ss, %d packets, %.2f s timed (%d set-ups)\n"
        name o.seed (Vec.length m.durations) w.op_name m.pkts (wall_ns m /. 1e9) (Array.length probes);
      print_metrics metrics;
      Printf.eprintf
        "  (as timed: %.6g pkt/s, set-up %.6g s; reference loop median %.4g ms over %d runs)\n"
        (raw_rate w m)
        (median (Array.map (fun p -> p.raw_seconds) probes))
        (median (Vec.to_floats m.paces) /. 1e6)
        (Vec.length m.paces);
      let d = Vec.to_floats m.durations in
      Printf.eprintf "  (%s ms: p50 %.4g, p90 %.4g, p99 %.4g over %d %ss)\n" w.op_name
        (quantile d 0.5 /. 1e6) (quantile d 0.9 /. 1e6) (quantile d 0.99 /. 1e6)
        (Array.length d) w.op_name;
      (checked m, m, metrics)
    end
    else begin
      let spans = Ledger.create ~keep_ops:w.trace_ops in
      let traced = measure ~trace:(Some spans) ~seconds ~min_ops ~max_ops:max_int in
      let k = max 1 (Vec.length traced.durations / 4) in
      let plain = measure ~trace:None ~seconds:0. ~min_ops:k ~max_ops:k in
      let metrics = per_layer w ~traced ~plain in
      let details = traced.inst.Workloads.details () in
      Printf.eprintf
        "perf: %s seed %d traced: %d %ss, %d spans kept; %d %ss re-run untraced\n" name
        o.seed (Vec.length traced.durations) w.op_name (Ledger.spans spans) k w.op_name;
      print_metrics metrics;
      List.iter (fun (n, v, u) -> Printf.eprintf "  %-34s %16.6g %s\n" n v u) details;
      Option.iter
        (fun path ->
          let num (n, v) = (n, Obs.Json.Float v) in
          Ledger.write spans ~path
            ~summary:
              (Obs.Json.Obj
                 [
                   ("workload", Obs.Json.String name);
                   ("seed", Obs.Json.Int o.seed);
                   ("ops", Obs.Json.Int (Vec.length traced.durations));
                   ("wall_ns", Obs.Json.Float (wall_ns traced));
                   ( "per_layer",
                     Obs.Json.Obj
                       (List.map (fun ((m : Catalog.metric), v) -> num (m.name, v)) metrics) );
                   ("details", Obs.Json.Obj (List.map (fun (n, v, _) -> num (n, v)) details));
                 ]);
          Printf.eprintf "  (spans written to %s)\n" path)
        o.trace_out;
      (checked traced && checked plain, traced, metrics)
    end
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  if not finite then Printf.eprintf "perf: %s: a metric is not a finite number\n" name;
  let correct = correct && finite in
  print_endline (Ledger.one_line (result_json ~correct ~attempted:m.attempted ~failed:m.failed metrics));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Every workload                                                      *)

let run_all o =
  let ok = ref true in
  List.iter
    (fun name ->
      let argv =
        [ exe; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
          Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0") ]
        @ if o.quick then [ "--quick" ] else []
      in
      let out, status = capture (Array.of_list argv) in
      let last =
        List.fold_left
          (fun acc l -> if String.trim l = "" then acc else Some l)
          None (String.split_on_char '\n' out)
      in
      match (status, Option.map Obs.Json.of_string last) with
      | Unix.WEXITED 0, Some (Ok result) ->
          print_endline
            (Ledger.one_line
               (Obs.Json.Obj
                  [
                    ("workload", Obs.Json.String name);
                    ("seed", Obs.Json.Int o.seed);
                    ("trace", Obs.Json.Bool o.trace);
                    ("result", result);
                  ]));
          flush stdout
      | _ ->
          Printf.eprintf "perf: %s seed %d failed\n%!" name o.seed;
          ok := false)
    Catalog.workloads;
  if not !ok then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: files -> Compare.main files
  | _ :: args -> (
      let o = parse_args args in
      match o.workload with Some name -> run_workload o name | None -> run_all o)
  | [] -> usage ()
