(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4), plus protocol-level experiments for the
   three sidecar protocols of §2 and ablations of the design choices
   called out in DESIGN.md.

   Usage: dune exec bench/main.exe [-- [--jobs N] section ...]
   The sections are the names in the [sections] table at the end of
   this file (default: all of them, in that order); an unknown name
   exits 2 before any section runs.
   --jobs N fans the grid sweeps (sweep/short_flows/cc_compare/runtime
   points, fairness trials) over N domains via lib/exec; default
   Exec.recommended_jobs () (the SIDECAR_JOBS env overrides). Results
   are merged in submission order, so every table and JSON row is
   identical for any N. The quACK microbenchmarks (table2/fig5/fig6)
   time one point at a time on the calling domain whatever N is.
   BENCH_RUNTIME_FLOWS caps the runtime section's flow count,
   BENCH_SHARD_FLOWS scales the runtime_shard scenarios and
   BENCH_ADVERSARY_FLOWS caps runtime_adversary's; a value that is not
   an int exits 2 before any section runs.
   BENCH_DETERMINISTIC=1 (any value but "" and "0") drops wall-clock
   measurement from the runtime section (no cost_clock, no speedup
   row) so BENCH_RUNTIME.json is byte-identical across runs and job
   counts — what CI diffs.
   Sections that measure the quACK itself (table2/fig5/fig6) append
   rows to BENCH_QUACK.json, the runtime sections to
   BENCH_RUNTIME.json and the sharded runtime to BENCH_SHARD.json,
   written to the working directory on exit and validated by
   tools/benchcheck. *)

open Sidecar_quack
module Time = Netsim.Sim_time

let key = Identifier.key_of_int 0xBE7C
let ids_b ~bits n = List.init n (fun i -> Identifier.of_counter key ~bits i)
let ids n = ids_b ~bits:32 n

(* BENCH_DETERMINISTIC=1: suppress every wall-clock-derived field in
   the runtime section so its JSON is a pure function of the
   simulation — the mode CI uses to byte-diff jobs=1 vs jobs=4. *)
let deterministic =
  match Sys.getenv_opt "BENCH_DETERMINISTIC" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* The flow caps CI smoke steps set, parsed once at start-up whatever
   sections run: a malformed value (say BENCH_SHARD_FLOWS=24k) is a
   usage error like a bad --jobs, never a silent fall-back to the
   full-size default. Set values are clamped to [min]. *)
let env_cap name ~min ~default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> max min n
      | None ->
          Printf.eprintf "bench: invalid %s value %S (want an int)\n" name s;
          exit 2)

(* BENCH_RUNTIME_FLOWS caps the runtime sweep, BENCH_SHARD_FLOWS
   scales the runtime_shard scenarios and BENCH_ADVERSARY_FLOWS caps
   the adversary/leakage per-arm flow count. *)
let runtime_flows_cap = env_cap "BENCH_RUNTIME_FLOWS" ~min:8 ~default:200
let shard_flows = env_cap "BENCH_SHARD_FLOWS" ~min:4_000 ~default:240_000

let adversary_flows =
  env_cap "BENCH_ADVERSARY_FLOWS" ~min:8
    ~default:Sidecar_runtime.Adversary.default_config.Sidecar_runtime.Adversary.flows

(* ------------------------------------------------------------------ *)
(* Micro-benchmark driver (Bechamel, OLS over the monotonic clock).   *)

let ols =
  Bechamel.Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]

(* [measure_ns ~name f] estimates the execution time of [f ()] in
   nanoseconds: Bechamel samples with geometric run growth and fits
   time = a * runs by ordinary least squares — the "average of 100
   trials with warmup" of Table 2, done with a regression. *)
let measure_once ~quota ~name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> acc)
    res nan

let measure_ns ?(quota = 0.2) ~name f =
  let est = measure_once ~quota ~name f in
  if Float.is_nan est then begin
    (* OLS produced no estimate — the quota expired before enough
       samples accumulated (a slow [f], a loaded machine). A nan here
       used to flow silently into every downstream table; retry once
       with a much larger budget and fail loudly if that still cannot
       measure, so a broken number can never masquerade as data. *)
    let quota' = 5. *. quota in
    let est = measure_once ~quota:quota' ~name f in
    if Float.is_nan est then begin
      Printf.eprintf
        "bench: %S produced no OLS estimate (quotas %.2fs and %.2fs); aborting\n"
        name quota quota';
      exit 1
    end
    else est
  end
  else est

(* [alloc_words f] is the minor-heap words one call of [f] allocates:
   a [Gc.minor_words] delta, averaged over a few calls after a warm-up
   call. The counter is per domain, so pool workers measure only their
   own calls. *)
let alloc_words f =
  ignore (Sys.opaque_identity (f ()));
  let calls = 16 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* Time and allocation of one call of [f]. *)
let measure_cost ?quota ~name f = (measure_ns ?quota ~name f, alloc_words f)

(* ------------------------------------------------------------------ *)
(* Machine-readable side-outputs: sections append typed rows here and
   the driver writes BENCH_QUACK.json (microbenchmarks of the quACK
   itself) and BENCH_RUNTIME.json (multi-flow runtime) on exit, for
   tools/benchcheck and CI artifacts. *)

let quack_rows : Obs.Json.t list ref = ref []
let runtime_rows : Obs.Json.t list ref = ref []
let shard_rows : Obs.Json.t list ref = ref []
let handover_rows : Obs.Json.t list ref = ref []
let adversary_rows : Obs.Json.t list ref = ref []

let add_row rows ~section fields =
  rows := Obs.Json.Obj (("section", Obs.Json.String section) :: fields) :: !rows

let write_rows path rows =
  match !rows with
  | [] -> ()
  | rs ->
      Obs.Json.to_file path
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String "sidecar-bench-1");
             ("rows", Obs.Json.List (List.rev rs));
           ]);
      Printf.printf "(wrote %s)\n" path

let section name = Printf.printf "\n=== %s ===\n%!" name

(* ------------------------------------------------------------------ *)
(* Shared quACK scenario builders                                      *)

let build_psum ~bits ~threshold ids =
  let s = Psum.create ~bits ~threshold () in
  List.iter (Psum.insert s) ids;
  s

(* A decode problem: n packets, the given indices missing. *)
let decode_problem ~bits ~threshold ~n ~missing_idx =
  let all = ids_b ~bits n in
  let sent = build_psum ~bits ~threshold all in
  let received = Psum.create ~bits ~threshold () in
  List.iteri
    (fun i id -> if not (List.mem i missing_idx) then Psum.insert received id)
    all;
  let diff = Psum.difference ~sent ~received_sums:(Psum.sums received) () in
  (diff, List.length missing_idx, all, Psum.field sent)

let spread_missing n m = List.init m (fun i -> i * (n / (m + 1)))

(* ------------------------------------------------------------------ *)
(* Table 2: strawmen vs power sums (n = 1000, t = 20, b = 32, c = 16) *)

let table2 _pool =
  section "Table 2: strawman comparison (n=1000, t=20, b=32, c=16)";
  let n = 1000 and t = 20 and m = 20 in
  let all = ids n in
  let bogus = String.make 32 '\000' in
  let attempts = 20 in
  (* The six measurements run one after another: Bechamel stabilises
     the major heap before each, which fails while another domain
     allocates (Strawman 2's digests churn it), so they do not fan out
     over the pool. *)
  let ps_construct, ps_construct_words =
    measure_cost ~name:"psum-construct" (fun () ->
        build_psum ~bits:32 ~threshold:t all)
  in
  let ps_decode, ps_decode_words =
    let diff, nm, cands, field =
      decode_problem ~bits:32 ~threshold:t ~n ~missing_idx:(spread_missing n m)
    in
    measure_cost ~name:"psum-decode" (fun () ->
        Decoder.decode ~field ~diff_sums:diff ~num_missing:nm ~candidates:cands ())
  in
  let s1_construct, s1_construct_words =
    measure_cost ~name:"s1-construct" (fun () ->
        let s = Strawman1.create ~bits:32 in
        List.iter (Strawman1.insert s) all;
        Strawman1.encode s)
  in
  let s1_decode, s1_decode_words =
    let s1 = Strawman1.create ~bits:32 in
    List.iteri (fun i id -> if i mod 50 <> 7 then Strawman1.insert s1 id) all;
    let s1_payload = Strawman1.encode s1 in
    measure_cost ~name:"s1-decode" (fun () ->
        Strawman1.decode ~bits:32 s1_payload ~log:all)
  in
  let s2_construct, s2_construct_words =
    measure_cost ~name:"s2-construct" (fun () ->
        let s = Strawman2.create ~bits:32 in
        List.iter (Strawman2.insert s) all;
        Strawman2.digest s)
  in
  (* measured cost of one subset attempt; extrapolated below *)
  let s2_attempt, s2_attempt_words =
    let ns, words =
      measure_cost ~name:"s2-attempt" (fun () ->
          Strawman2.decode ~max_attempts:attempts ~digest:bogus ~log:all
            ~num_missing:m ())
    in
    (ns /. float_of_int attempts, words /. float_of_int attempts)
  in
  let ps_bits = (32 * t) + 16 in
  let s1_bits = 32 * n in
  let s2_days =
    Strawman2.estimated_decode_days ~n ~m ~seconds_per_attempt:(s2_attempt /. 1e9)
  in
  let s2_bits = Strawman2.size_bits ~count_bits:16 in
  Printf.printf "%-12s %18s %22s %14s\n" "" "Construction" "Decoding" "Size (bits)";
  Printf.printf "%-12s %15.0f us %19.0f us %14d\n" "Strawman 1"
    (s1_construct /. 1e3) (s1_decode /. 1e3) s1_bits;
  Printf.printf "%-12s %15.0f us %16.2e days %11d\n" "Strawman 2"
    (s2_construct /. 1e3) s2_days s2_bits;
  Printf.printf "%-12s %15.0f us %19.0f us %14d\n" "Power Sums"
    (ps_construct /. 1e3) (ps_decode /. 1e3) ps_bits;
  Printf.printf
    "\n(paper: S1 222us/126us/32000; S2 387ns/~7e6 days/272; PS 106us/61us/656)\n";
  Printf.printf "power-sum quACK wire bytes: %d (paper: 82)\n"
    (Wire.packed_size ~bits:32 ~threshold:t ~count_bits:16);
  Printf.printf "amortized construction: %.0f ns/packet (paper: ~100 ns)\n"
    (ps_construct /. float_of_int n);
  Printf.printf "power-sum minor words per call: construct %.0f, decode %.0f\n"
    ps_construct_words ps_decode_words;
  let open Obs.Json in
  (* alloc_words: per construction; decode_alloc_words: per decode (per
     subset attempt for Strawman 2) *)
  let scheme name construct_us construct_words decode decode_words size_bits =
    add_row quack_rows ~section:"table2"
      [
        ("scheme", String name);
        ("construct_us", Float construct_us);
        decode;
        ("size_bits", Int size_bits);
        ("alloc_words", Float construct_words);
        ("decode_alloc_words", Float decode_words);
      ]
  in
  scheme "strawman1" (s1_construct /. 1e3) s1_construct_words
    ("decode_us", Float (s1_decode /. 1e3))
    s1_decode_words s1_bits;
  scheme "strawman2" (s2_construct /. 1e3) s2_construct_words
    ("decode_days", Float s2_days) s2_attempt_words s2_bits;
  scheme "power_sums" (ps_construct /. 1e3) ps_construct_words
    ("decode_us", Float (ps_decode /. 1e3))
    ps_decode_words ps_bits

(* ------------------------------------------------------------------ *)
(* Table 3: collision probability vs identifier bits (n = 1000)       *)

let table3 _pool =
  section "Table 3: collision probabilities (n=1000)";
  Printf.printf "%-16s" "Identifier Bits";
  List.iter (fun b -> Printf.printf "%12d" b) Collision.table3_bits;
  Printf.printf "\n%-16s" "Collision Prob.";
  List.iter
    (fun b -> Printf.printf "%12.2g" (Collision.probability ~n:1000 ~bits:b))
    Collision.table3_bits;
  Printf.printf "\n%-16s" "Monte Carlo";
  List.iter
    (fun b ->
      if b <= 16 then
        Printf.printf "%12.2g" (Collision.monte_carlo ~trials:4000 ~n:1000 ~bits:b ())
      else Printf.printf "%12s" "-")
    Collision.table3_bits;
  Printf.printf "\n(paper: 0.98  0.015  6.0e-05  2.3e-07)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 5 and Fig. 6: one quACK cost over x values × identifier widths *)

(* [width_grid ~section ~x ~metric xs setup] times [setup ~bits v] for
   every v of [xs] (column [x]) at 16, 24 and 32 bits, prints the
   table and adds one [section] row per point. The points are measured
   one after another on this domain, as in table2: a point timed while
   other domains run reads slower, and Bechamel's heap stabilisation
   before each measurement can fail outright while another domain
   allocates. *)
let width_grid ~section ~x ~metric xs setup =
  let widths = [ 16; 24; 32 ] in
  Printf.printf "%-10s" x;
  List.iter (fun b -> Printf.printf "%10d-bit" b) widths;
  Printf.printf "\n";
  List.iter
    (fun v ->
      Printf.printf "%-10d" v;
      List.iter
        (fun bits ->
          let ns, words =
            measure_cost ~quota:0.1
              ~name:(Printf.sprintf "%s-b%d-%s%d" section bits x v)
              (setup ~bits v)
          in
          add_row quack_rows ~section
            [
              (x, Obs.Json.Int v);
              ("bits", Obs.Json.Int bits);
              (metric, Obs.Json.Float (ns /. 1e3));
              ("alloc_words", Obs.Json.Float words);
            ];
          Printf.printf "%14.1f" (ns /. 1e3))
        widths;
      Printf.printf "\n%!")
    xs

let fig5 _pool =
  section "Fig. 5: construction time (us) vs threshold t (n=1000)";
  width_grid ~section:"fig5" ~x:"t" ~metric:"construct_us"
    [ 10; 15; 20; 25; 30; 35; 40; 45; 50 ]
    (fun ~bits t ->
      let all = ids_b ~bits 1000 in
      fun () -> build_psum ~bits ~threshold:t all);
  Printf.printf "(expected shape: linear in t; wider b costs more per sum)\n"

let fig6 _pool =
  section "Fig. 6: decoding time (us) vs missing packets m (n=1000, t=20)";
  width_grid ~section:"fig6" ~x:"m" ~metric:"decode_us"
    [ 0; 2; 5; 8; 10; 12; 15; 18; 20 ]
    (fun ~bits m ->
      let diff, nm, cands, field =
        decode_problem ~bits ~threshold:20 ~n:1000
          ~missing_idx:(spread_missing 1000 m)
      in
      fun () ->
        Decoder.decode ~field ~diff_sums:diff ~num_missing:nm ~candidates:cands ());
  Printf.printf "(expected shape: linear in m; m=0 is near-free)\n"

(* ------------------------------------------------------------------ *)
(* §4.3: communication frequency for the three protocols              *)

let freq _pool =
  section "Sec 4.3: communication frequency selection";
  (* calibrate the per-(packet*sum) cost from this machine *)
  let all = ids 1000 in
  let ns_per_mult =
    measure_ns ~name:"calibrate" (fun () -> build_psum ~bits:32 ~threshold:20 all)
    /. (1000. *. 20.)
  in
  let l = Frequency.paper_link in
  Printf.printf
    "worked example: %.0f ms RTT, %.0f Mbit/s, %.1f%% loss, %d B MTU\n"
    (l.Frequency.rtt_s *. 1e3)
    (l.Frequency.rate_bps /. 1e6)
    (l.Frequency.loss *. 100.) l.Frequency.mtu_bytes;
  Printf.printf "  packets/RTT n = %d (paper: ~1000), threshold t = %d (paper: 20)\n"
    (Frequency.packets_per_rtt l) (Frequency.threshold_for l);
  let show name (p : Frequency.plan) =
    Printf.printf
      "  %-16s quACK every %6d pkts | t=%-3d | %3d B/quACK | %8.1f B/s overhead | %5.1f ns/pkt added\n"
      name p.Frequency.interval_packets p.Frequency.threshold
      p.Frequency.quack_bytes p.Frequency.overhead_bytes_per_s
      p.Frequency.amortized_ns_per_packet
  in
  show "cc-division" (Frequency.cc_division ~ns_per_mult l);
  show "ack-reduction" (Frequency.ack_reduction ~ns_per_mult ~every:32 ~threshold:20 ());
  show "retransmission" (Frequency.retransmission ~ns_per_mult l);
  Printf.printf "  ack-reduction vs strawman1 over 32 pkts: %d B vs %d B\n"
    (Frequency.ack_reduction ~every:32 ~threshold:20 ()).Frequency.quack_bytes
    (32 * 4)

(* ------------------------------------------------------------------ *)
(* Protocol-level experiments (beyond the paper's microbenchmarks)    *)

open Sidecar_protocols

let fct_str = function
  | Some f -> Printf.sprintf "%8.2f s" (Time.to_float_s f)
  | None -> "   (none)"

let flow_row name (r : Transport.Flow.result) =
  Printf.printf "  %-22s %s | %7.2f Mbit/s | retx %4d | cc-events %3d | acks %5d\n"
    name (fct_str r.Transport.Flow.fct) r.Transport.Flow.goodput_mbps
    r.Transport.Flow.retransmissions r.Transport.Flow.congestion_events
    r.Transport.Flow.acks_sent

let proto_cc _pool =
  section "Protocol: congestion-control division (sec 2.1)";
  let cfg = Cc_division.default_config in
  Printf.printf
    "path: 100 Mbit/s 28 ms clean + 20 Mbit/s 2 ms @1%% loss; 2000 units\n";
  flow_row "baseline e2e" (Cc_division.baseline cfg);
  (* a loss-insensitive e2e controller can nearly match the division on
     this path - the sidecar's value is precisely for the deployed
     loss-based stacks that hosts cannot unilaterally replace (and for
     the retransmission/ACK protocols a controller cannot address) *)
  let bbr_base =
    Path.baseline ~seed:cfg.Cc_division.seed ~units:cfg.Cc_division.units
      ~mss:cfg.Cc_division.mss
      ~cc:(fun ~mss () -> Transport.Bbr_lite.create ~mss ())
      [ cfg.Cc_division.near; cfg.Cc_division.far ]
  in
  flow_row "baseline e2e (bbr)" bbr_base;
  let rep = Cc_division.run cfg in
  flow_row "sidecar cc-division" rep.Cc_division.flow;
  Printf.printf
    "  sidecar overhead: %d quACKs (%d B); proxy buffer peak %d pkts\n"
    (rep.Cc_division.quacks_from_client + rep.Cc_division.quacks_from_proxy)
    rep.Cc_division.quack_bytes rep.Cc_division.proxy_buffer_peak;
  (* the plaintext upper bound: a traditional connection-splitting PEP *)
  let pep = Split_pep.run Split_pep.default_config in
  flow_row "split PEP (plaintext)" pep.Split_pep.client_flow;
  Printf.printf
    "  (split PEP reads/fabricates transport state - impossible for QUIC;\n\
    \   shown as the upper bound the sidecar approaches without it)\n"

let proto_ar _pool =
  section "Protocol: ACK reduction (sec 2.2)";
  let cfg = Ack_reduction.default_config in
  Printf.printf "path: 50 Mbit/s 5 ms + 50 Mbit/s 25 ms, lossless; 2000 units\n";
  let base, base_ack_bytes = Ack_reduction.baseline cfg in
  flow_row "baseline (ack every 2)" base;
  Printf.printf "    client ack bytes: %d\n" base_ack_bytes;
  let rep = Ack_reduction.run cfg in
  flow_row "sidecar ack-reduction" rep.Ack_reduction.flow;
  Printf.printf
    "    client acks %d (%d B) - %.1fx fewer; quACKs %d (%d B); freed early %d B\n"
    rep.Ack_reduction.client_acks rep.Ack_reduction.client_ack_bytes
    (float_of_int base.Transport.Flow.acks_sent
    /. float_of_int (max 1 rep.Ack_reduction.client_acks))
    rep.Ack_reduction.quacks rep.Ack_reduction.quack_bytes
    rep.Ack_reduction.window_freed_early_bytes

let proto_rx _pool =
  section "Protocol: in-network retransmission (sec 2.3)";
  let cfg = Retransmission.default_config in
  Printf.printf
    "path: 100M/20ms + 50M/1ms GE-lossy + 100M/9ms; reorder-tolerant endpoints\n";
  flow_row "baseline e2e" (Retransmission.baseline cfg);
  let rep = Retransmission.run cfg in
  flow_row "sidecar in-net retx" rep.Retransmission.flow;
  Printf.printf
    "    proxy retx %d; quACKs %d (%d B); freq updates %d (final every %d); subpath loss %.2f%%\n"
    rep.Retransmission.proxy_retransmissions rep.Retransmission.quacks
    rep.Retransmission.quack_bytes rep.Retransmission.freq_updates
    rep.Retransmission.final_quack_every
    (100. *. rep.Retransmission.subpath_loss_observed)

(* ------------------------------------------------------------------ *)
(* Figure-style sweeps: who wins as the path degrades                 *)

let sweep pool =
  section "Sweep: CC division - flow completion (s) vs far-segment loss";
  let cc_losses = [ 0.0; 0.002; 0.005; 0.01; 0.02; 0.05 ] in
  (* Every sweep point is an independent pair of simulations; fan the
     points over the pool and print in submission order. *)
  let cc_results =
    Exec.Pool.map pool
      ~f:(fun _ctx loss ->
        let cfg =
          {
            Cc_division.default_config with
            Cc_division.units = 1500;
            far =
              Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
                ~loss:(Path.Bernoulli loss) ();
          }
        in
        (Cc_division.baseline cfg, (Cc_division.run cfg).Cc_division.flow))
      cc_losses
  in
  Printf.printf "%-10s %12s %12s %12s\n" "loss" "baseline" "sidecar" "speedup";
  List.iter2
    (fun loss (b, sc) ->
      match (b.Transport.Flow.fct, sc.Transport.Flow.fct) with
      | Some bf, Some sf ->
          Printf.printf "%8.1f%% %12.2f %12.2f %11.1fx\n%!" (100. *. loss)
            (Time.to_float_s bf) (Time.to_float_s sf)
            (Time.to_float_s bf /. Time.to_float_s sf)
      | _ -> Printf.printf "%8.1f%% %12s %12s\n%!" (100. *. loss) "-" "-")
    cc_losses cc_results;
  Printf.printf "(expected: parity at zero loss, widening gap as loss grows)\n";

  section "Sweep: in-network retransmission - FCT (s) vs subpath loss";
  let rx_losses = [ 0.0; 0.005; 0.014; 0.03; 0.06 ] in
  let rx_results =
    Exec.Pool.map pool
      ~f:(fun _ctx avg ->
        let cfg =
          {
            Retransmission.default_config with
            Retransmission.units = 1500;
            middle =
              { Retransmission.default_config.Retransmission.middle with
                Path.loss = Path.bursty avg };
          }
        in
        (Retransmission.baseline cfg, (Retransmission.run cfg).Retransmission.flow))
      rx_losses
  in
  Printf.printf "%-10s %12s %12s %12s\n" "avg loss" "baseline" "sidecar" "e2e retx saved";
  List.iter2
    (fun avg (b, sc) ->
      match (b.Transport.Flow.fct, sc.Transport.Flow.fct) with
      | Some bf, Some sf ->
          Printf.printf "%8.1f%% %12.2f %12.2f %10d\n%!" (100. *. avg)
            (Time.to_float_s bf) (Time.to_float_s sf)
            (b.Transport.Flow.retransmissions - sc.Transport.Flow.retransmissions)
      | _ -> Printf.printf "%8.1f%% %12s %12s\n%!" (100. *. avg) "-" "-")
    rx_losses rx_results

(* ------------------------------------------------------------------ *)
(* Short web-like flows through the CC-division proxy                 *)

let short_flows pool =
  section "Workload: short web-like flows (lognormal sizes) through CC division";
  let rng = Netsim.Rng.create 17 in
  let sizes =
    Array.init 24 (fun _ ->
        (* clamp the heavy tail so the bench stays fast *)
        min 800 (Netsim.Workload.sample_size rng Netsim.Workload.web_flows))
  in
  let run_one kind seed units =
    let cfg =
      { Cc_division.default_config with Cc_division.units; seed; until = Time.s 120 }
    in
    let fct =
      match kind with
      | `Baseline -> (Cc_division.baseline cfg).Transport.Flow.fct
      | `Sidecar -> (Cc_division.run cfg).Cc_division.flow.Transport.Flow.fct
    in
    match fct with Some f -> Time.to_float_s f | None -> nan
  in
  (* 48 independent flows (seeds fixed by position, not schedule) *)
  let tasks =
    List.concat_map
      (fun kind ->
        List.init (Array.length sizes) (fun i -> (kind, 100 + i, sizes.(i))))
      [ `Baseline; `Sidecar ]
  in
  let fcts =
    Exec.Pool.map pool
      ~f:(fun _ctx (kind, seed, units) -> run_one kind seed units)
      tasks
  in
  let n = Array.length sizes in
  let all = Array.of_list fcts in
  let base = Array.sub all 0 n in
  let side = Array.sub all n n in
  Printf.printf "  %d flows, sizes %s units\n" (Array.length sizes)
    (Netsim.Workload.describe (Array.map float_of_int sizes));
  Printf.printf "  baseline FCT (s): %s\n" (Netsim.Workload.describe base);
  Printf.printf "  sidecar  FCT (s): %s\n" (Netsim.Workload.describe side);
  let wins = ref 0 in
  Array.iteri (fun i b -> if side.(i) < b then incr wins) base;
  Printf.printf "  sidecar faster on %d of %d flows\n" !wins (Array.length sizes)

(* ------------------------------------------------------------------ *)
(* Multi-flow runtime: one proxy, hundreds of flows, bounded table    *)

let runtime pool =
  let module Scenario = Sidecar_runtime.Scenario in
  let module Flow_table = Sidecar_runtime.Flow_table in
  let flows_cap = runtime_flows_cap in
  let run ?(protocol = `Cc) ~flows ~table () =
    let cfg =
      {
        Scenario.default_config with
        Scenario.protocol;
        flows;
        table_flows = table;
      }
    in
    (* In deterministic mode omit the cost clock: proxy_busy_s stays 0
       and the report is a pure function of the simulation. *)
    if deterministic then Scenario.run cfg
    else Scenario.run ~cost_clock:Unix.gettimeofday cfg
  in
  let us_per_pkt (r : Scenario.report) =
    (* busy time also covers quACK decode and ACK forwarding, so this
       is the all-in proxy cost amortised over tracked data packets *)
    let pkts = r.Scenario.proxy.Sidecar_runtime.Proxy.data_packets in
    if pkts = 0 then nan else r.Scenario.proxy_busy_s /. float_of_int pkts *. 1e6
  in
  let row (r : Scenario.report) =
    Printf.printf
      "  %4d/%4d done  p50 %6.3fs  p95 %6.3fs  p99 %6.3fs  peak %3d  evict %4d  resync %3d  %6.2f us/pkt\n"
      r.Scenario.completed
      (Array.length r.Scenario.flows)
      r.Scenario.fct_p50 r.Scenario.fct_p95 r.Scenario.fct_p99
      r.Scenario.peak_occupancy r.Scenario.evictions
      r.Scenario.proxy.Sidecar_runtime.Proxy.resyncs (us_per_pkt r)
  in
  let counts =
    List.sort_uniq compare
      (flows_cap :: List.filter (fun n -> n < flows_cap) [ 50; 100; 200 ])
  in
  (* Every sweep point (flow counts, table sizes, protocols) is an
     independent scenario: fan them all out at once, then print each
     sub-sweep in submission order from the merged results. *)
  let points =
    List.map (fun flows -> `Flows flows) counts
    @ List.map (fun table -> `Table table) [ 0; 4; 16; 64 ]
    @ List.map (fun (name, p) -> `Proto (name, p))
        [ ("cc", `Cc); ("ack", `Ack); ("retx", `Retx) ]
  in
  let reports =
    Exec.Pool.map pool
      ~f:(fun _ctx point ->
        let m0 = Gc.minor_words () in
        let r =
          match point with
          | `Flows flows -> run ~flows ~table:64 ()
          | `Table table -> run ~flows:flows_cap ~table ()
          | `Proto (_, protocol) -> run ~protocol ~flows:flows_cap ~table:24 ()
        in
        let m1 = Gc.minor_words () in
        (* whole-run allocation amortised over tracked data packets;
           zeroed in deterministic mode (per-domain lazy initialisers
           would make it depend on task-to-domain assignment) *)
        let pkts = r.Scenario.proxy.Sidecar_runtime.Proxy.data_packets in
        let alloc =
          if deterministic || pkts = 0 then 0.
          else (m1 -. m0) /. float_of_int pkts
        in
        (r, alloc))
      points
  in
  let grid = List.combine points reports in
  section "Runtime: tail FCT vs flow count (64-slot LRU table)";
  List.iter
    (fun flows ->
      let r, alloc = List.assoc (`Flows flows) grid in
      Printf.printf "  flows %4d:\n" flows;
      row r;
      Printf.printf "         alloc %8.1f words/pkt (whole run / tracked pkts)\n"
        alloc;
      add_row runtime_rows ~section:"runtime_flows"
        [
          ("flows", Obs.Json.Int flows);
          ("completed", Obs.Json.Int r.Scenario.completed);
          ("fct_p50_s", Obs.Json.Float r.Scenario.fct_p50);
          ("fct_p95_s", Obs.Json.Float r.Scenario.fct_p95);
          ("fct_p99_s", Obs.Json.Float r.Scenario.fct_p99);
          ("proxy_us_per_pkt", Obs.Json.Float (us_per_pkt r));
          ("alloc_words_per_pkt", Obs.Json.Float alloc);
        ])
    counts;
  section "Runtime: graceful degradation vs table size (fixed flow count)";
  Printf.printf
    "  table 0 is the pure end-to-end baseline; small tables evict\n\
    \  constantly yet every flow must still complete (losing the\n\
    \  enhancement, never the data)\n";
  List.iter
    (fun table ->
      let r, _ = List.assoc (`Table table) grid in
      Printf.printf "  table %4d:\n" table;
      row r;
      add_row runtime_rows ~section:"runtime_table"
        [
          ("table", Obs.Json.Int table);
          ("completed", Obs.Json.Int r.Scenario.completed);
          ("evictions", Obs.Json.Int r.Scenario.evictions);
          ("resyncs", Obs.Json.Int r.Scenario.proxy.Sidecar_runtime.Proxy.resyncs);
          ("fct_p50_s", Obs.Json.Float r.Scenario.fct_p50);
          ("fct_p95_s", Obs.Json.Float r.Scenario.fct_p95);
          ("fct_p99_s", Obs.Json.Float r.Scenario.fct_p99);
        ])
    [ 0; 4; 16; 64 ];
  section "Runtime: each sidecar protocol under bounded proxy state";
  Printf.printf
    "  the same flow-demultiplexing proxy runtime drives all three\n\
    \  protocols (cc = CC division, ack = ACK reduction, retx = the\n\
    \  bracketing retransmission pair over a bursty middle hop)\n";
  List.iter
    (fun (name, protocol) ->
      let r, _ = List.assoc (`Proto (name, protocol)) grid in
      Printf.printf "  %-5s:\n" name;
      row r;
      Printf.printf
        "         srv resync %3d  local retx %4d  quacks out %5d\n"
        r.Scenario.srv_resyncs r.Scenario.proxy_retransmissions
        ((match r.Scenario.proxy2 with
         | Some far -> far.Sidecar_runtime.Proxy.quacks_tx
         | None -> 0)
        + r.Scenario.proxy.Sidecar_runtime.Proxy.quacks_tx);
      add_row runtime_rows ~section:"runtime_protocol"
        [
          ("protocol", Obs.Json.String name);
          ("completed", Obs.Json.Int r.Scenario.completed);
          ("evictions", Obs.Json.Int r.Scenario.evictions);
          ("srv_resyncs", Obs.Json.Int r.Scenario.srv_resyncs);
          ("proxy_retransmissions", Obs.Json.Int r.Scenario.proxy_retransmissions);
          ("fct_p50_s", Obs.Json.Float r.Scenario.fct_p50);
          ("fct_p95_s", Obs.Json.Float r.Scenario.fct_p95);
          ("fct_p99_s", Obs.Json.Float r.Scenario.fct_p99);
        ])
    [ ("cc", `Cc); ("ack", `Ack); ("retx", `Retx) ];
  (* Wall-clock scaling of the engine itself: the same replication
     workload run sequentially and through the pool. Skipped in
     deterministic mode (wall-clock numbers are never reproducible)
     and pointless at jobs=1. Speedup depends on the machine's real
     core count — a single-core box reports ~1x no matter the pool
     size. *)
  if (not deterministic) && Exec.Pool.jobs pool > 1 then begin
    section "Runtime: parallel engine speedup (replications, jobs=1 vs pool)";
    let reps = 8 in
    let rep_flows = min 64 flows_cap in
    let mk_cfg seed =
      {
        Scenario.default_config with
        Scenario.flows = rep_flows;
        table_flows = 24;
        seed;
      }
    in
    let seeds = List.init reps (fun i -> Netsim.Rng.derive 0xB5EED ~index:i) in
    let t0 = Unix.gettimeofday () in
    List.iter (fun seed -> ignore (Scenario.run (mk_cfg seed))) seeds;
    let seq_wall = Unix.gettimeofday () -. t0 in
    let t0 = Unix.gettimeofday () in
    ignore
      (Exec.Pool.map pool
         ~f:(fun _ctx seed -> ignore (Scenario.run (mk_cfg seed)))
         seeds);
    let par_wall = Unix.gettimeofday () -. t0 in
    let speedup = seq_wall /. par_wall in
    Printf.printf
      "  %d replications of %d flows: sequential %.2f s, %d jobs %.2f s -> %.2fx\n"
      reps rep_flows seq_wall (Exec.Pool.jobs pool) par_wall speedup;
    add_row runtime_rows ~section:"runtime_parallel"
      [
        ("jobs", Obs.Json.Int (Exec.Pool.jobs pool));
        ("replications", Obs.Json.Int reps);
        ("flows_per_replication", Obs.Json.Int rep_flows);
        ("seq_wall_s", Obs.Json.Float seq_wall);
        ("par_wall_s", Obs.Json.Float par_wall);
        ("speedup", Obs.Json.Float speedup);
      ]
  end

(* ------------------------------------------------------------------ *)
(* Wire datapath: the boxed reference path vs the flat slab fastpath  *)

(* Time [Wd.drive] over [pkts]-packet windows and keep the fastest —
   on a shared machine the fastest window is the least-contended one,
   and both arms get the same protocol. Sampling continues past
   [reps] (to a hard cap) until the two fastest windows agree within
   3%, so one quiet window can never masquerade as the machine's
   speed. Returns (us/pkt, pkts/s, minor words/pkt, final stats); the
   wall-clock numbers are zero in deterministic mode. *)
let wd_measure ~reps ~pkts ~datapath cfg =
  let module Wd = Sidecar_runtime.Wire_datapath in
  let t = Wd.create ~datapath cfg in
  Wd.drive t ~packets:100_000 (* warm the pools, table and sketches *);
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Wd.drive t ~packets:pkts;
  let el0 = Unix.gettimeofday () -. t0 in
  let m1 = Gc.minor_words () in
  let best = ref el0 and second = ref infinity in
  let n = ref 1 in
  let converged () =
    !n >= reps && !second <= !best *. 1.03
  in
  while (not deterministic) && !n < 4 * reps && not (converged ()) do
    let t0 = Unix.gettimeofday () in
    Wd.drive t ~packets:pkts;
    let el = Unix.gettimeofday () -. t0 in
    if el < !best then begin
      second := !best;
      best := el
    end
    else if el < !second then second := el;
    incr n
  done;
  let alloc = (m1 -. m0) /. float_of_int pkts in
  let us, pps =
    if deterministic then (0., 0.)
    else (!best *. 1e6 /. float_of_int pkts, float_of_int pkts /. !best)
  in
  (us, pps, alloc, Wd.stats t)

(* The differential check runs separately from the timing runs: the
   adaptive sampler above may drive the two arms through different
   packet totals, and checksums only compare at equal totals. The
   fixed count also keeps the recorded checksums identical across
   deterministic and wall-clock modes. *)
let wd_checksum ~datapath cfg =
  let module Wd = Sidecar_runtime.Wire_datapath in
  let t = Wd.create ~datapath cfg in
  Wd.drive t ~packets:250_000;
  Wd.stats t

let runtime_datapath _pool =
  let module Wd = Sidecar_runtime.Wire_datapath in
  section "Runtime: wire datapath (boxed reference vs flat slab fastpath)";
  Printf.printf
    "  identical pre-sealed wires driven through both per-packet paths\n\
    \  (flow lookup, identifier extraction, sketch insert, quACK\n\
    \  snapshots); equal checksums are the differential evidence that\n\
    \  the zero-allocation path did exactly the reference's work\n";
  let reps = if deterministic then 1 else 9 in
  let pkts = if deterministic then 200_000 else 500_000 in
  List.iter
    (fun flows ->
      let cfg = { Wd.default_config with Wd.flows; table_flows = flows } in
      let r_us, r_pps, r_alloc, _ = wd_measure ~reps ~pkts ~datapath:`Ref cfg in
      let f_us, f_pps, f_alloc, _ = wd_measure ~reps ~pkts ~datapath:`Flat cfg in
      let r_st = wd_checksum ~datapath:`Ref cfg in
      let f_st = wd_checksum ~datapath:`Flat cfg in
      if r_st.Wd.checksum <> f_st.Wd.checksum then begin
        Printf.eprintf
          "bench: datapath checksums diverge at %d flows (ref %x, flat %x)\n"
          flows r_st.Wd.checksum f_st.Wd.checksum;
        exit 1
      end;
      let speedup = if f_us > 0. then r_us /. f_us else 0. in
      let print name us pps alloc (st : Wd.stats) =
        Printf.printf
          "  %-4s flows %3d: %8.1f kpkts/s  %6.3f us/pkt  alloc %6.1f w/pkt  quacks %6d\n"
          name flows (pps /. 1e3) us alloc st.Wd.quacks
      in
      print "ref" r_us r_pps r_alloc r_st;
      print "flat" f_us f_pps f_alloc f_st;
      if not deterministic then
        Printf.printf "       flat is %.1fx faster (checksums agree)\n" speedup;
      let mk name us pps alloc (st : Wd.stats) extra =
        add_row runtime_rows ~section:"runtime_datapath"
          ([
             ("flows", Obs.Json.Int flows);
             ("datapath", Obs.Json.String name);
             ("pkts_per_sec", Obs.Json.Float pps);
             ("proxy_us_per_pkt", Obs.Json.Float us);
             ("alloc_words_per_pkt", Obs.Json.Float alloc);
             ("quacks", Obs.Json.Int st.Wd.quacks);
             ("checksum", Obs.Json.Int st.Wd.checksum);
           ]
          @ extra)
      in
      mk "ref" r_us r_pps r_alloc r_st [];
      mk "flat" f_us f_pps f_alloc f_st
        [ ("speedup_vs_ref", Obs.Json.Float speedup) ])
    [ 50; 100; 200 ]

let runtime_field _pool =
  let module Wd = Sidecar_runtime.Wire_datapath in
  section "Runtime: sketch field backend (bits = 16, modular vs log tables)";
  Printf.printf
    "  the same flat datapath with the prime field's native multiply\n\
    \  vs the table-backed log/antilog multiply; identical checksums\n\
    \  because both compute the same residues\n";
  let reps = if deterministic then 1 else 9 in
  let pkts = if deterministic then 150_000 else 500_000 in
  let run field =
    let cfg =
      {
        Wd.default_config with
        Wd.flows = 50;
        table_flows = 50;
        bits = 16;
        field;
      }
    in
    let us, pps, _, _ = wd_measure ~reps ~pkts ~datapath:`Flat cfg in
    (us, pps, wd_checksum ~datapath:`Flat cfg)
  in
  let m_us, m_pps, m_st = run `Modular in
  let l_us, l_pps, l_st = run `Log in
  if m_st.Wd.checksum <> l_st.Wd.checksum then begin
    Printf.eprintf "bench: field checksums diverge (modular %x, log %x)\n"
      m_st.Wd.checksum l_st.Wd.checksum;
    exit 1
  end;
  List.iter
    (fun (name, us, pps, (st : Wd.stats)) ->
      Printf.printf "  %-8s %8.1f kpkts/s  %6.3f us/pkt\n" name (pps /. 1e3) us;
      add_row runtime_rows ~section:"runtime_field"
        [
          ("field", Obs.Json.String name);
          ("datapath", Obs.Json.String "flat");
          ("bits", Obs.Json.Int 16);
          ("pkts_per_sec", Obs.Json.Float pps);
          ("proxy_us_per_pkt", Obs.Json.Float us);
          ("checksum", Obs.Json.Int st.Wd.checksum);
        ])
    [ ("modular", m_us, m_pps, m_st); ("log", l_us, l_pps, l_st) ]

(* ------------------------------------------------------------------ *)
(* Sharded always-on runtime: shard-count invariance at scale         *)

(* Two scenarios, each run at shards = 1, 2 and 4:

   - "sustained": the default open-loop workload (idle eviction, flat
     datapath) holding >100k concurrent lognormal flows against a
     2048-slot table — admission control (denials) is the steady diet;
   - "churn": LRU against a table an order of magnitude under the
     offered concurrency, so nearly every packet admits-and-evicts —
     the eviction-churn stressor.

   The shards=1/2/4 rows of one scenario must agree on every
   simulation-derived column (the bench aborts on checksum divergence;
   benchcheck re-verifies the rows); only wall_s may differ, and on a
   single-CPU host it honestly reports ~1x. BENCH_SHARD_FLOWS scales
   the sustained flow count (arrivals and the churn scenario scale
   proportionally) so CI smoke stays fast. *)

(* ------------------------------------------------------------------ *)
(* Mobility + multipath scenario families (ROADMAP item 3)             *)

(* The handover family's three arms (stay on A / resync takeover /
   snapshot-transfer takeover) and the multipath family's two (1:1
   split with folded decode / everything on path 1), one row each in
   BENCH_HANDOVER.json. Every run is a pure function of its config, so
   the rows are byte-stable and benchcheck can assert the cross-arm
   relations (the transfer arm's continuity must cost fewer server
   resyncs than the resync arm's restart; the split arm aggregates
   both cells' bandwidth). *)

(* A family's arms fanned over the pool, each paired with its name;
   results come back in arm order whatever the pool width. *)
let run_arms pool run arms =
  List.combine (List.map fst arms)
    (Exec.Pool.map pool ~f:(fun _ctx (_, c) -> run c) arms)

let fct_fields ~p50 ~p95 ~p99 ~mean =
  [
    ("fct_p50_s", Obs.Json.Float p50);
    ("fct_p95_s", Obs.Json.Float p95);
    ("fct_p99_s", Obs.Json.Float p99);
    ("fct_mean_s", Obs.Json.Float mean);
  ]

let runtime_handover pool =
  let module H = Sidecar_runtime.Handover in
  let module M = Sidecar_runtime.Multipath in
  section "Runtime: handover + multipath scenario families";
  List.iter
    (fun (arm, (r : H.report)) ->
      Printf.printf
        "  handover %-8s: %d/%d done  fct p50 %.3fs mean %.3fs  migr %d  \
         resyncs %d  retx %d (spurious %d)\n"
        arm r.H.completed r.H.flows r.H.fct_p50 r.H.fct_mean r.H.migrations
        r.H.srv_resyncs r.H.retransmissions r.H.spurious_retx;
      add_row handover_rows ~section:"runtime_handover"
        ([
           ("scenario", Obs.Json.String "handover");
           ("arm", Obs.Json.String arm);
           ("strategy", Obs.Json.String (H.strategy_name r.H.strategy));
           ("migrated", Obs.Json.Bool r.H.migrated);
           ("flows", Obs.Json.Int r.H.flows);
           ("completed", Obs.Json.Int r.H.completed);
         ]
        @ fct_fields ~p50:r.H.fct_p50 ~p95:r.H.fct_p95 ~p99:r.H.fct_p99
            ~mean:r.H.fct_mean
        @ [
            ("migrations", Obs.Json.Int r.H.migrations);
            ("transfers", Obs.Json.Int r.H.transfers);
            ("transfer_bytes", Obs.Json.Int r.H.transfer_bytes);
            ("install_merges", Obs.Json.Int r.H.install_merges);
            ("srv_resyncs", Obs.Json.Int r.H.srv_resyncs);
            ("retransmissions", Obs.Json.Int r.H.retransmissions);
            ("timeouts", Obs.Json.Int r.H.timeouts);
            ("spurious_retx", Obs.Json.Int r.H.spurious_retx);
            ("delivered_bytes", Obs.Json.Int r.H.data_delivered_bytes);
          ]))
    (run_arms pool H.run (H.arms H.default_config));
  List.iter
    (fun (arm, (r : M.report)) ->
      Printf.printf
        "  multipath %-11s: %d/%d done  fct p50 %.3fs mean %.3fs  split \
         %d/%d  folds %d  resyncs %d\n"
        arm r.M.completed r.M.flows r.M.fct_p50 r.M.fct_mean r.M.path1_pkts
        r.M.path2_pkts r.M.folded_decodes r.M.srv_resyncs;
      add_row handover_rows ~section:"runtime_handover"
        ([
           ("scenario", Obs.Json.String "multipath");
           ("arm", Obs.Json.String arm);
           ("flows", Obs.Json.Int r.M.flows);
           ("completed", Obs.Json.Int r.M.completed);
         ]
        @ fct_fields ~p50:r.M.fct_p50 ~p95:r.M.fct_p95 ~p99:r.M.fct_p99
            ~mean:r.M.fct_mean
        @ [
            ("path1_pkts", Obs.Json.Int r.M.path1_pkts);
            ("path2_pkts", Obs.Json.Int r.M.path2_pkts);
            ("folded_decodes", Obs.Json.Int r.M.folded_decodes);
            ("srv_resyncs", Obs.Json.Int r.M.srv_resyncs);
            ("retransmissions", Obs.Json.Int r.M.retransmissions);
            ("timeouts", Obs.Json.Int r.M.timeouts);
            ("duplicates", Obs.Json.Int r.M.duplicates);
            ("delivered_bytes", Obs.Json.Int r.M.data_delivered_bytes);
          ]))
    (run_arms pool M.run (M.arms M.default_config))

(* ------------------------------------------------------------------ *)
(* Adversarial + leakage scenario families (ROADMAP item 4)            *)

(* The adversary family's four arms (unauthenticated at attack rates
   0, R/2 and R, plus the authenticated defence at R) and the leakage
   probe's two (unshaped / shaped quACK channel), one row each in
   BENCH_ADVERSARY.json, plus one HMAC sign/verify micro row. Every
   run is a pure function of its config, so the rows are byte-stable
   and benchcheck can assert the cross-arm relations: attack and
   damage counts monotone in the rate, the top-rate unauthenticated
   arm admits attacker quACKs, the authenticated arm admits exactly
   zero (while rejecting forgeries and dropping replays), and shaping
   buys observer accuracy down at a measurable byte cost. *)
let runtime_adversary pool =
  let module A = Sidecar_runtime.Adversary in
  let module L = Sidecar_runtime.Leakage in
  section "Runtime: adversary + leakage scenario families";
  let flows = adversary_flows in
  List.iter
    (fun (arm, (r : A.report)) ->
      Printf.printf
        "  adversary %-16s: %d/%d done  admitted %d  resyncs %d (attacker \
         %d)  rejected %d  replays dropped %d  malformed %d\n"
        arm r.A.completed r.A.flows r.A.attacker_admitted r.A.srv_resyncs
        r.A.attacker_resyncs r.A.auth_rejected r.A.replays_dropped
        r.A.malformed;
      add_row adversary_rows ~section:"runtime_adversary"
        ([
           ("scenario", Obs.Json.String "adversary");
           ("arm", Obs.Json.String arm);
           ("auth", Obs.Json.Bool r.A.auth);
           ("attack_rate", Obs.Json.Float r.A.attack_rate);
           ("flows", Obs.Json.Int r.A.flows);
           ("completed", Obs.Json.Int r.A.completed);
           ("wedged", Obs.Json.Int r.A.wedged);
         ]
        @ fct_fields ~p50:r.A.fct_p50 ~p95:r.A.fct_p95 ~p99:r.A.fct_p99
            ~mean:r.A.fct_mean
        @ [
            ("quacks_sealed", Obs.Json.Int r.A.quacks_sealed);
            ("auth_bytes_overhead", Obs.Json.Int r.A.auth_bytes_overhead);
            ( "attacks_spoofed",
              Obs.Json.Int r.A.attacks.Sidecar_protocols.Adversary.spoofs );
            ( "attacks_replayed",
              Obs.Json.Int r.A.attacks.Sidecar_protocols.Adversary.replays );
            ( "attacks_truncated",
              Obs.Json.Int r.A.attacks.Sidecar_protocols.Adversary.truncations
            );
            ( "attacks_bitflipped",
              Obs.Json.Int r.A.attacks.Sidecar_protocols.Adversary.bitflips );
            ("attacker_admitted", Obs.Json.Int r.A.attacker_admitted);
            ("attacker_resyncs", Obs.Json.Int r.A.attacker_resyncs);
            ("auth_rejected", Obs.Json.Int r.A.auth_rejected);
            ("replays_dropped", Obs.Json.Int r.A.replays_dropped);
            ("malformed", Obs.Json.Int r.A.malformed);
            ("srv_resyncs", Obs.Json.Int r.A.srv_resyncs);
            ("retransmissions", Obs.Json.Int r.A.retransmissions);
            ("timeouts", Obs.Json.Int r.A.timeouts);
            ("spurious_retx", Obs.Json.Int r.A.spurious_retx);
            ("delivered_bytes", Obs.Json.Int r.A.data_delivered_bytes);
          ]))
    (run_arms pool A.run
       (A.arms
          { A.default_config with A.flows; table_flows = flows; attack_rate = 0.2 }));
  List.iter
    (fun (arm, (r : L.report)) ->
      Printf.printf
        "  leakage %-9s: %d/%d done  observer accuracy %.2f  %d quACKs \
         (%d B, %d dummies)  fct p50 %.3fs\n"
        arm r.L.completed r.L.flows r.L.observer_accuracy r.L.quacks_on_wire
        r.L.quack_bytes_on_wire r.L.dummy_quacks r.L.fct_p50;
      add_row adversary_rows ~section:"runtime_adversary"
        ([
           ("scenario", Obs.Json.String "leakage");
           ("arm", Obs.Json.String arm);
           ("shaped", Obs.Json.Bool r.L.shaped);
           ("flows", Obs.Json.Int r.L.flows);
           ("completed", Obs.Json.Int r.L.completed);
         ]
        @ fct_fields ~p50:r.L.fct_p50 ~p95:r.L.fct_p95 ~p99:r.L.fct_p99
            ~mean:r.L.fct_mean
        @ [
            ("quacks_on_wire", Obs.Json.Int r.L.quacks_on_wire);
            ("quack_bytes_on_wire", Obs.Json.Int r.L.quack_bytes_on_wire);
            ("dummy_quacks", Obs.Json.Int r.L.dummy_quacks);
            ("replays_dropped", Obs.Json.Int r.L.replays_dropped);
            ("observer_accuracy", Obs.Json.Float r.L.observer_accuracy);
            ("srv_resyncs", Obs.Json.Int r.L.srv_resyncs);
            ("retransmissions", Obs.Json.Int r.L.retransmissions);
            ("timeouts", Obs.Json.Int r.L.timeouts);
          ]))
    (run_arms pool L.run
       (L.arms { L.default_config with L.flows; table_flows = flows }));
  (* The per-quACK price of the defence: one HMAC-SHA256 sign at the
     proxy, one verify at the server, 16 tag bytes on the wire. *)
  let mac_key = String.make 32 '\x0b' in
  let msg = String.make 147 'q' in
  let tag = Sidecar_hash.Hmac.mac_truncated ~key:mac_key msg in
  let sign_us, verify_us =
    if deterministic then (0.0, 0.0)
    else
      ( measure_ns ~name:"hmac-sign" (fun () ->
            Sidecar_hash.Hmac.mac_truncated ~key:mac_key msg)
        /. 1e3,
        measure_ns ~name:"hmac-verify" (fun () ->
            Sidecar_hash.Hmac.verify ~key:mac_key ~tag msg)
        /. 1e3 )
  in
  Printf.printf "  hmac: sign %.2f us, verify %.2f us, %d tag bytes\n" sign_us
    verify_us (String.length tag);
  add_row adversary_rows ~section:"runtime_adversary"
    [
      ("scenario", Obs.Json.String "hmac");
      ("arm", Obs.Json.String "micro");
      ("tag_bytes", Obs.Json.Int (String.length tag));
      ("sign_us", Obs.Json.Float sign_us);
      ("verify_us", Obs.Json.Float verify_us);
    ]

let runtime_shard _pool =
  let module Sr = Sidecar_runtime.Shard_runtime in
  section "Runtime: sharded always-on flow runtime (shards 1/2/4)";
  let base_flows = shard_flows in
  let scenarios : (string * Sr.config) list =
    [
      ( "sustained",
        {
          Sr.default_config with
          Sr.flows = base_flows;
          arrivals_per_epoch = max 1 (base_flows / 40);
        } );
      ( "churn",
        {
          Sr.default_config with
          Sr.flows = base_flows / 4;
          arrivals_per_epoch = max 1 (base_flows / 80);
          capacity = 1024;
          policy = Sr.Lru;
          quack_every = 8;
        } );
    ]
  in
  List.iter
    (fun (name, (cfg : Sr.config)) ->
      Printf.printf "  %s: %d flows, %d arrivals/epoch, %d slots over %d \
                     partitions, %s\n"
        name cfg.Sr.flows cfg.Sr.arrivals_per_epoch cfg.Sr.capacity
        cfg.Sr.partitions
        (Sr.policy_string cfg.Sr.policy);
      let runs =
        List.map
          (fun shards ->
            let t0 = Unix.gettimeofday () in
            let r = Sr.run { cfg with Sr.shards = shards } in
            let wall = if deterministic then 0. else Unix.gettimeofday () -. t0 in
            (shards, r, wall))
          [ 1; 2; 4 ]
      in
      let base =
        match runs with
        | (_, base, _) :: _ -> base
        | [] -> assert false (* runs is built from a non-empty literal *)
      in
      List.iter
        (fun (shards, (r : Sr.report), wall) ->
          if r.Sr.checksum <> base.Sr.checksum then begin
            Printf.eprintf
              "bench: %s checksum diverges at shards=%d (%x vs %x)\n" name
              shards r.Sr.checksum base.Sr.checksum;
            exit 1
          end;
          Printf.printf
            "    shards %d: %7d pkts/epoch avg  peak %6d concurrent  occ %4d  \
             evict %8.1f/epoch  denied %8d%s\n"
            shards
            (r.Sr.packets / max 1 r.Sr.epochs)
            r.Sr.peak_concurrent r.Sr.peak_occupancy
            r.Sr.eviction_churn_per_epoch r.Sr.denied
            (if deterministic then "" else Printf.sprintf "  wall %.2f s" wall);
          add_row shard_rows ~section:"runtime_shard"
            [
              ("scenario", Obs.Json.String name);
              ("policy", Obs.Json.String
                 (match r.Sr.policy with Sr.Lru -> "lru" | Sr.Idle_epochs _ -> "idle"));
              ("shards", Obs.Json.Int shards);
              ("partitions", Obs.Json.Int r.Sr.partitions);
              ("capacity", Obs.Json.Int r.Sr.capacity);
              ("flows", Obs.Json.Int r.Sr.flows);
              ("arrivals_per_epoch", Obs.Json.Int r.Sr.arrivals_per_epoch);
              ("epochs", Obs.Json.Int r.Sr.epochs);
              ("packets", Obs.Json.Int r.Sr.packets);
              ("peak_concurrent", Obs.Json.Int r.Sr.peak_concurrent);
              ("occupancy_peak", Obs.Json.Int r.Sr.peak_occupancy);
              ("admitted", Obs.Json.Int r.Sr.admitted);
              ("evicted", Obs.Json.Int r.Sr.evicted);
              ("denied", Obs.Json.Int r.Sr.denied);
              ("completed", Obs.Json.Int r.Sr.completed);
              ("quacks", Obs.Json.Int r.Sr.quacks);
              ("eviction_churn_per_epoch",
               Obs.Json.Float r.Sr.eviction_churn_per_epoch);
              ("checksum", Obs.Json.Int r.Sr.checksum);
              ("wall_s", Obs.Json.Float wall);
            ])
        runs;
      Printf.printf
        "    (columns above are shard-count-invariant by construction; \
         wall-clock is ~1x on one CPU)\n")
    scenarios

(* ------------------------------------------------------------------ *)
(* Ablations of design choices                                        *)

let ablation _pool =
  section "Ablation: decoder strategy (plug-in O(n*m) vs factoring, t-only)";
  let m = 20 in
  Printf.printf "%-10s %16s %16s\n" "n" "plug-in (us)" "factor (us)";
  List.iter
    (fun n ->
      let diff, nm, cands, field =
        decode_problem ~bits:32 ~threshold:20 ~n ~missing_idx:(spread_missing n m)
      in
      let plug =
        measure_ns ~quota:0.15 ~name:(Printf.sprintf "plug-%d" n) (fun () ->
            Decoder.decode ~strategy:`Plug_in ~field ~diff_sums:diff
              ~num_missing:nm ~candidates:cands ())
      in
      let fact =
        measure_ns ~quota:0.15 ~name:(Printf.sprintf "factor-%d" n) (fun () ->
            Decoder.decode ~strategy:`Factor ~field ~diff_sums:diff
              ~num_missing:nm ~candidates:cands ())
      in
      Printf.printf "%-10d %16.1f %16.1f\n%!" n (plug /. 1e3) (fact /. 1e3))
    [ 500; 1000; 4000; 16000 ];
  Printf.printf
    "(sec 4.3: for large n, the factoring decoder's cost depends only on t;\n\
    \ the candidate match after factoring is still O(n) but hash-cheap)\n";

  section "Ablation: wire size vs parameters";
  Printf.printf "%-8s %-8s %-8s %10s\n" "b" "t" "c" "bytes";
  List.iter
    (fun (bits, t, c) ->
      Printf.printf "%-8d %-8d %-8d %10d\n" bits t c
        (Wire.packed_size ~bits ~threshold:t ~count_bits:c))
    [ (32, 20, 16); (16, 20, 16); (24, 20, 16); (32, 10, 16); (32, 20, 0); (32, 50, 16) ];

  section "Ablation: in-network retransmission without adaptive frequency";
  let cfg = Retransmission.default_config in
  let adaptive = Retransmission.run cfg in
  let fixed = Retransmission.run { cfg with Retransmission.adaptive = false } in
  Printf.printf "  %-14s fct %s, quACK bytes %8d\n" "adaptive"
    (fct_str adaptive.Retransmission.flow.Transport.Flow.fct)
    adaptive.Retransmission.quack_bytes;
  Printf.printf "  %-14s fct %s, quACK bytes %8d\n" "fixed"
    (fct_str fixed.Retransmission.flow.Transport.Flow.fct)
    fixed.Retransmission.quack_bytes;

  section "Ablation: bufferbloat - CC division with drop-tail vs CoDel far queue";
  let base = Cc_division.default_config in
  let with_codel c = { base.Cc_division.far with Path.codel = c } in
  List.iter
    (fun (label, codel) ->
      let rep = Cc_division.run { base with Cc_division.far = with_codel codel } in
      Printf.printf "  %-12s fct %s, proxy buffer peak %5d pkts\n" label
        (fct_str rep.Cc_division.flow.Transport.Flow.fct)
        rep.Cc_division.proxy_buffer_peak)
    [ ("drop-tail", false); ("codel", true) ];
  Printf.printf
    "  (the PEP's deep buffering interacts with AQM at the bottleneck)\n";

  section "Ablation: CC division quACK interval";
  let base = Cc_division.default_config in
  List.iter
    (fun (label, interval) ->
      let rep = Cc_division.run { base with Cc_division.quack_interval = interval } in
      Printf.printf "  %-22s fct %s, sidecar bytes %8d\n" label
        (fct_str rep.Cc_division.flow.Transport.Flow.fct)
        rep.Cc_division.quack_bytes)
    [
      ("1/4 segment RTT (1ms)", Some (Time.ms 1));
      ("segment RTT (4ms)", None);
      ("4x segment RTT (16ms)", Some (Time.ms 16));
      ("e2e RTT (60ms)", Some (Time.ms 60));
    ]

(* ------------------------------------------------------------------ *)
(* Congestion-controller comparison on the simulated transport         *)

let cc_compare pool =
  section "Transport: congestion controllers vs loss rate (direct path)";
  Printf.printf "%-10s %14s %14s %14s %14s  (goodput, Mbit/s; 3000 units, 20 Mbit/s, 40 ms RTT)\n"
    "loss" "newreno" "cubic" "bbr-lite" "vegas";
  let losses = [ 0.0; 0.005; 0.01; 0.02; 0.05 ] in
  let results =
    Exec.Pool.map pool
      ~f:(fun _ctx loss ->
        let run cc =
          (Transport.Flow.direct ~units:3000
             ~loss:(Netsim.Loss.bernoulli loss)
             ?cc ())
            .Transport.Flow.goodput_mbps
        in
        let nr = run None in
        let cu = run (Some (fun ~mss () -> Transport.Cubic.create ~mss ())) in
        let bb = run (Some (fun ~mss () -> Transport.Bbr_lite.create ~mss ())) in
        let vg = run (Some (fun ~mss () -> Transport.Vegas.create ~mss ())) in
        (nr, cu, bb, vg))
      losses
  in
  List.iter2
    (fun loss (nr, cu, bb, vg) ->
      Printf.printf "%8.1f%% %14.2f %14.2f %14.2f %14.2f\n%!" (100. *. loss) nr
        cu bb vg)
    losses results

(* ------------------------------------------------------------------ *)
(* Fairness: two flows through one CC-division proxy                  *)

let fairness pool =
  section "Fairness: two flows sharing the far segment";
  let cfg = Fairness.default_config in
  let show label (r : Fairness.report) =
    Printf.printf "  %-12s jain %.3f, aggregate %6.2f Mbit/s" label
      r.Fairness.jain_index r.Fairness.total_goodput_mbps;
    Array.iteri
      (fun i f -> Printf.printf " | flow%d %5.2f" i f.Fairness.goodput_mbps)
      r.Fairness.flows;
    Printf.printf "\n"
  in
  (* Several independent trials: trial 0 keeps the stock seed (the
     headline numbers), later trials reseed from the task index via
     [ctx.seed] — derived from position, never execution order, so the
     trial set is identical for any job count. *)
  let trials = 4 in
  let reports =
    Exec.Pool.map pool ~seed:cfg.Fairness.seed
      ~f:(fun ctx trial ->
        let cfg =
          if trial = 0 then cfg else { cfg with Fairness.seed = ctx.Exec.seed }
        in
        (Fairness.baseline cfg, Fairness.run cfg))
      (List.init trials Fun.id)
  in
  List.iteri
    (fun trial (base, side) ->
      Printf.printf "  trial %d:\n" trial;
      show "baseline" base;
      show "sidecar" side)
    reports;
  let mean f =
    List.fold_left (fun acc r -> acc +. f r) 0. reports /. float_of_int trials
  in
  Printf.printf
    "  mean of %d trials: baseline jain %.3f, sidecar jain %.3f\n" trials
    (mean (fun (b, _) -> b.Fairness.jain_index))
    (mean (fun (_, s) -> s.Fairness.jain_index))

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper                                        *)

let extensions _pool =
  section "Extension: IBF quACK vs power sums (same decodable differences)";
  let n = 1000 and t = 20 and m = 20 in
  let all = ids n in
  let missing_idx = spread_missing n m in
  let cells = Ibf.capacity_hint ~differences:t in
  let ibf_construct =
    measure_ns ~name:"ibf-construct" (fun () ->
        let f = Ibf.create ~cells () in
        List.iter (Ibf.insert f) all;
        f)
  in
  let sent_f = Ibf.create ~cells () in
  let recv_f = Ibf.create ~cells () in
  List.iteri
    (fun i id ->
      Ibf.insert sent_f id;
      if not (List.mem i missing_idx) then Ibf.insert recv_f id)
    all;
  let ibf_decode =
    measure_ns ~name:"ibf-decode" (fun () ->
        Ibf.decode (Ibf.subtract ~sent:sent_f ~received:recv_f))
  in
  let ps_construct =
    measure_ns ~name:"ps-construct2" (fun () -> build_psum ~bits:32 ~threshold:t all)
  in
  let diff, nm, cands, field = decode_problem ~bits:32 ~threshold:t ~n ~missing_idx in
  let ps_decode =
    measure_ns ~name:"ps-decode2" (fun () ->
        Decoder.decode ~field ~diff_sums:diff ~num_missing:nm ~candidates:cands ())
  in
  Printf.printf "%-12s %16s %16s %12s %s\n" "" "construct (us)" "decode (us)"
    "size (bits)" "notes";
  Printf.printf "%-12s %16.1f %16.1f %12d %s\n" "power sums"
    (ps_construct /. 1e3) (ps_decode /. 1e3)
    ((32 * t) + 16) "t mults/packet; never fails below t";
  Printf.printf "%-12s %16.1f %16.1f %12d %s\n" "IBF"
    (ibf_construct /. 1e3) (ibf_decode /. 1e3)
    (Ibf.size_bits sent_f) "k=3 updates/packet; probabilistic";

  section "Extension: log-table field (the paper's 16-bit precomputation)";
  let all16 = ids_b ~bits:16 1000 in
  let modular =
    measure_ns ~name:"f16-modular" (fun () -> build_psum ~bits:16 ~threshold:20 all16)
  in
  let field16 = Sidecar_field.Log_field.make (module Sidecar_field.Primes.F16) in
  let tabled =
    measure_ns ~name:"f16-table" (fun () ->
        let s = Psum.create ~bits:16 ~field:field16 ~threshold:20 () in
        List.iter (Psum.insert s) all16;
        s)
  in
  Printf.printf
    "  16-bit construction, n=1000, t=20: modular (fold-reduced) %.1f us, \
     log-table %.1f us\n"
    (modular /. 1e3) (tabled /. 1e3);

  section "Extension: analytic recovery model vs the simulator (paper ref [1])";
  let e2e = { Analysis.loss = 0.; recovery_rtt = 0.060 } in
  let inn = { Analysis.loss = 0.; recovery_rtt = 0.004 } in
  Printf.printf
    "  model: recovering on the 4 ms subpath instead of the 60 ms path\n\
    \  cuts per-loss latency %.0fx; measured FCT gain at 1.4%% bursty loss: %.1fx\n"
    (Analysis.speedup ~loss:0.015 ~e2e ~in_network:inn)
    (let cfg = Retransmission.default_config in
     match
       ( (Retransmission.baseline cfg).Transport.Flow.fct,
         (Retransmission.run cfg).Retransmission.flow.Transport.Flow.fct )
     with
     | Some b, Some s -> Time.to_float_s b /. Time.to_float_s s
     | _ -> nan);
  Printf.printf
    "  (FCT mixes in congestion dynamics, so the model bounds, not equals, it)\n";

  section "Extension: authenticated quACK frames (HMAC-SHA256)";
  let s = build_psum ~bits:32 ~threshold:20 all in
  let q = Quack.of_psum s in
  let sign =
    measure_ns ~name:"auth-sign" (fun () -> Wire.encode_authed ~key:"k" q)
  in
  let blob = Wire.encode_authed ~key:"k" q in
  let verify =
    measure_ns ~name:"auth-verify" (fun () -> Wire.decode_authed ~key:"k" blob)
  in
  Printf.printf
    "  frame %d B (+%d B tag): sign %.1f us, verify %.1f us per quACK\n"
    (String.length blob) Wire.auth_overhead (sign /. 1e3) (verify /. 1e3)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table2", table2);
    ("table3", table3);
    ("fig5", fig5);
    ("fig6", fig6);
    ("freq", freq);
    ("proto_cc", proto_cc);
    ("proto_ar", proto_ar);
    ("proto_rx", proto_rx);
    ("cc_compare", cc_compare);
    ("fairness", fairness);
    ("sweep", sweep);
    ("short_flows", short_flows);
    ("runtime", runtime);
    ("runtime_datapath", runtime_datapath);
    ("runtime_field", runtime_field);
    ("runtime_shard", runtime_shard);
    ("runtime_handover", runtime_handover);
    ("runtime_adversary", runtime_adversary);
    ("ablation", ablation);
    ("extensions", extensions);
  ]

let jobs_value s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | Some _ | None ->
      Printf.eprintf "bench: invalid --jobs value %S (want a positive int)\n" s;
      exit 2

(* Strip [--jobs N] / [--jobs=N] out of the argument list; what
   remains are section names. *)
let rec parse_args acc jobs = function
  | [] -> (List.rev acc, jobs)
  | [ "--jobs" ] ->
      Printf.eprintf "bench: --jobs needs a value\n";
      exit 2
  | "--jobs" :: v :: rest -> parse_args acc (Some (jobs_value v)) rest
  | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
      let v = String.sub arg 7 (String.length arg - 7) in
      parse_args acc (Some (jobs_value v)) rest
  | arg :: rest -> parse_args (arg :: acc) jobs rest

(* Every name is checked before any section runs: rows are written
   only on a normal exit, so a bad name found late would discard the
   sections that ran before it. *)
let section_of name =
  match List.assoc_opt name sections with
  | Some f -> f
  | None ->
      Printf.eprintf "bench: unknown section %S (want one of: %s)\n" name
        (String.concat ", " (List.map fst sections));
      exit 2

let () =
  let names, jobs = parse_args [] None (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match names with [] -> List.map snd sections | ns -> List.map section_of ns
  in
  Exec.Pool.with_pool ?jobs (fun pool -> List.iter (fun f -> f pool) requested);
  write_rows "BENCH_QUACK.json" quack_rows;
  write_rows "BENCH_RUNTIME.json" runtime_rows;
  write_rows "BENCH_SHARD.json" shard_rows;
  write_rows "BENCH_HANDOVER.json" handover_rows;
  write_rows "BENCH_ADVERSARY.json" adversary_rows
