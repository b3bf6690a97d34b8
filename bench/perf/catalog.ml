(* What the benchmark measures: its workloads and its metrics, by name.
   BENCHMARK.json at the repository root declares the same names, units
   and bounds for the harness that compares commits, and says why each
   workload exists; the smoke test in test/ fails when the two
   disagree. *)

let workloads = [ "quack_rounds"; "wire_ingest"; "sidecar_cc"; "sidecar_churn"; "sidecar_retx" ]

type better = Lower | Higher

let better_string = function Lower -> "lower" | Higher -> "higher"

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end only: allowed worsening, a share *)
  moves : (string * string list) list;
      (** per-layer only: the end-to-end metric it should move, and on
          which workloads *)
}

let e2e name unit better bound = { name; unit; better; bound = Some bound; moves = [] }
let layer name unit better moves = { name; unit; better; bound = None; moves }
let all = workloads
let sims = [ "sidecar_cc"; "sidecar_churn"; "sidecar_retx" ]

(* One measured run prints all of these, on every workload. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "pkts_per_s" "pkt/s" Higher 0.20;
    e2e "peak_heap_mb" "MB" Lower 0.10;
  ]

(* The traced run prints these. Each is defined on every workload: the
   proxy is whatever does the middlebox's receive-path work on that
   workload (Receiver_state.on_receive, Wire_datapath.drive, or the
   Proxy entry points), "outside" is the rest of the timed ops, and
   counts of a layer a workload does not have read 0. *)
let per_layer =
  [
    layer "proxy.ns_per_pkt" "ns" Lower [ ("pkts_per_s", all) ];
    layer "proxy.alloc_words_per_pkt" "words/pkt" Lower
      [ ("pkts_per_s", [ "quack_rounds"; "sidecar_cc"; "sidecar_retx" ]) ];
    layer "proxy.wall_share" "frac" Lower [ ("pkts_per_s", "quack_rounds" :: sims) ];
    layer "outside.alloc_words_per_pkt" "words/pkt" Lower
      [ ("peak_heap_mb", "quack_rounds" :: sims) ];
    layer "table.admitted_per_kpkt" "1/kpkt" Lower
      [ ("pkts_per_s", [ "sidecar_churn" ]) ];
    layer "table.evicted_per_kpkt" "1/kpkt" Lower
      [ ("pkts_per_s", [ "sidecar_churn" ]) ];
    layer "quack.untracked_rx_frac" "frac" Lower
      [ ("pkts_per_s", [ "sidecar_churn" ]) ];
    layer "quack.emitted_per_kpkt" "1/kpkt" Lower
      [ ("pkts_per_s", [ "wire_ingest"; "sidecar_cc"; "sidecar_retx" ]) ];
    layer "quack.resyncs_per_kpkt" "1/kpkt" Lower
      [ ("pkts_per_s", [ "sidecar_churn"; "sidecar_retx" ]) ];
    layer "netsim.events_per_pkt" "1/pkt" Lower [ ("pkts_per_s", sims) ];
    layer "netsim.drops_per_kpkt" "1/kpkt" Lower [ ("pkts_per_s", sims) ];
    layer "transport.retransmissions_per_kpkt" "1/kpkt" Lower
      [ ("pkts_per_s", sims) ];
    layer "transport.timeouts_per_kpkt" "1/kpkt" Lower [ ("pkts_per_s", sims) ];
    layer "gc.alloc_words_per_pkt" "words/pkt" Lower
      [ ("pkts_per_s", all); ("peak_heap_mb", all) ];
    layer "gc.promoted_words_per_pkt" "words/pkt" Lower
      [ ("pkts_per_s", "quack_rounds" :: sims); ("peak_heap_mb", sims) ];
    layer "gc.major_per_mpkt" "1/Mpkt" Lower
      [ ("pkts_per_s", "quack_rounds" :: sims); ("peak_heap_mb", sims) ];
    layer "trace.overhead_frac" "frac" Lower [ ("pkts_per_s", all) ];
  ]

(* Seed kept out of every run made while writing a change, for checking
   its claim afterwards. *)
let held_out_seed = 1001
