(** The many-flow runtime scenario: hundreds of short, heavy-tailed
    web flows from distinct servers through bounded {!Proxy} state,
    running any of the sidecar protocols.

    The proxy layer is protocol-agnostic: {!Proxy} demultiplexes flows
    into a bounded {!Flow_table} and each tracked flow runs one
    {!Sidecar_protocols.Protocol} instance —
    - [`Cc] — CC division ({!Sidecar_protocols.Proto_cc}): the proxy
      paces an AIMD window per flow over the far segment and quACKs
      upstream; server-side sidecars decode those quACKs into
      provisional acknowledgements ({!Transport.Sender.sidecar_ack},
      §2.2) and adapt the quACK interval from observed loss
      ({!Sidecar_quack.Frequency.adapt_interval}, §2.3); clients quACK
      the far segment back to the proxy.
    - [`Ack] — ACK reduction ({!Sidecar_protocols.Proto_ar}): the
      proxy only quACKs upstream, the same server sidecar turns them
      into provisional window space, and clients thin their end-to-end
      ACKs once past start-up ([warmup_units], [client_ack_every]).
    - [`Retx] — in-network retransmission
      ({!Sidecar_protocols.Proto_retx}): a {e pair} of proxies
      brackets the lossy [middle] segment; the near one keeps a copy
      buffer and locally resends what the far one's quACKs reveal as
      lost. Endpoints run plain (no server sidecar), with a high
      packet-reorder threshold.

    Each flow is an ordinary end-to-end transport connection (NewReno,
    e2e ACKs for reliability) in every mode: because no flow's
    {e correctness} depends on a proxy, the scenario directly exhibits
    graceful degradation — with [table_flows] below the flow count, or
    zero, evicted and denied flows still complete, only slower, and
    re-admitted flows resynchronise via §3.3 within one quACK.

    quACK parameters default to what {!Sidecar_quack.Planner} picks
    for the far segment. Everything is deterministic in [seed]: two
    runs with equal configs produce structurally equal reports. *)

type config = {
  protocol : [ `Cc | `Ack | `Retx ];
  flows : int;
  table_flows : int;  (** per-proxy flow-table ceiling; [0] = pure e2e *)
  policy : Flow_table.policy;
  near : Sidecar_protocols.Path.segment;  (** server-side haul *)
  middle : Sidecar_protocols.Path.segment;
      (** bracketed lossy subpath — only built for [`Retx] *)
  far : Sidecar_protocols.Path.segment;  (** lossy access segment *)
  mss : int;
  size_dist : Netsim.Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival_mean_s : float;  (** Poisson arrival mean gap *)
  client_quack_every : int;
      (** [`Cc] only: client quACK per this many data packets *)
  client_ack_every : int;  (** [`Ack] only: ACK thinning after warm-up *)
  warmup_units : int;  (** [`Ack] only: units delivered before thinning *)
  keepalive : Netsim.Sim_time.span;
      (** client re-quACK cadence while a [`Cc] flow is incomplete (the
          liveness backstop when the quACK that would reopen the proxy
          window is lost); in every mode, the poll that releases proxy
          slots on completion *)
  bits : int;
  threshold : int;
  count_bits : int;
  upstream_quack_every : int;  (** initial proxy quACK interval *)
  adaptive : bool;  (** adapt the quACK interval from observed loss *)
  target_missing : int;  (** adaptation target (§2.3) *)
  buffer_pkts : int;  (** pacing buffer ([`Cc]) / copy buffer ([`Retx]) *)
  field : [ `Modular | `Log ];
      (** sketch arithmetic at every sketch in the run ([`Log] =
          table-backed multiplication; requires small [bits], e.g. 16) *)
  seed : int;
  until : Netsim.Sim_time.t;
}

val default_config : config
(** [`Cc], 200 lognormal web flows (sizes clamped to [1, 2000] units),
    ~20 ms mean arrival gap, a 64-slot LRU table, and planner-chosen
    [bits]/[threshold]/[count_bits]/[client_quack_every] for the
    default far segment (20 Mbit/s, 2 ms, 1% loss). The default
    [middle] is a Gilbert-bursty 50 Mbit/s hop for [`Retx] runs. *)

type flow_report = {
  flow : int;
  units : int;
  started_at : Netsim.Sim_time.t;
  completed : bool;
  fct_s : float;  (** flow completion time, seconds; [nan] if incomplete *)
  transmissions : int;
  retransmissions : int;
  timeouts : int;
  duplicates : int;
}

type report = {
  flows : flow_report array;
  completed : int;
  fct_p50 : float;  (** seconds, over completed flows (P² estimates) *)
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;  (** observed by the last forward link's tap *)
  proxy : Proxy.stats;  (** the (near) proxy *)
  proxy2 : Proxy.stats option;  (** the far proxy of a [`Retx] pair *)
  table : Flow_table.stats;
  table2 : Flow_table.stats option;
  peak_occupancy : int;
  evictions : int;  (** near-proxy LRU + idle evictions (not releases) *)
  srv_resyncs : int;  (** §3.3 resyncs at server-side sidecars *)
  srv_replays_dropped : int;
      (** regressed-index quACKs byte-identical to a remembered
          emission: dropped by the server's {!Sidecar_quack.Replay_guard}
          instead of forcing a §3.3 resync *)
  freq_updates_sent : int;
      (** §2.3 interval updates sent — by servers ([`Cc]/[`Ack]) or by
          the near proxy ([`Retx]) *)
  proxy_retransmissions : int;  (** local resends by the [`Retx] pair *)
  proxy_busy_s : float;  (** wall-clock in the proxies, when measured *)
  sim_end : Netsim.Sim_time.t;
}

val run : ?cost_clock:(unit -> float) -> config -> report
(** Build the path ([near; far], or [near; middle; far] for [`Retx]),
    attach the proxy (or pair) at the junction(s), run every flow to
    completion (or [until]), and summarise. [cost_clock] is forwarded
    to {!Proxy.create} for per-packet cost measurement; omit it for
    bit-reproducible reports. *)

val pp_report : Format.formatter -> report -> unit

val json_report : report -> Obs.Json.t
(** Schema-stable JSON mirror of {!report} (per-flow rows summarised
    to a count; [`Retx]-only sections null otherwise). *)

val json_proxy_stats : Proxy.stats -> Obs.Json.t
val pp_proxy_stats : Format.formatter -> Proxy.stats -> unit
(** Shared renderings of one proxy's counter snapshot — the handover
    and multipath scenario families reuse them per sidecar. *)
