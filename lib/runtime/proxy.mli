(** A flow-demultiplexing sidecar proxy, parameterised by any
    {!Sidecar_protocols.Protocol}.

    The proxy sits at a path junction and owns nothing but the
    demultiplexing: a bounded {!Flow_table} mapping the plaintext
    [Packet.flow] tag to one protocol flow instance each, its
    admission accounting (metrics under ["proxy.<addr>"]; [Admit],
    [Deny], [Evict] and [Release] trace events labelled
    ["proxy.<addr>"] under the [Table] category), plus the shared
    timer loop. What a tracked flow {e does} — CC division's
    observe/buffer/pace ({!Sidecar_protocols.Proto_cc}), ACK
    reduction's pure quACKing ({!Sidecar_protocols.Proto_ar}), the
    retransmitter's copy buffer ({!Sidecar_protocols.Proto_retx}) — is
    entirely the protocol's business. Flows the table cannot or will
    not track are forwarded verbatim: degradation is losing the
    enhancement, never the data.

    Eviction and re-admission are safe by construction:
    - evicting a flow runs the protocol's [on_evict] (CC division
      flushes its buffer downstream unpaced; retransmission drops its
      copies — either way nothing is stranded, end-to-end ACKs keep
      reliability);
    - a re-admitted flow starts with fresh power sums, so the next
      {e cumulative} quACK decodes as an impossible missing count — the
      §3.3 unilateral-resync path
      ({!Sidecar_quack.Sender_state.resync_to}) adopts the peer's sums
      as the new baseline and the flow is tracked again within one
      quACK;
    - the upstream direction self-heals the same way: quACKs from a
      restarted receiver state look {e stale} to the far sidecar and
      are skipped until the counts catch up.

    All classification uses the plaintext [Packet.flow] tag and the
    [id] field only — the proxy never reads [seq] or [payload] of data
    packets (§2's threat model); sidecar frames
    ({!Sidecar_protocols.Sframes}) addressed to the protocol's [addr]
    are its own traffic and are consumed. *)

(** Counter snapshot: demultiplexer tallies plus the protocol's shared
    {!Sidecar_protocols.Protocol.counters}. *)
type stats = {
  data_packets : int;  (** data packets through a tracked flow *)
  degraded_packets : int;  (** data forwarded without state *)
  buffer_bypass : int;
      (** packets forced out unpaced by a full per-flow buffer *)
  quacks_rx : int;  (** feedback quACKs consumed *)
  degraded_quacks : int;  (** feedback quACKs for untracked flows *)
  quacks_tx : int;  (** quACKs emitted by tracked flows *)
  quack_bytes : int;  (** bytes of emitted quACKs *)
  freq_updates : int;  (** §2.3 interval updates applied *)
  resyncs : int;  (** §3.3 unilateral resyncs *)
  flushed_on_evict : int;  (** buffered packets flushed by eviction *)
}

type t

val create :
  Netsim.Engine.t ->
  capacity:int ->
  policy:Flow_table.policy ->
  protocol:Sidecar_protocols.Protocol.t ->
  forward:(Netsim.Packet.t -> unit) ->
  backward:(Netsim.Packet.t -> unit) ->
  ?cost_clock:(unit -> float) ->
  unit ->
  t
(** [capacity] is the flow-table ceiling ([0] = pure end-to-end).
    [forward] sends away from the feedback source (for a near proxy,
    toward the client), [backward] toward it. [cost_clock] is an
    optional wall-clock used only to accumulate {!busy_s} (per-packet
    proxy cost); it is injected by the benchmark harness and defaults
    to absent, keeping library output bit-reproducible. Protocol
    parameter validation happens in the protocol constructors
    ({!Sidecar_protocols.Proto_cc.make} etc.). *)

val on_ingress : t -> Netsim.Packet.t -> unit
(** Entry point for the upstream link: data packets are classified by
    [Packet.flow] and handed to the flow's [on_data] ({e tracked}) or
    forwarded verbatim ({e degraded}); [Freq_update] frames addressed
    to the protocol are consumed; other sidecar frames ride along. *)

val on_return : t -> Netsim.Packet.t -> unit
(** Entry point for the downstream link: quACK frames addressed to the
    protocol drive the flow's [on_feedback] (or count as degraded when
    the flow is untracked); everything else — end-to-end ACKs, quACKs
    for other nodes — is forwarded to [backward]. *)

val start : t -> until:Netsim.Sim_time.t -> unit
(** Schedule the protocol's timer, if it declares one: every period,
    [on_timer] runs for each tracked flow (most-recently-used first).
    A no-op for timerless protocols. *)

val flow_info : t -> int -> Sidecar_protocols.Protocol.info option
(** Side-effect-free snapshot of one tracked flow (does not touch LRU
    recency); [None] when untracked. *)

val release : t -> int -> bool
(** Voluntarily drop a completed flow's state; frees its table slot
    and records a [Release] trace event. Unlike an eviction, the
    protocol's eviction hook does {e not} run — the flow terminated
    cleanly, so there is no buffered state worth flushing into the
    network. [false] if untracked. *)

val sweep_idle : t -> int
(** Evict flows idle past the [Idle] policy span; count evicted. *)

val stats : t -> stats

val counters : t -> Sidecar_protocols.Protocol.counters
(** The live counter record shared by every flow of this proxy —
    useful to sum across a bracketing node {e pair} by passing one
    proxy's counters into protocol-specific reporting. *)

val busy_s : t -> float
(** Wall-clock seconds spent inside {!on_ingress}/{!on_return}, when a
    [cost_clock] was provided; [0.] otherwise. *)

val occupancy : t -> int
val peak_occupancy : t -> int
val table_stats : t -> Flow_table.stats
