(** Sender-side sidecar state: the full §3.3 machinery.

    The sender logs every transmission, mirrors the receiver's power
    sums, and on each received quACK classifies every outstanding
    packet as confirmed-received, suspect (missing but within the
    re-ordering grace), lost, indeterminate (identifier collision), or
    in flight (trailing suffix beyond what the quACK can cover).

    Implemented practical considerations:
    - {b threshold reset}: lost packets are removed from the log and
      power sums so they stop consuming threshold capacity;
    - {b re-ordered packets}: a packet must be reported missing by
      [strikes_to_lose] successive quACKs before it is declared lost;
    - {b in-flight packets}: when more than [t] packets are
      unaccounted for, the newest [m - t] log entries are treated as
      in transit — their power sums are subtracted from the difference
      and they are excluded from decoding;
    - {b exceeding the threshold}: surfaced as an error telling the
      caller to reset;
    - {b wrap-around counts} via [count_bits]-bit arithmetic;
    - {b dropped / re-ordered quACKs}: stale quACKs (receiver count
      behind what we already processed) are detected and skipped.

    Runtime code does not call {!on_quack} or {!resync_to} itself: it
    consumes quACKs through {!Quack_consumer}, which applies the §3.3
    "decode, else resync" rule in one place (sidelint's
    [quack-consumer] rule keeps it that way outside [lib/core]). *)

type config = {
  bits : int;  (** identifier width [b] *)
  threshold : int;  (** [t] *)
  count_bits : int;  (** [c] *)
  strikes_to_lose : int;
      (** quACKs that must report a packet missing before it is
          declared lost; 1 declares immediately (no re-ordering
          grace). *)
  strategy : Decoder.strategy;
  tail_in_flight : bool;
      (** treat a continuous suffix of missing packets as in transit
          rather than missing (§3.3). The right setting whenever
          quACKs race the newest transmissions (i.e. in any live
          deployment); turn off only in lock-step tests. *)
  field : (module Sidecar_field.Modular.S) option;
      (** substitute arithmetic of the same width (e.g.
          {!Sidecar_field.Log_field} tables); [None] uses the preset
          prime field for [bits]. Both ends of a segment must agree —
          the decoder runs in the sender's field. *)
}

val default_config : config
(** b = 32, t = 20, c = 16, strikes = 1, plug-in decoding, tail
    in-flight grace on — the paper's headline parameters. *)

type 'meta report = {
  acked : 'meta list;  (** confirmed received; pruned from the log *)
  lost : 'meta list;  (** declared lost; pruned from log and sums *)
  suspect : 'meta list;
      (** reported missing but still within the grace window *)
  indeterminate : 'meta list;
      (** identifier collision: some of these are missing, the sender
          cannot tell which (§3.2) *)
  in_flight : int;  (** trailing log entries treated as in transit *)
  unresolved : int;
      (** decoded roots matching no logged candidate: the receiver's
          sums hold identifiers this sender never logged (for example
          packets forwarded unlogged around a resync), so the missing
          set cannot be attributed. When non-zero the sender
          conservatively prunes nothing, and {!Quack_consumer} passes
          the report on as a [Decoded] with empty lists, i.e. "no
          news". A flow whose every decode comes back unresolved
          therefore never frees window; ROADMAP item 1 traces stranded
          flows to this policy, which lives in the consumer. *)
  stale : bool;  (** quACK was older than one already processed *)
}

val empty_report : 'meta report

type error =
  [ `Threshold_exceeded of int * int
    (** (m, t) even after in-flight truncation: reset required (§3.3) *)
  | `Config_mismatch of string ]

val pp_error : Format.formatter -> error -> unit

type 'meta t

val create : config -> 'meta t
val config : 'meta t -> config

val on_send : 'meta t -> id:int -> 'meta -> unit
(** Log one transmission (amortised power-sum update + append). *)

val on_quack : 'meta t -> Quack.t -> ('meta report, error) result

val declare_lost : 'meta t -> id:int -> 'meta option
(** Manually remove the oldest log entry with this identifier from log
    and sums (protocol-level override, e.g. after an RTO fires). *)

val sent : 'meta t -> int
(** Total logged transmissions (full precision, net of losses). *)

val outstanding : 'meta t -> int
(** Current log length. *)

val outstanding_ids : 'meta t -> int list
(** Oldest-first identifiers still in the log (for diagnostics). *)

val reset : 'meta t -> unit
(** Forget everything — the §3.3 response to threshold overflow. *)

val resync_to : 'meta t -> Quack.t -> 'meta list
(** Unilateral recovery from an unrecoverable decode failure: adopt
    the receiver's cumulative power sums as the sender's new baseline,
    abandon the whole log (returned so the protocol can treat those
    packets as lost), and continue. Sound because the receiver's sums
    are cumulative ground truth; the only cost is that an abandoned
    packet arriving {e after} the adopted quACK perturbs the next
    decode, which then triggers one more resync — the process
    converges once stragglers drain (documented trade-off; the paper's
    alternative is a full connection reset). The send-position space is
    log-relative, so resync also resets it ([next_pos] to 0,
    [max_acked_pos] to none) exactly as {!reset} does — post-takeover
    sends must never be judged against watermarks from the abandoned
    log.
    @raise Invalid_argument if the quACK's width, threshold, or field
    modulus differs from the sender's configuration (equal width does
    not imply the same prime, and adopting foreign-field sums would
    silently corrupt the sketch). *)
