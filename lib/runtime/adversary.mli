(** The adversarial scenario family (ROADMAP item 4): one
    quACK-emitting sidecar at a junction, an on-path
    {!Sidecar_protocols.Adversary} between it and the server, and a
    server seam that either trusts quACK bytes (the pre-fix runtime)
    or verifies a detached HMAC tag and runs the
    {!Sidecar_quack.Replay_guard}.

    Two arms over the same seeded workload and attack schedule:

    - [auth = false] measures the {e damage}: forged/replayed/tampered
      quACKs walking into {!Sidecar_quack.Sender_state} — spurious
      resyncs, corrupted baselines, inflated FCTs, spurious
      retransmissions;
    - [auth = true] measures the {e defence}: every attacker-originated
      quACK dies at the tag check or the replay guard
      ([attacker_admitted] must be 0 — enforced by benchcheck), at the
      cost of [auth_bytes_overhead] tag bytes. *)

type config = {
  auth : bool;
      (** [true] = the server verifies tags and runs the replay guard;
          [false] = the pre-fix seams, to measure the damage *)
  attack_rate : float;  (** per-attack bernoulli rate (all four equal) *)
  flows : int;
  table_flows : int;
  near : Sidecar_protocols.Path.segment;  (** server -> junction *)
  far : Sidecar_protocols.Path.segment;  (** junction -> client *)
  mss : int;
  size_dist : Netsim.Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival : Netsim.Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  replay_delay : Netsim.Sim_time.span;
  seed : int;
  until : Netsim.Sim_time.t;
}

val default_config : config
(** Unauthenticated, attack rate 0.1, 40 web flows over a cellular far
    segment — the damage arm's baseline. *)

val arms : config -> (string * config) list
(** The family's compared arms over [base], in report order, with R =
    [base.attack_rate]: the unauthenticated damage curve at 0, R/2 and
    R ([unauth_rate0], [unauth_rate_half], [unauth]), then the
    authenticated defence at R ([auth]). *)

type report = {
  auth : bool;
  attack_rate : float;
  flows : int;
  completed : int;
  wedged : int;  (** flows still incomplete at the horizon *)
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy : Proxy.stats;
  quacks_sealed : int;  (** genuine emissions sealed at the proxy *)
  auth_bytes_overhead : int;  (** tag bytes added to those emissions *)
  attacks : Sidecar_protocols.Adversary.stats;
  attacker_admitted : int;
      (** quACKs whose sums were never emitted by the sidecar
          (fabricated or tampered contents) yet reached the sender
          state (fresh apply or adopted by a resync) — the headline
          integrity number; must be 0 under [auth]. Replays of genuine
          bytes the server never received are delivery delay, not an
          integrity violation, and are excluded. *)
  attacker_resyncs : int;
      (** §3.3 resyncs triggered by attacker-delivered packets
          (replayed genuine bytes included) *)
  auth_rejected : int;  (** sealed quACKs dropped by tag verification *)
  replays_dropped : int;  (** valid-tag replays dropped by the guard *)
  malformed : int;
      (** sealed quACKs whose wire bytes failed to decode, or decoded
          to sketch parameters other than the server's own *)
  srv_resyncs : int;
  retransmissions : int;
  timeouts : int;
  spurious_retx : int;  (** duplicate deliveries at clients *)
  sim_end : Netsim.Sim_time.t;
}

val run : config -> report
(** @raise Invalid_argument on non-positive flow count, bad unit
    bounds, or an attack rate outside [[0, 1]]. *)

val arm_name : report -> string
(** ["auth"] or ["unauth"]. *)

val json_report : report -> Obs.Json.t
(** Schema-stable, wall-clock free: byte-identical for identical
    configs whatever the pool width. *)

val pp_report : Format.formatter -> report -> unit
