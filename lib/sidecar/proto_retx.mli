(** In-network retransmission (§2.3) as a bracketing {!Protocol}
    pair.

    The {!near} proxy (subpath sender side) logs each forwarded data
    packet into a quACK sender state, keeps a bounded byte-identical
    copy buffer, and on each decoded quACK drops confirmed copies,
    locally resends decoded losses (with a one-subpath-RTT holdoff),
    and — when [adaptive] — steers the far proxy's quACK interval with
    [Freq_update] frames. The {!far} proxy (subpath receiver side)
    observes arrivals and emits quACKs addressed to the near proxy
    every [interval] packets, plus a once-per-subpath-RTT time
    backstop. Both halves share one [config] so their sketches agree. *)

type config = {
  bits : int;
  threshold : int;
  strikes_to_lose : int;
  buffer_pkts : int;  (** copy-buffer bound at the near proxy *)
  initial_quack_every : int;
  adaptive : bool;  (** steer the far interval from observed loss *)
  target_missing : int;  (** §4.3 target missing packets per quACK *)
  subpath_rtt : Netsim.Sim_time.span;
      (** round trip between the two proxies; sets the resend holdoff
          and the far proxy's timer backstop *)
  near_addr : string;
  far_addr : string;
  field : (module Sidecar_field.Modular.S) option;
      (** substitute same-width sketch arithmetic at both halves *)
}

val near : config -> Protocol.t
(** @raise Invalid_argument on non-positive [buffer_pkts] /
    [initial_quack_every] or equal addresses. *)

val far : config -> Protocol.t
(** @raise Invalid_argument under the same conditions as {!near}. *)
