(** In-network retransmission (§2.3, Fig. 4).

    Two statically-configured proxies bracket a lossy subpath. The
    receiver-side proxy quACKs; the sender-side proxy buffers copies
    of forwarded packets and locally retransmits whatever the quACK
    decodes as missing — recovering losses in one {e subpath} RTT
    instead of one end-to-end RTT, without touching packet contents
    (retransmitted packets are byte-identical, so they keep their
    identifier). The sender-side proxy also adapts the quACK
    frequency to the observed loss ratio, targeting a constant number
    of missing packets per quACK (§4.3), and configures the
    receiver-side proxy with control frames. *)

type config = {
  units : int;
  mss : int;
  ingress : Path.segment;  (** server→proxy A *)
  middle : Path.segment;  (** proxy A→proxy B: the lossy subpath *)
  egress : Path.segment;  (** proxy B→client *)
  initial_quack_every : int;
  adaptive : bool;  (** adapt frequency to the measured loss ratio *)
  target_missing : int;  (** §4.3: aim for this many losses per quACK *)
  threshold : int;
  bits : int;
  buffer_pkts : int;  (** proxy A's copy buffer *)
  strikes_to_lose : int;  (** quACKs before a missing packet is resent *)
  reorder_tolerant_endpoints : bool;
      (** use RFC 9002's time threshold (not the 3-packet gap rule) at
          {e both} endpoints in the sidecar run {e and} the baseline —
          local refills necessarily reorder packets, and deployments
          of in-network retransmission assume RACK-style endpoints *)
  seed : int;
  until : Netsim.Sim_time.t;
}

val default_config : config
(** A 60 ms-RTT end-to-end path whose middle hop is a short (2 ms)
    bursty Gilbert–Elliott subpath — the Wi-Fi/satellite-hop picture
    of §2.3. *)

type report = {
  flow : Transport.Flow.result;
  proxy_retransmissions : int;
  quacks : int;
  quack_bytes : int;
  freq_updates : int;
  final_quack_every : int;
  buffer_peak : int;
  subpath_loss_observed : float;
}

val pp_report : Format.formatter -> report -> unit

val json_report : report -> Obs.Json.t
(** Schema-stable JSON mirror of {!report}. *)

val run : config -> report

val baseline : config -> Transport.Flow.result
(** Same path and endpoints, no sidecar: {!Chain.run} over two
    pass-through nodes. *)
