(** ACK reduction (§2.2, Fig. 3).

    The proxy sidecar quACKs every [quack_every] data packets to the
    server — far more frequently than the client's end-to-end ACKs,
    which the client turns down via the ACK-frequency extension. The
    server provisionally advances its send window from proxy quACKs
    (packets known past the proxy) and falls back to the sparse
    end-to-end ACKs for retransmission decisions — including losses on
    the proxy→client hop, which quACKs cannot see.

    The proxy never reads or modifies connection packets and the
    client does not participate in the sidecar protocol at all. *)

type config = {
  units : int;
  mss : int;
  near : Path.segment;  (** server→proxy *)
  far : Path.segment;  (** proxy→client *)
  quack_every : int;  (** proxy quACKs every n data packets (§4.3: 32) *)
  client_ack_every : int;  (** reduced e2e ACK frequency (e.g. 32) *)
  warmup_units : int;
      (** keep immediate (every-2) ACKs until this many units have
          arrived — the ACK-frequency draft keeps start-up clocking
          dense and thins ACKs once the flow is established *)
  threshold : int;
  bits : int;
  omit_count : bool;  (** drop the count field; it is implicitly [n] *)
  seed : int;
  until : Netsim.Sim_time.t;
}

val default_config : config

type report = {
  flow : Transport.Flow.result;
  client_acks : int;  (** e2e ACK packets the client transmitted *)
  client_ack_bytes : int;
  quacks : int;
  quack_bytes : int;
  window_freed_early_bytes : int;
      (** bytes released from the window by quACKs before their e2e ACK *)
  spurious_retx : int;
      (** provisional-deadline retransmissions that were unnecessary *)
}

val pp_report : Format.formatter -> report -> unit

val json_report : report -> Obs.Json.t
(** Schema-stable JSON mirror of {!report}. *)

val run : config -> report
val baseline : config -> Transport.Flow.result * int
(** Same path, no sidecar, default ACK frequency (every 2): {!Chain.run}
    over a pass-through node. Returns the flow result and the client
    ACK-byte total, counted as {!run} counts [client_ack_bytes]: as the
    client sends them, before any return-link loss. *)
