(** Congestion-control division (§2.1) as a {!Protocol}.

    The proxy observes arriving data into a quACK receiver, forwards
    it under its own AIMD pacing window ({!Proxy_window}) driven by
    downstream quACK feedback, and emits upstream quACKs toward the
    server either on a timer (with buffer-watermark backpressure) or
    every [n] packets. *)

(** How upstream quACKs are emitted. [Timer] withholds emission while
    the forwarding buffer sits above [high_watermark] packets —
    starving the server of feedback is the backpressure signal.
    [Every n] emits after every [n] arrivals (steerable at runtime by
    [Freq_update] frames). *)
type upstream =
  | Timer of { interval : Netsim.Sim_time.span; high_watermark : int }
  | Every of int

(** What happens when the pacing buffer exceeds [buffer_pkts]:
    [Drop] discards the arrival (it was never logged downstream, so
    decode stays sound); [Bypass] forwards the buffer head unpaced. *)
type overflow = Drop | Bypass

type config = {
  bits : int;
  threshold : int;
  count_bits : int option;  (** [None] = power-sum default *)
  wire : int;  (** on-the-wire packet size used for window accounting *)
  buffer_pkts : int;
  upstream : upstream;
  overflow : overflow;
  field : (module Sidecar_field.Modular.S) option;
      (** substitute same-width sketch arithmetic ([None] = default);
          applies to both the upstream receiver sketch and the
          downstream decode state, which must agree with the client *)
}

val make : config -> Protocol.t
(** @raise Invalid_argument when [wire <= 0], [buffer_pkts <= 0], or
    [Every n] with [n <= 0]. *)
