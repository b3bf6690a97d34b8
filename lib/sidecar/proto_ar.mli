(** ACK reduction (§2.2) as a {!Protocol}: a pure near-proxy that
    observes each arriving data packet into a quACK receiver and, every
    [quack_every] arrivals, emits a cumulative quACK toward the server
    {e before} forwarding the data on. Stateless on the return path —
    the server's sidecar turns the quACKs into early window credit so
    the client can ACK arbitrarily rarely. *)

type config = {
  bits : int;
  threshold : int;
  count_bits : int option;  (** [None] = power-sum default *)
  quack_every : int;  (** steerable at runtime by [Freq_update] frames *)
  omit_count : bool;  (** model the count-omitting wire encoding *)
  field : (module Sidecar_field.Modular.S) option;
      (** substitute same-width sketch arithmetic ([None] = default) *)
}

val make : config -> Protocol.t
(** @raise Invalid_argument when [quack_every <= 0]. *)
