(** Wire-level datapath driver: the measurement harness behind the
    [runtime_datapath] benchmark section.

    The scenario engine measures protocol behaviour; this module
    measures {e mechanism}. It drives pre-sealed wire images through
    exactly the per-packet work a sidecar does — look the flow up,
    extract the opaque identifier, fold it into the flow's power-sum
    sketch, periodically snapshot a quACK — over either datapath:

    - [`Ref]: the boxed reference path. Wires are [string]s; flow id
      and identifier come from {!Transport.Wire_image.conn_id_of_wire}
      and {!Transport.Wire_image.extract_id} (each rebuilds the wire
      as [Bytes] — the copying a string-typed API forces); per-flow
      state is a heap-allocated {!Sidecar_quack.Receiver_state} in a
      {!Flow_table}, and every quACK snapshot allocates.
    - [`Flat]: the fastpath. Wires stay [Bytes]; flow id and
      identifier are read in place ({!Sidecar_fastpath.Wire_path});
      per-flow sums are rows of one {!Sidecar_fastpath.Slab} behind
      a {!Sidecar_fastpath.Flat_table}, and snapshots land in a
      preallocated scratch vector — zero words allocated per packet.

    Both paths process identical wire bytes through identical
    admission/eviction decisions, and {!stats} folds every emitted
    quACK (sums and count) into a checksum — equal checksums are the
    differential evidence that the fast path did the same work. The
    driver never reads a clock or allocates between {!drive} calls on
    the flat path; callers time {!drive} and difference
    [Gc.minor_words] around it. *)

type config = {
  flows : int;  (** distinct connection ids in the packet pool *)
  table_flows : int;  (** table capacity; below [flows] forces churn *)
  bits : int;
  field : [ `Modular | `Log ];
      (** sketch arithmetic: the prime field's native multiply, or the
          table-backed log/antilog multiply (small [bits] only) —
          checksums agree either way *)
  threshold : int;
  quack_every : int;  (** snapshot a quACK per flow every [k] packets *)
  burst : int;  (** consecutive packets per flow per round-robin turn *)
  payload_bytes : int;  (** plaintext bytes per sealed packet *)
  pool_pkts : int;  (** pre-sealed wires per flow, replayed cyclically *)
  seed : int;
}

val default_config : config
(** 200 flows through a 64-slot LRU table, [bits = 24], modular
    arithmetic, [threshold = 8], a quACK every 16 packets, 16-packet
    bursts, 1460-byte payloads. *)

type stats = {
  packets : int;
  quacks : int;
  checksum : int;
      (** fold of every emitted quACK's sums and count — compare
          across datapaths *)
  admitted : int;
  evicted : int;
  denied : int;
  hits : int;
  misses : int;
}

type t

val create : datapath:[ `Ref | `Flat ] -> config -> t
(** Pre-seals the packet pool and sizes all state; nothing after this
    allocates on the flat path. @raise Invalid_argument on
    non-positive [flows], [quack_every], [burst] or [pool_pkts], or a
    negative [table_flows]. *)

val drive : t -> packets:int -> unit
(** Process [packets] wire images, round-robin across flows in bursts
    of [burst]. Callers wrap this in their own timer. *)

val stats : t -> stats
