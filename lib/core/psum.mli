(** The power-sum sketch at the heart of the quACK (§3.1–3.2).

    Both endpoints of a sidecar segment maintain one of these: [t]
    running power sums of every identifier inserted so far, modulo the
    largest prime expressible in [b] bits, plus an element count.
    Insertion costs [t] modular multiply-adds (the "≈100 ns per packet"
    amortised construction of §4); the sums are cumulative, which is
    what makes dropped quACKs harmless (§3.3). *)

type t

val create :
  ?bits:int -> ?field:(module Sidecar_field.Modular.S) -> threshold:int ->
  unit -> t
(** [create ~bits ~threshold ()] makes an empty sketch. [bits]
    (default 32) selects the identifier width and hence the prime
    modulus; [threshold] is [t], the maximum number of decodable
    missing packets. [field] substitutes a custom arithmetic of the
    same width (e.g. {!Sidecar_field.Log_field} tables — the paper's
    16-bit precomputation). @raise Invalid_argument when
    [threshold < 0], [bits] is unsupported, or the field width does
    not match [bits]. *)

val bits : t -> int
val threshold : t -> int
val modulus : t -> int

val count : t -> int
(** Number of inserted elements minus removed ones (full precision;
    wire encodings truncate to the configured count bits). *)

val insert : t -> int -> unit
(** [insert s id] folds one identifier in: [sums.(i) += id^(i+1)],
    [count += 1]. The identifier is reduced modulo the prime. *)

val remove : t -> int -> unit
(** Inverse of {!insert} — used by the sender when it declares a
    decoded-missing packet lost so it stops occupying threshold
    capacity in later quACKs ("resetting the threshold", §3.3). *)

val insert_list : t -> int list -> unit

val sums : t -> int array
(** A copy of the [t] power sums (index [i] holds exponent [i+1]). *)

val copy : t -> t
val reset : t -> unit

val set_state : t -> sums:int array -> count:int -> unit
(** Overwrite the sketch with an externally-supplied state — the
    sender-side resynchronisation escape hatch: after an unrecoverable
    decode failure the sender can adopt the receiver's cumulative sums
    as its new baseline (see {!Sender_state.resync_to}).
    @raise Invalid_argument on a length mismatch or out-of-field sum. *)

val merge : t -> t -> t
(** [merge a b] is a fresh sketch of the multiset union — the sums add
    and the counts add, because power sums are linear. This is what a
    multipath receiver does to combine per-path sidecar state into one
    connection-level quACK (one of the §5 open questions).
    @raise Invalid_argument on mismatched width, threshold, or
    modulus — equal [bits] does not imply the same prime, and sums
    from different fields must never be added. *)

val difference :
  ?received_modulus:int -> sent:t -> received_sums:int array -> unit -> int array
(** [difference ~sent ~received_sums ()] is the pointwise field
    subtraction (sender minus receiver) — power sums of the missing
    multiset. [received_modulus], when the wire format carries the
    receiver's field (it should), is checked against [sent]'s: bare
    sums from a different same-width prime would otherwise pass the
    range check and decode to garbage. @raise Invalid_argument on
    width/threshold/modulus mismatch (receiver sums may be shorter: a
    lower advertised threshold). *)

val field : t -> (module Sidecar_field.Modular.S)
(** The underlying prime field (for decoders). *)

val kernel : t -> Kernel.t
(** The field's loop kernels, shared with the sender's decode path. *)

val pp : Format.formatter -> t -> unit
