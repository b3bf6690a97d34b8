(** Decoding a quACK against the sender's log of candidate packets
    (§3.1–3.2): from the power-sum differences and the number of
    missing packets [m], recover exactly which logged identifiers are
    missing.

    Two strategies (§4.2–4.3):

    - [`Plug_in] — build the degree-[m] missing-packet polynomial via
      Newton's identities and evaluate it at every candidate,
      deflating at each hit. O(n·m); the paper's choice for small [n].
    - [`Factor] — find the polynomial's roots directly over [F_p]
      (Cantor–Zassenhaus), then match roots back to candidates. Cost
      depends only on [m <= t], which §4.3 recommends for large [n]. *)

type strategy = [ `Plug_in | `Factor ]

type outcome = {
  missing : int list;
      (** identifiers decoded as missing, with multiplicity. [`Plug_in]
          preserves candidate order; [`Factor] returns them sorted by
          reduced value. *)
  unresolved : int;
      (** roots of the missing-packet polynomial matched by no
          candidate. Non-zero indicates candidate-list truncation, a
          wrapped count, or corruption. *)
}

type error =
  [ `Threshold_exceeded of int * int
    (** (m, t): more packets missing than the quACK can express; the
        paper requires a connection reset in this case (§3.3). *) ]

val pp_error : Format.formatter -> error -> unit

val decode :
  ?strategy:strategy ->
  field:(module Sidecar_field.Modular.S) ->
  diff_sums:int array ->
  num_missing:int ->
  candidates:int list ->
  unit ->
  (outcome, error) result
(** [decode ~field ~diff_sums ~num_missing ~candidates ()] solves the
    power-sum system. [diff_sums] is sender-minus-receiver (length
    [>= num_missing] or the call fails with [`Threshold_exceeded]);
    [candidates] are raw identifiers from the sender log (reduced into
    the field internally, returned unreduced). A wrapper over
    {!decode_ids} with a fresh workspace. *)

type workspace
(** Decode scratch for one field, sized for a threshold: the inverses
    of [1..t] Newton's identities divide by, precomputed once (§4.2),
    and the buffers the plug-in strategy works in. Reusing one across
    decodes keeps the plug-in strategy free of per-candidate
    allocation. Not safe to share between concurrent decodes. *)

val workspace :
  field:(module Sidecar_field.Modular.S) -> threshold:int -> workspace

val decode_ids :
  ?strategy:strategy ->
  workspace ->
  diff_sums:int array ->
  num_missing:int ->
  ids:int array ->
  len:int ->
  (outcome, error) result
(** {!decode} over the candidates [ids.(0 .. len-1)], in the
    workspace's field. A [num_missing] above the workspace's threshold
    decodes in a fresh workspace. @raise Invalid_argument when [len]
    is outside [ids]. *)

val decode_between :
  ?strategy:strategy ->
  ?count_bits:int ->
  sent:Psum.t ->
  quack:Quack.t ->
  candidates:int list ->
  unit ->
  (outcome, error) result
(** Convenience wrapper: compute [m] with count wrap-around and the
    sum differences from a sender sketch and a received quACK, then
    {!decode}. *)
