(** Discrete-log table arithmetic for small prime fields — the
    "pre-computation optimizations" the paper uses for the 16-bit case
    (§4.2): with tables of [log_g] and [g^i] over a generator [g],
    multiplication becomes two lookups and an addition.

    Memory: two arrays of [p] ints — fine for p ≤ 2^16, prohibitive at
    2^32 (which is why the paper only does this at 16 bits). *)

val make : (module Modular.S) -> (module Modular.S)
(** [make (module F)] returns a field with the same modulus whose
    [mul], [inv], [div] and [pow] use precomputed log/antilog tables.
    @raise Invalid_argument when the modulus exceeds [2^20] (table
    memory) or is not prime-like (no generator found). *)
