module Modular = Sidecar_field.Modular
module Primes = Sidecar_field.Primes
module Kernel = Sidecar_quack.Kernel
module Invariant = Sidecar_quack.Invariant

[@@@sidespec
  "slab-books: live slots plus free-list slots always partition the \
   arena — their counts sum to the slot capacity and no slot is on \
   the free list while marked live"]
[@@@sidespec
  "slab-clean-handoff: a released slot is scrubbed before it can be \
   re-acquired — its power sums and count are all zero when acquire \
   hands it out"]
[@@@sidespec
  "slab-owner: a slab bound to a shard's domain is only ever acquired \
   from or released on that domain — shards never share an arena, so \
   the packet path needs no locking"]
[@@@sidespec
  "flatpsum-in-field: every insert and every remove leaves all of the \
   slot's power sums inside [0, modulus)"]

type t = {
  slots : int;
  threshold : int;
  kernel : Kernel.t;
  rows : int array array;  (* slot -> its [threshold] power sums *)
  counts : int array;  (* per slot *)
  free : int array;  (* stack of free slot ids *)
  mutable nfree : int;
  live : Bytes.t;  (* '\001' = live *)
  mutable owner : int option;  (* Domain.id of the owning shard, if bound *)
}

let create ?(bits = 32) ?field ~slots ~threshold () =
  if slots <= 0 then invalid_arg "Slab.create: slots must be positive";
  if threshold < 0 then invalid_arg "Slab.create: negative threshold";
  let field =
    match field with Some f -> f | None -> Primes.field_for_bits bits
  in
  let module F = (val field) in
  if F.bits <> bits then invalid_arg "Slab.create: field width mismatch";
  {
    slots;
    threshold;
    kernel = Kernel.of_field field;
    rows = Array.init slots (fun _ -> Array.make threshold 0);
    counts = Array.make slots 0;
    (* top of stack = slot 0 so the first acquires hand out 0, 1, ... *)
    free = Array.init slots (fun i -> slots - 1 - i);
    nfree = slots;
    live = Bytes.make slots '\000';
    owner = None;
  }

let bind_owner t = t.owner <- Some (Domain.self () :> int)
let owner_id t = t.owner

let check_owner t what =
  Invariant.check ~name:("slab-owner: " ^ what) (fun () ->
      match t.owner with
      | None -> true
      | Some d -> d = (Domain.self () :> int))

let slots t = t.slots
let threshold t = t.threshold
let modulus t = Kernel.modulus t.kernel
let live t slot = Bytes.get t.live slot = '\001'
let live_count t = t.slots - t.nfree
let free_count t = t.nfree

let slot_is_clean t slot =
  t.counts.(slot) = 0 && Array.for_all (( = ) 0) t.rows.(slot)

let check_books t what =
  if Invariant.active () then begin
    Invariant.check ~name:("slab-books: " ^ what) (fun () ->
        let seen = Array.make t.slots false in
        let ok = ref (t.nfree >= 0 && t.nfree <= t.slots) in
        for i = 0 to t.nfree - 1 do
          let s = t.free.(i) in
          if s < 0 || s >= t.slots || seen.(s) || live t s then ok := false
          else seen.(s) <- true
        done;
        !ok && t.nfree + live_count t = t.slots);
    Invariant.check ~name:("slab-clean-handoff: " ^ what) (fun () ->
        let ok = ref true in
        for i = 0 to t.nfree - 1 do
          if not (slot_is_clean t t.free.(i)) then ok := false
        done;
        !ok)
  end

let acquire t =
  if Invariant.active () then check_owner t "acquire";
  if t.nfree = 0 then
    invalid_arg "Slab.acquire: no free slot (size the slab to the table)";
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  Bytes.set t.live slot '\001';
  check_books t "acquire";
  slot

let release t slot =
  if Invariant.active () then check_owner t "release";
  if slot < 0 || slot >= t.slots then
    invalid_arg "Slab.release: slot out of range";
  if not (live t slot) then invalid_arg "Slab.release: slot is not live";
  Array.fill t.rows.(slot) 0 t.threshold 0;
  t.counts.(slot) <- 0;
  Bytes.set t.live slot '\000';
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  check_books t "release"

let check_in_field t slot what =
  Invariant.check ~name:("flatpsum-in-field: Slab." ^ what) (fun () ->
      let p = Kernel.modulus t.kernel in
      Array.for_all (fun s -> s >= 0 && s < p) t.rows.(slot))

let insert t slot id =
  Kernel.add_powers t.kernel t.rows.(slot) t.threshold id;
  t.counts.(slot) <- t.counts.(slot) + 1;
  if Invariant.active () then check_in_field t slot "insert"

let remove t slot id =
  Kernel.sub_powers t.kernel t.rows.(slot) t.threshold id;
  t.counts.(slot) <- t.counts.(slot) - 1;
  if Invariant.active () then check_in_field t slot "remove"

let count t slot = t.counts.(slot)

let sums_into t slot dst =
  if Array.length dst < t.threshold then
    invalid_arg "Slab.sums_into: destination shorter than threshold";
  (* a loop, not [Array.blit]: the blit primitive does not know these
     are ints and goes through [caml_modify] for a major-heap [dst] *)
  let row = t.rows.(slot) in
  for i = 0 to t.threshold - 1 do
    Array.unsafe_set dst i (Array.unsafe_get row i)
  done

let sums t slot = Array.copy t.rows.(slot)
