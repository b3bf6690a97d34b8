module Wire_image = Transport.Wire_image
module Q = Sidecar_quack
module Fp = Sidecar_fastpath

type config = {
  flows : int;
  table_flows : int;
  bits : int;
  field : [ `Modular | `Log ];
  threshold : int;
  quack_every : int;
  burst : int;
  payload_bytes : int;
  pool_pkts : int;
  seed : int;
}

let default_config =
  {
    flows = 200;
    table_flows = 64;
    bits = 24;
    field = `Modular;
    threshold = 8;
    quack_every = 16;
    burst = 16;
    payload_bytes = 1460;
    pool_pkts = 16;
    seed = 1;
  }

type stats = {
  packets : int;
  quacks : int;
  checksum : int;
  admitted : int;
  evicted : int;
  denied : int;
  hits : int;
  misses : int;
}

type t = {
  cfg : config;
  (* per-flow pools of identical wire bytes; [`Ref] reads the strings,
     [`Flat] the bytes, so both paths see the same packets *)
  mutable drive_burst : int -> int -> unit;
      (* flow index, count -> process its next [count] wires; hoists
         the per-flow pool row and pool cursor out of the packet loop *)
  mutable table_stats : unit -> int * int * int * int * int;
      (* admitted, evicted, denied, hits, misses *)
  next_in_pool : int array;
  mutable next_flow : int;
  mutable packets : int;
  mutable quacks : int;
  mutable checksum : int;
  mutable now : int;
}

let validate cfg =
  if cfg.flows <= 0 then invalid_arg "Wire_datapath: flows must be positive";
  if cfg.table_flows < 0 then
    invalid_arg "Wire_datapath: table capacity must be non-negative";
  if cfg.quack_every <= 0 then
    invalid_arg "Wire_datapath: quack interval must be positive";
  if cfg.burst <= 0 then invalid_arg "Wire_datapath: burst must be positive";
  if cfg.pool_pkts <= 0 then
    invalid_arg "Wire_datapath: packet pool must be positive"

(* One sealed pool per flow: distinct connection ids, distinct packet
   numbers, pseudo-random payloads — every identifier a sidecar will
   extract differs across the pool because the protected PN region
   does. *)
let seal_pools cfg =
  Array.init cfg.flows (fun f ->
      let key = Wire_image.key_gen ~seed:(cfg.seed + (f * 7919)) in
      let conn_id = Int64.of_int ((0x51DE lsl 32) lor (cfg.seed lxor f)) in
      Array.init cfg.pool_pkts (fun j ->
          let plaintext =
            String.init cfg.payload_bytes (fun k ->
                Char.chr ((f + (j * 131) + (k * 29)) land 0xff))
          in
          Wire_image.seal_bytes key ~conn_id ~packet_number:((f * 4099) + j)
            ~plaintext))

let mix_checksum cks v = (cks * 1099511628211) lxor v land max_int

type ref_entry = { st : Q.Receiver_state.t; mutable since : int }

let create ~datapath cfg =
  validate cfg;
  (* [`Log] swaps every sketch multiply for the table-backed field —
     same residues, same sums, so checksums still match [`Modular]. *)
  let field_mod =
    match cfg.field with
    | `Modular -> None
    | `Log ->
        Some
          (Sidecar_field.Log_field.make
             (Sidecar_field.Primes.field_for_bits cfg.bits))
  in
  let pools = seal_pools cfg in
  let t =
    {
      cfg;
      drive_burst = (fun _ _ -> ());
      table_stats = (fun () -> (0, 0, 0, 0, 0));
      next_in_pool = Array.make cfg.flows 0;
      next_flow = 0;
      packets = 0;
      quacks = 0;
      checksum = 0;
      now = 0;
    }
  in
  (match datapath with
  | `Ref ->
      (* String-typed baseline: every pool entry becomes the string a
         string-typed ingress hands the sidecar. *)
      let spools = Array.map (Array.map Bytes.to_string) pools in
      let tbl : ref_entry Flow_table.t =
        Flow_table.create ~policy:Flow_table.Lru ~capacity:cfg.table_flows ()
      in
      let fresh () =
        {
          st =
            Q.Receiver_state.create ~bits:cfg.bits ?field:field_mod
              ~threshold:cfg.threshold ();
          since = 0;
        }
      in
      let pool_pkts = cfg.pool_pkts and bits = cfg.bits in
      let quack_every = cfg.quack_every in
      let drive_burst f n =
        let pool = Array.unsafe_get spools f in
        let j = ref t.next_in_pool.(f) in
        for _ = 1 to n do
          let wire = Array.unsafe_get pool !j in
          (* compare-and-reset, not [mod]: division by a runtime value
             costs more than the rest of the pool bookkeeping *)
          incr j;
          if !j = pool_pkts then j := 0;
          t.now <- t.now + 1;
          let key =
            Int64.to_int (Wire_image.conn_id_of_wire wire) land max_int
          in
          let entry =
            match Flow_table.find tbl ~now:t.now key with
            | Some e -> Some e
            | None -> Flow_table.admit tbl ~now:t.now key fresh
          in
          match entry with
          | None -> ()
          | Some e ->
              let id = Wire_image.extract_id wire ~bits in
              ignore (Q.Receiver_state.on_receive e.st id);
              e.since <- e.since + 1;
              if e.since >= quack_every then begin
                e.since <- 0;
                let q = Q.Receiver_state.emit e.st in
                t.quacks <- t.quacks + 1;
                let cks = ref t.checksum in
                Array.iter (fun v -> cks := mix_checksum !cks v) q.Q.Quack.sums;
                t.checksum <- mix_checksum !cks (Q.Receiver_state.received e.st)
              end
        done;
        t.next_in_pool.(f) <- !j
      in
      t.drive_burst <- drive_burst;
      t.table_stats <-
        (fun () ->
          let s = Flow_table.stats tbl in
          ( s.Flow_table.admitted,
            s.Flow_table.evicted_lru + s.Flow_table.evicted_idle,
            s.Flow_table.denied,
            s.Flow_table.hits,
            s.Flow_table.misses ))
  | `Flat ->
      let slab =
        Fp.Slab.create ~bits:cfg.bits ?field:field_mod
          ~slots:(max 1 cfg.table_flows) ~threshold:cfg.threshold ()
      in
      let since = Array.make (Fp.Slab.slots slab) 0 in
      let scratch = Array.make cfg.threshold 0 in
      let tbl =
        Fp.Flat_table.create ~policy:Fp.Flat_table.Lru
          ~on_evict:(fun _key slot -> Fp.Slab.release slab slot)
          ~capacity:cfg.table_flows ()
      in
      let fresh () =
        let slot = Fp.Slab.acquire slab in
        since.(slot) <- 0;
        slot
      in
      let pool_pkts = cfg.pool_pkts and bits = cfg.bits in
      let quack_every = cfg.quack_every and threshold = cfg.threshold in
      let drive_burst f n =
        let pool = Array.unsafe_get pools f in
        let j = ref t.next_in_pool.(f) in
        for _ = 1 to n do
          let wire = Array.unsafe_get pool !j in
          (* compare-and-reset, not [mod]: see the reference arm *)
          incr j;
          if !j = pool_pkts then j := 0;
          t.now <- t.now + 1;
          let key = Fp.Wire_path.flow_key wire in
          let slot =
            let s = Fp.Flat_table.find_slot tbl ~now:t.now key in
            if s >= 0 then s
            else Fp.Flat_table.admit_slot tbl ~now:t.now key fresh
          in
          if slot >= 0 then begin
            let id = Fp.Wire_path.extract_id wire ~bits in
            Fp.Slab.insert slab slot id;
            since.(slot) <- since.(slot) + 1;
            if since.(slot) >= quack_every then begin
              since.(slot) <- 0;
              Fp.Slab.sums_into slab slot scratch;
              t.quacks <- t.quacks + 1;
              let cks = ref t.checksum in
              for i = 0 to threshold - 1 do
                cks := mix_checksum !cks (Array.unsafe_get scratch i)
              done;
              t.checksum <- mix_checksum !cks (Fp.Slab.count slab slot)
            end
          end
        done;
        t.next_in_pool.(f) <- !j
      in
      t.drive_burst <- drive_burst;
      t.table_stats <-
        (fun () ->
          let s = Fp.Flat_table.stats tbl in
          ( s.Fp.Flat_table.admitted,
            s.Fp.Flat_table.evicted_lru + s.Fp.Flat_table.evicted_idle,
            s.Fp.Flat_table.denied,
            s.Fp.Flat_table.hits,
            s.Fp.Flat_table.misses )));
  t

let drive t ~packets =
  let remaining = ref packets in
  while !remaining > 0 do
    let f = t.next_flow in
    t.next_flow <- (t.next_flow + 1) mod t.cfg.flows;
    let burst = min t.cfg.burst !remaining in
    t.drive_burst f burst;
    remaining := !remaining - burst
  done;
  t.packets <- t.packets + packets

let stats t =
  let admitted, evicted, denied, hits, misses = t.table_stats () in
  {
    packets = t.packets;
    quacks = t.quacks;
    checksum = t.checksum;
    admitted;
    evicted;
    denied;
    hits;
    misses;
  }
