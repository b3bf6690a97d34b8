module Time = Netsim.Sim_time
module Rng = Netsim.Rng
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Fp = Sidecar_fastpath

(* ------------------------------------------------------------------ *)
(* Topology: partitions are the unit of ownership, shards the unit of
   execution. Every flow-table decision (admit / evict / deny) is made
   by a partition against its own capacity slice, and a partition's
   event stream depends only on (seed, partition contents) — never on
   which worker domain happens to run it. That is the whole invariance
   argument: changing [shards] regroups partitions over workers but
   changes no decision, so the merged report is byte-identical. *)

type policy = Lru | Idle_epochs of int

type config = {
  shards : int;
  partitions : int;
  capacity : int;  (* total table slots, split across partitions *)
  policy : policy;
  field : [ `Modular | `Log ];
  bits : int;
  threshold : int;
  flows : int;  (* total flows over the whole run *)
  arrivals_per_epoch : int;
  size_dist : Workload.size_dist;
  min_units : int;
  max_units : int;  (* one unit = one packet = one epoch of lifetime *)
  quack_every : int;
  max_epochs : int;  (* safety horizon *)
  seed : int;
}

(* The sustained scenario from ROADMAP item 2: ~6k lognormal flows
   arriving per epoch with a mean lifetime of a few dozen epochs gives
   a steady state well above 100k concurrent flows pressed against a
   2048-slot table — admission control (denials) and completion-driven
   slot turnover are the steady diet; switch to [Lru] for thrash-style
   eviction churn instead. *)
let default_config =
  {
    shards = 1;
    partitions = 16;
    capacity = 2048;
    policy = Idle_epochs 4;
    field = `Modular;
    bits = 32;
    threshold = 8;
    flows = 240_000;
    arrivals_per_epoch = 6_000;
    size_dist = Workload.web_flows;
    min_units = 4;
    max_units = 400;
    quack_every = 16;
    max_epochs = 4_000;
    seed = 1;
  }

let route ~partitions key =
  if partitions <= 0 then
    invalid_arg "Shard_runtime.route: partitions must be positive";
  if key < 0 then invalid_arg "Shard_runtime.route: negative flow key";
  (* SplitMix avalanche of the key so sequential flow ids spread
     evenly; [Rng.derive] is already position-only and non-negative. *)
  Rng.derive key ~index:0 mod partitions

let shard_of ~shards ~partitions key =
  if shards <= 0 then
    invalid_arg "Shard_runtime.shard_of: shards must be positive";
  route ~partitions key mod shards

(* Remainder rule: partition [p] of [P] gets [capacity / P], plus one
   of the [capacity mod P] leftover slots iff [p < capacity mod P] —
   the first partitions are the wider ones, deterministically. *)
let split_capacity ~capacity ~partitions =
  if partitions <= 0 then
    invalid_arg "Shard_runtime.split_capacity: partitions must be positive";
  if capacity < 0 then
    invalid_arg "Shard_runtime.split_capacity: negative capacity";
  let q = capacity / partitions and r = capacity mod partitions in
  Array.init partitions (fun p -> q + if p < r then 1 else 0)

let validate cfg =
  if cfg.shards < 1 then invalid_arg "Shard_runtime: shards must be >= 1";
  if cfg.partitions < cfg.shards then
    invalid_arg "Shard_runtime: every shard must own at least one partition";
  if cfg.capacity < 0 then invalid_arg "Shard_runtime: negative capacity";
  if cfg.flows < 1 then invalid_arg "Shard_runtime: need at least one flow";
  if cfg.arrivals_per_epoch < 1 then
    invalid_arg "Shard_runtime: arrivals per epoch must be >= 1";
  if cfg.min_units < 1 || cfg.max_units < cfg.min_units then
    invalid_arg "Shard_runtime: bad unit bounds";
  if cfg.quack_every < 1 then
    invalid_arg "Shard_runtime: quack interval must be positive";
  if cfg.max_epochs < 1 then invalid_arg "Shard_runtime: bad epoch horizon";
  (match cfg.policy with
  | Idle_epochs e when e < 1 ->
      invalid_arg "Shard_runtime: idle span must be >= 1 epoch"
  | _ -> ())

let mix_checksum cks v = (cks * 1099511628211) lxor v land max_int

(* ------------------------------------------------------------------ *)
(* Per-partition state.                                                *)

type tstats = {
  admitted : int;
  evicted_lru : int;
  evicted_idle : int;
  removed : int;
  denied : int;
  hits : int;
  misses : int;
}

(* Active flows of one partition: parallel growable arrays, iterated
   in arrival order with swap-remove on completion — a deterministic
   order that depends only on the partition's own history. *)
type fstate = {
  mutable ids : int array;
  mutable left : int array;
  mutable sent : int array;
  mutable keys : Q.Identifier.key array;
  mutable n : int;
}

let fstate_make () =
  {
    ids = Array.make 64 0;
    left = Array.make 64 0;
    sent = Array.make 64 0;
    keys = Array.make 64 (Q.Identifier.key_of_int 0);
    n = 0;
  }

let fstate_append fl ~id ~units ~key =
  let cap = Array.length fl.ids in
  if fl.n = cap then begin
    let cap' = 2 * cap in
    let grow a zero =
      let a' = Array.make cap' zero in
      Array.blit a 0 a' 0 cap;
      a'
    in
    fl.ids <- grow fl.ids 0;
    fl.left <- grow fl.left 0;
    fl.sent <- grow fl.sent 0;
    fl.keys <- grow fl.keys (Q.Identifier.key_of_int 0)
  end;
  fl.ids.(fl.n) <- id;
  fl.left.(fl.n) <- units;
  fl.sent.(fl.n) <- 0;
  fl.keys.(fl.n) <- key;
  fl.n <- fl.n + 1

(* One partition: its bounded table (flow key -> slab slot), its
   active flows, and the fold of every quACK it emitted. *)
type part = {
  pid : int;
  cap : int;
  fl : fstate;
  tbl : Fp.Flat_table.t;
  mutable cks : int;
}

let tstats_of tbl =
  let s = Fp.Flat_table.stats tbl in
  {
    admitted = s.Fp.Flat_table.admitted;
    evicted_lru = s.Fp.Flat_table.evicted_lru;
    evicted_idle = s.Fp.Flat_table.evicted_idle;
    removed = s.Fp.Flat_table.removed;
    denied = s.Fp.Flat_table.denied;
    hits = s.Fp.Flat_table.hits;
    misses = s.Fp.Flat_table.misses;
  }

(* ------------------------------------------------------------------ *)
(* Per-shard state: the worker-affine value an [Exec.Service] worker
   builds in its own domain and owns for the whole run.               *)

let columns =
  [
    "arrivals";
    "packets";
    "tracked";
    "degraded";
    "quacks";
    "completed";
    "admitted";
    "evicted";
    "denied";
    "active";
    "occupancy";
  ]

type shard = {
  cfg : config;
  sid : int;
  parts : part array;  (* owned partitions, ascending pid *)
  part_index : int array;  (* pid -> index in [parts], or -1 *)
  views : Fp.Psum_flat.t array;  (* slot -> sketch view of the slab *)
  acquire : unit -> int;  (* admission: a fresh slab slot *)
  scratch : int array;  (* one quACK's power sums, on emission *)
  series : Obs.Epochs.t;
  cols : int array;  (* column indices, in [columns] order *)
  prev : (int * int * int) array;  (* admitted/evicted/denied snapshots *)
}

(* One slab per shard, sized to the sum of its partitions' capacities:
   every table slot maps to one slab slot, and eviction or removal
   hands the slot back before the next admission takes one. *)
let make_shard cfg ~sid caps =
  let owned = ref [] in
  for p = cfg.partitions - 1 downto 0 do
    if p mod cfg.shards = sid then owned := p :: !owned
  done;
  let owned = Array.of_list !owned in
  let slots = max 1 (Array.fold_left (fun a pid -> a + caps.(pid)) 0 owned) in
  let field_mod =
    match cfg.field with
    | `Modular -> None
    | `Log ->
        Some
          (Sidecar_field.Log_field.make
             (Sidecar_field.Primes.field_for_bits cfg.bits))
  in
  let backend = match cfg.field with `Modular -> `Auto | `Log -> `Log in
  let slab =
    Fp.Slab.create ~bits:cfg.bits ?field:field_mod ~backend ~slots
      ~threshold:cfg.threshold ()
  in
  (* this worker domain is the slab's owner for the whole run *)
  Fp.Slab.bind_owner slab;
  let policy =
    match cfg.policy with
    | Lru -> Fp.Flat_table.Lru
    | Idle_epochs e -> Fp.Flat_table.Idle e
  in
  let release _flow slot = Fp.Slab.release slab slot in
  let parts =
    Array.map
      (fun pid ->
        {
          pid;
          cap = caps.(pid);
          fl = fstate_make ();
          tbl =
            Fp.Flat_table.create ~policy ~on_evict:release ~on_remove:release
              ~capacity:caps.(pid) ();
          cks = 0;
        })
      owned
  in
  let part_index = Array.make cfg.partitions (-1) in
  Array.iteri (fun i p -> part_index.(p.pid) <- i) parts;
  let series = Obs.Epochs.create ~columns in
  {
    cfg;
    sid;
    parts;
    part_index;
    views =
      Array.init (Fp.Slab.slots slab) (fun slot -> Fp.Psum_flat.of_slot slab ~slot);
    acquire = (fun () -> Fp.Slab.acquire slab);
    scratch = Array.make cfg.threshold 0;
    series;
    cols = Array.of_list (List.map (Obs.Epochs.col series) columns);
    prev = Array.map (fun _ -> (0, 0, 0)) parts;
  }

(* One data packet: admit-or-find [flow], insert the identifier of
   transmission [sent], and when [emit] fold a quACK snapshot into the
   partition checksum. Returns whether the flow was tracked for this
   packet. Allocates nothing. *)
let on_packet sh part ~now ~flow ~key ~sent ~emit =
  let slot = Fp.Flat_table.admit_slot part.tbl ~now flow sh.acquire in
  if slot < 0 then false
  else begin
    let view = Array.unsafe_get sh.views slot in
    Fp.Psum_flat.insert view (Q.Identifier.of_counter key ~bits:sh.cfg.bits sent);
    if emit then begin
      Fp.Psum_flat.sums_into view sh.scratch;
      let c = ref part.cks in
      for i = 0 to sh.cfg.threshold - 1 do
        c := mix_checksum !c (Array.unsafe_get sh.scratch i)
      done;
      part.cks <- mix_checksum !c (Fp.Psum_flat.count view)
    end;
    true
  end

(* One epoch of one shard: idle sweep, this epoch's arrivals routed to
   owned partitions, then one packet per active flow. Returns the
   shard's active-flow count so the coordinator knows when to stop. *)
let step sh ~epoch =
  let cfg = sh.cfg in
  let now = epoch + 1 in
  let c_arrivals = sh.cols.(0)
  and c_packets = sh.cols.(1)
  and c_tracked = sh.cols.(2)
  and c_degraded = sh.cols.(3)
  and c_quacks = sh.cols.(4)
  and c_completed = sh.cols.(5)
  and c_admitted = sh.cols.(6)
  and c_evicted = sh.cols.(7)
  and c_denied = sh.cols.(8)
  and c_active = sh.cols.(9)
  and c_occupancy = sh.cols.(10) in
  (match cfg.policy with
  | Lru -> ()
  | Idle_epochs _ ->
      Array.iter
        (fun part -> ignore (Fp.Flat_table.sweep_idle part.tbl ~now))
        sh.parts);
  (* arrivals: flow [f] arrives at epoch [f / arrivals_per_epoch];
     size and identifier key are pure functions of (seed, f), so the
     owning partition can generate them locally whatever [shards] is *)
  let lo = epoch * cfg.arrivals_per_epoch in
  let hi = min cfg.flows (lo + cfg.arrivals_per_epoch) in
  let arrivals = ref 0 in
  for f = max 0 lo to hi - 1 do
    let p = route ~partitions:cfg.partitions f in
    if p mod cfg.shards = sh.sid then begin
      let part = sh.parts.(sh.part_index.(p)) in
      let rng = Rng.create (Rng.derive cfg.seed ~index:f) in
      let u = Workload.sample_size rng cfg.size_dist in
      let units = max cfg.min_units (min cfg.max_units u) in
      let key =
        Q.Identifier.key_of_int (Rng.derive cfg.seed ~index:(cfg.flows + f))
      in
      fstate_append part.fl ~id:f ~units ~key;
      incr arrivals
    end
  done;
  let packets = ref 0
  and tracked = ref 0
  and degraded = ref 0
  and quacks = ref 0
  and completed = ref 0
  and active = ref 0
  and occupancy = ref 0 in
  Array.iter
    (fun part ->
      let fl = part.fl in
      let j = ref 0 in
      while !j < fl.n do
        let flow = fl.ids.(!j) in
        let sent = fl.sent.(!j) in
        let emit = (sent + 1) mod cfg.quack_every = 0 in
        let was_tracked =
          on_packet sh part ~now ~flow ~key:fl.keys.(!j) ~sent ~emit
        in
        fl.sent.(!j) <- sent + 1;
        incr packets;
        if was_tracked then begin
          incr tracked;
          if emit then incr quacks
        end
        else incr degraded;
        let left = fl.left.(!j) - 1 in
        fl.left.(!j) <- left;
        if left = 0 then begin
          incr completed;
          ignore (Fp.Flat_table.remove part.tbl flow);
          (* swap-remove; the swapped-in flow was not yet processed
             this epoch, so do not advance [j] *)
          let last = fl.n - 1 in
          fl.ids.(!j) <- fl.ids.(last);
          fl.left.(!j) <- fl.left.(last);
          fl.sent.(!j) <- fl.sent.(last);
          fl.keys.(!j) <- fl.keys.(last);
          fl.n <- last
        end
        else incr j
      done;
      active := !active + fl.n;
      occupancy := !occupancy + Fp.Flat_table.occupancy part.tbl)
    sh.parts;
  let note c v = Obs.Epochs.note sh.series ~epoch c v in
  note c_arrivals !arrivals;
  note c_packets !packets;
  note c_tracked !tracked;
  note c_degraded !degraded;
  note c_quacks !quacks;
  note c_completed !completed;
  Array.iteri
    (fun k part ->
      let s = Fp.Flat_table.stats part.tbl in
      let ev = s.Fp.Flat_table.evicted_lru + s.Fp.Flat_table.evicted_idle in
      let pa, pe, pd = sh.prev.(k) in
      note c_admitted (s.Fp.Flat_table.admitted - pa);
      note c_evicted (ev - pe);
      note c_denied (s.Fp.Flat_table.denied - pd);
      sh.prev.(k) <- (s.Fp.Flat_table.admitted, ev, s.Fp.Flat_table.denied))
    sh.parts;
  note c_active !active;
  note c_occupancy !occupancy;
  !active

(* ------------------------------------------------------------------ *)
(* Report.                                                             *)

type part_summary = {
  pid : int;
  part_capacity : int;
  part_stats : tstats;
  part_peak : int;
  part_checksum : int;
}

type report = {
  shards : int;
  partitions : int;
  capacity : int;
  policy : policy;
  field : [ `Modular | `Log ];
  bits : int;
  threshold : int;
  flows : int;
  arrivals_per_epoch : int;
  epochs : int;
  unfinished : int;
  packets : int;
  tracked : int;
  degraded : int;
  quacks : int;
  completed : int;
  admitted : int;
  evicted : int;
  denied : int;
  removed : int;
  hits : int;
  peak_concurrent : int;
  peak_occupancy : int;
  eviction_churn_per_epoch : float;
  checksum : int;
  per_partition : part_summary array;  (* ascending pid *)
  series : Obs.Epochs.t;
}

type shard_out = { out_parts : part_summary list; out_series : Obs.Epochs.t }

let summarize sh =
  {
    out_parts =
      Array.to_list
        (Array.map
           (fun (part : part) ->
             {
               pid = part.pid;
               part_capacity = part.cap;
               part_stats = tstats_of part.tbl;
               part_peak = Fp.Flat_table.peak_occupancy part.tbl;
               part_checksum = part.cks;
             })
           sh.parts);
    out_series = sh.series;
  }

let run cfg =
  validate cfg;
  let caps = split_capacity ~capacity:cfg.capacity ~partitions:cfg.partitions in
  let arrival_epochs =
    (cfg.flows + cfg.arrivals_per_epoch - 1) / cfg.arrivals_per_epoch
  in
  Exec.Service.with_service ~workers:cfg.shards
    ~init:(fun sid -> make_shard cfg ~sid caps)
    (fun svc ->
      let epoch = ref 0 in
      let active = ref 0 in
      let continue () =
        (!epoch < arrival_epochs || !active > 0) && !epoch < cfg.max_epochs
      in
      while continue () do
        let counts = Exec.Service.round svc ~f:(fun _ sh -> step sh ~epoch:!epoch) in
        active := List.fold_left ( + ) 0 counts;
        incr epoch
      done;
      let outs = Exec.Service.round svc ~f:(fun _ sh -> summarize sh) in
      (* merge: per-shard epoch series fold cell-wise (integer sums are
         order-independent); partition summaries sort by pid; the
         report checksum folds partition checksums in pid order — all
         three are invariant to how partitions were grouped over
         shards *)
      let series = Obs.Epochs.create ~columns in
      List.iter (fun o -> Obs.Epochs.merge ~into:series o.out_series) outs;
      let parts =
        List.sort
          (fun a b -> compare a.pid b.pid)
          (List.concat_map (fun o -> o.out_parts) outs)
      in
      let per_partition = Array.of_list parts in
      let checksum =
        Array.fold_left (fun a p -> mix_checksum a p.part_checksum) 0 per_partition
      in
      let total f = Array.fold_left (fun a p -> a + f p.part_stats) 0 per_partition in
      let tot name = List.assoc name (Obs.Epochs.totals series) in
      let epochs = Obs.Epochs.epochs series in
      let evicted = total (fun s -> s.evicted_lru + s.evicted_idle) in
      {
        shards = cfg.shards;
        partitions = cfg.partitions;
        capacity = cfg.capacity;
        policy = cfg.policy;
        field = cfg.field;
        bits = cfg.bits;
        threshold = cfg.threshold;
        flows = cfg.flows;
        arrivals_per_epoch = cfg.arrivals_per_epoch;
        epochs;
        unfinished = !active;
        packets = tot "packets";
        tracked = tot "tracked";
        degraded = tot "degraded";
        quacks = tot "quacks";
        completed = tot "completed";
        admitted = total (fun s -> s.admitted);
        evicted;
        denied = total (fun s -> s.denied);
        removed = total (fun s -> s.removed);
        hits = total (fun s -> s.hits);
        peak_concurrent = Obs.Epochs.peak series "active";
        peak_occupancy = Obs.Epochs.peak series "occupancy";
        eviction_churn_per_epoch =
          (if epochs = 0 then 0. else float_of_int evicted /. float_of_int epochs);
        checksum;
        per_partition;
        series;
      })

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let policy_string = function
  | Lru -> "lru"
  | Idle_epochs e -> Printf.sprintf "idle:%d" e

let json_tstats (s : tstats) =
  Obs.Json.Obj
    [
      ("admitted", Obs.Json.Int s.admitted);
      ("evicted_lru", Obs.Json.Int s.evicted_lru);
      ("evicted_idle", Obs.Json.Int s.evicted_idle);
      ("removed", Obs.Json.Int s.removed);
      ("denied", Obs.Json.Int s.denied);
      ("hits", Obs.Json.Int s.hits);
      ("misses", Obs.Json.Int s.misses);
    ]

(* [deterministic] output is the invariance artifact: it must be
   byte-identical for any [shards] (placement) and for either field
   backend (an implementation choice with an equivalence contract), so
   those echoes and anything wall-clock-derived are omitted. *)
let json_report ?(deterministic = false) r =
  let base =
    [
      ("schema", Obs.Json.String "sidecar-shard-1");
      ("partitions", Obs.Json.Int r.partitions);
      ("capacity", Obs.Json.Int r.capacity);
      ("policy", Obs.Json.String (policy_string r.policy));
      ("bits", Obs.Json.Int r.bits);
      ("threshold", Obs.Json.Int r.threshold);
      ("flows", Obs.Json.Int r.flows);
      ("arrivals_per_epoch", Obs.Json.Int r.arrivals_per_epoch);
      ("epochs", Obs.Json.Int r.epochs);
      ("unfinished", Obs.Json.Int r.unfinished);
      ("packets", Obs.Json.Int r.packets);
      ("tracked", Obs.Json.Int r.tracked);
      ("degraded", Obs.Json.Int r.degraded);
      ("quacks", Obs.Json.Int r.quacks);
      ("completed", Obs.Json.Int r.completed);
      ("admitted", Obs.Json.Int r.admitted);
      ("evicted", Obs.Json.Int r.evicted);
      ("denied", Obs.Json.Int r.denied);
      ("removed", Obs.Json.Int r.removed);
      ("hits", Obs.Json.Int r.hits);
      ("peak_concurrent", Obs.Json.Int r.peak_concurrent);
      ("peak_occupancy", Obs.Json.Int r.peak_occupancy);
      ("eviction_churn_per_epoch", Obs.Json.Float r.eviction_churn_per_epoch);
      ("checksum", Obs.Json.Int r.checksum);
      ( "per_partition",
        Obs.Json.List
          (Array.to_list
             (Array.map
                (fun p ->
                  Obs.Json.Obj
                    [
                      ("partition", Obs.Json.Int p.pid);
                      ("capacity", Obs.Json.Int p.part_capacity);
                      ("peak_occupancy", Obs.Json.Int p.part_peak);
                      ("checksum", Obs.Json.Int p.part_checksum);
                      ("table", json_tstats p.part_stats);
                    ])
                r.per_partition)) );
      ("per_epoch", Obs.Epochs.to_json r.series);
    ]
  in
  Obs.Json.Obj
    (if deterministic then base
     else
       ("shards", Obs.Json.Int r.shards)
       :: ( "field",
            Obs.Json.String
              (match r.field with `Modular -> "modular" | `Log -> "log") )
       :: base)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>sharded runtime: %d shard%s over %d partitions, %d-slot table (%s)@,\
     %d flows over %d epochs (%d arrivals/epoch): %d packets, peak %d \
     concurrent, peak occupancy %d@,\
     admission: %d admitted, %d denied, %d evicted (%.1f/epoch), %d released \
     clean@,\
     quacks: %d emitted from %d tracked packets (%d degraded); checksum %x%s@]"
    r.shards
    (if r.shards = 1 then "" else "s")
    r.partitions r.capacity (policy_string r.policy)
    r.flows r.epochs r.arrivals_per_epoch r.packets r.peak_concurrent
    r.peak_occupancy r.admitted r.denied r.evicted r.eviction_churn_per_epoch
    r.removed r.quacks r.tracked r.degraded r.checksum
    (if r.unfinished = 0 then ""
     else Printf.sprintf " (%d flows unfinished at horizon)" r.unfinished)
