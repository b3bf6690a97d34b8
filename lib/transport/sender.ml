module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Identifier = Sidecar_quack.Identifier
module Invariant = Sidecar_quack.Invariant

[@@@sidespec
  "sender-inflight-low: low <= next_seq, the span [low, next_seq) fits \
   the in-flight ring, every live slot of the whole ring holds a seq of \
   that span (the ring's live slots and the span's both number exactly \
   the in-flight count), and the in-flight entry with the least seq (the \
   one low advances to) has the minimum sent_at, which is what makes the \
   one-entry loss pre-check exact"]

type stats = {
  mutable transmissions : int;
  mutable retransmissions : int;
  mutable congestion_events : int;
  mutable timeouts : int;
  mutable acked_units : int;
}

type t = {
  engine : Engine.t;
  flow : int;
  mss : int;
  header : int;
  pkt_threshold : int;
  max_ack_delay : Time.span;
  external_cc : bool;
  cc : Cc.t;
  id_key : Identifier.key;
  on_transmit : Packet.t -> unit;
  total_units : int;
  egress : Packet.t -> unit;
  rtt : Rtt.t;
  (* In-flight packets: a ring of parallel columns over the span
     [low, next_seq), seq [s] in slot [s land (capacity - 1)]. Seqs
     enter in increasing order, each once, at non-decreasing [sent_at];
     the span always fits the ring, so each live slot holds one seq. *)
  mutable state : Bytes.t;  (* per slot: [free], [fresh] or [retx] *)
  mutable offsets : int array;
  mutable sent_at : Time.t array;
  mutable in_flight : int;
  mutable order_buckets : int;  (* see [retx_order] *)
  unit_acked : Bytes.t;
  stats : stats;
  mutable started : bool;
  mutable available : int;  (* units eligible for first transmission *)
  mutable next_offset : int;
  mutable next_seq : int;
  mutable low : int;
      (* oldest-in-flight watermark: no seq below it is in flight.
         Advanced lazily by [advance_low], so it may still name a seq
         that has since left the ring. *)
  mutable largest_acked : int;
  mutable recovery_until : int;  (* seqs below this do not trigger a new event *)
  mutable retx_queue : int list;  (* offsets to resend, oldest first *)
  mutable retx_queue_back : int list;
  mutable pto_count : int;
  mutable timer_gen : int;
  mutable acked_units : int;
  (* Provisionally-acked packets: confirmed past a proxy by a sidecar
     quACK, removed from the window, but the unit is not yet known
     delivered end-to-end. If no e2e ACK covers the unit before the
     deadline, it is retransmitted (§2.2's fallback). *)
  provisional : (int, int * Time.t) Hashtbl.t;  (* seq -> (offset, deadline) *)
}

(* Ring slot states. *)
let free = '\000'
let fresh = '\001'
let retx = '\002'

(* Senders keep about two dozen packets in flight; the ring doubles
   when the span outgrows it. *)
let initial_capacity = 32

let create engine ?(mss = 1460) ?(header = 40) ?(pkt_threshold = 3)
    ?(max_ack_delay = Time.ms 25) ?(external_cc = false) ?cc
    ?(id_key = Identifier.key_of_int 0xDA7A) ?(on_transmit = fun _ -> ())
    ?initially_available ?(flow = 0) ~total_units ~egress () =
  if total_units < 1 then invalid_arg "Sender.create: total_units must be >= 1";
  let cc = match cc with Some c -> c | None -> Newreno.create ~mss:(mss + header) () in
  {
    engine;
    flow;
    mss;
    header;
    pkt_threshold;
    max_ack_delay;
    external_cc;
    cc;
    id_key;
    on_transmit;
    total_units;
    egress;
    rtt = Rtt.create ();
    state = Bytes.make initial_capacity free;
    offsets = Array.make initial_capacity 0;
    sent_at = Array.make initial_capacity Time.zero;
    in_flight = 0;
    order_buckets = 1024;
    unit_acked = Bytes.make total_units '\000';
    stats =
      {
        transmissions = 0;
        retransmissions = 0;
        congestion_events = 0;
        timeouts = 0;
        acked_units = 0;
      };
    started = false;
    available = Option.value initially_available ~default:total_units;
    next_offset = 0;
    next_seq = 0;
    low = 0;
    largest_acked = -1;
    recovery_until = 0;
    retx_queue = [];
    retx_queue_back = [];
    pto_count = 0;
    timer_gen = 0;
    acked_units = 0;
    provisional = Hashtbl.create 64;
  }

let wire_size t = t.mss + t.header
let cwnd t = max (t.cc.Cc.cwnd ()) (Cc.min_window ~mss:(wire_size t))
let bytes_in_flight t = t.in_flight * wire_size t
let stats t = t.stats
let srtt t = Rtt.srtt t.rtt
let mss t = t.mss
let total_units t = t.total_units

let all_acked t =
  t.stats.acked_units = t.total_units

let retx_pop t =
  match t.retx_queue with
  | x :: rest ->
      t.retx_queue <- rest;
      Some x
  | [] -> (
      match List.rev t.retx_queue_back with
      | [] -> None
      | x :: rest ->
          t.retx_queue <- rest;
          t.retx_queue_back <- [];
          Some x)

let retx_push t offset = t.retx_queue_back <- offset :: t.retx_queue_back

let retx_pending t = t.retx_queue <> [] || t.retx_queue_back <> []

let slot t seq = seq land (Bytes.length t.state - 1)

let is_in_flight t seq =
  seq >= t.low && seq < t.next_seq && Bytes.get t.state (slot t seq) <> free

let remove t seq =
  Bytes.set t.state (slot t seq) free;
  t.in_flight <- t.in_flight - 1

(* Move [low] up to the oldest seq still in flight, or to [next_seq]
   when nothing is. Amortised O(1): [low] only rises and never passes
   [next_seq]. *)
let advance_low t =
  while t.low < t.next_seq && Bytes.get t.state (slot t t.low) = free do
    t.low <- t.low + 1
  done

(* Make room for seq [next_seq] to join the span: when the span fills
   the ring, advance [low], and if the ring is still full double it,
   re-indexing [low, next_seq). One doubling suffices, as the span
   grows by one seq per call. This must run before [next_seq] is
   bumped: [advance_low] stops at [next_seq], and a bumped [next_seq]
   would let it step past the new seq before that seq is live. *)
let make_room t =
  let cap = Bytes.length t.state in
  if t.next_seq - t.low >= cap then advance_low t;
  if t.next_seq - t.low >= cap then begin
    let state = Bytes.make (2 * cap) free
    and offsets = Array.make (2 * cap) 0
    and sent_at = Array.make (2 * cap) Time.zero in
    for seq = t.low to t.next_seq - 1 do
      let o = slot t seq and n = seq land ((2 * cap) - 1) in
      Bytes.set state n (Bytes.get t.state o);
      offsets.(n) <- t.offsets.(o);
      sent_at.(n) <- t.sent_at.(o)
    done;
    t.state <- state;
    t.offsets <- offsets;
    t.sent_at <- sent_at
  end

(* The twin counts live slots over the whole ring, not just the span,
   so an entry stranded below [low] (where no ACK lookup reaches) is
   caught too. *)
let check_low t what =
  if Invariant.active () then
    Invariant.check ~name:("sender-inflight-low: " ^ what) (fun () ->
        t.low <= t.next_seq
        && t.next_seq - t.low <= Bytes.length t.state
        &&
        let live = ref 0 and in_span = ref 0 in
        Bytes.iter (fun c -> if c <> free then incr live) t.state;
        let first = ref (-1) and oldest = ref max_int in
        for seq = t.low to t.next_seq - 1 do
          if Bytes.get t.state (slot t seq) <> free then begin
            incr in_span;
            if !first < 0 then first := seq;
            oldest := min !oldest t.sent_at.(slot t seq)
          end
        done;
        !live = t.in_flight
        && !in_span = t.in_flight
        && (!first < 0 || t.sent_at.(slot t !first) = !oldest))

(* [Hashtbl.hash seq] for any seq >= 0, derived explicitly: the
   runtime's MurmurHash3 mix of the tagged word [2 seq + 1], folded to
   32 bits, then the finaliser, cut to 30 bits. *)
let seq_hash seq =
  let u32 x = x land 0xFFFF_FFFF in
  let rotl x n = u32 (x lsl n) lor (x lsr (32 - n)) in
  let k = u32 ((seq lsr 31) lxor ((2 * seq) + 1)) in
  let k = u32 (rotl (u32 (k * 0xcc9e2d51)) 15 * 0x1b873593) in
  let h = u32 ((rotl k 13 * 5) + 0xe6546b64) in
  let h = u32 ((h lxor (h lsr 16)) * 0x85ebca6b) in
  let h = u32 ((h lxor (h lsr 13)) * 0xc2b2ae35) in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

(* The order in which one ACK's losses are re-queued, which every
   golden fixture pins: the order an in-flight [Hashtbl.create 1024]
   gave through [Hashtbl.iter] plus consing. That table put [seq] in
   bucket [Hashtbl.hash seq land (buckets - 1)] and kept each bucket
   newest first; iterating buckets upwards and consing reverses both,
   so: bucket descending, then seq ascending. Its bucket count started
   at 1,024 and doubled whenever more than twice that many packets were
   in flight, never shrinking; [order_buckets] replays that rule. *)
let retx_order t a b =
  let bucket seq = seq_hash seq land (t.order_buckets - 1) in
  match Int.compare (bucket b) (bucket a) with 0 -> Int.compare a b | c -> c

(* Re-queue provisionally-acked units whose e2e confirmation never
   arrived. *)
let sweep_provisional t =
  if Hashtbl.length t.provisional > 0 then begin
    let now = Engine.now t.engine in
    let expired =
      Hashtbl.fold
        (fun seq (offset, deadline) acc ->
          if deadline <= now || Bytes.get t.unit_acked offset = '\001' then
            (seq, offset, deadline <= now) :: acc
          else acc)
        t.provisional []
    in
    List.iter
      (fun (seq, offset, timed_out) ->
        Hashtbl.remove t.provisional seq;
        if timed_out && Bytes.get t.unit_acked offset = '\000' then
          retx_push t offset)
      expired
  end

(* --- probe timeout ------------------------------------------------- *)

let rec arm_pto t =
  t.timer_gen <- t.timer_gen + 1;
  let gen = t.timer_gen in
  let delay =
    let base = Rtt.pto t.rtt ~max_ack_delay:t.max_ack_delay in
    base * (1 lsl min t.pto_count 6)
  in
  Engine.schedule t.engine ~delay (fun () -> on_pto t gen)

and on_pto t gen =
  if gen = t.timer_gen && (t.in_flight > 0 || Hashtbl.length t.provisional > 0)
  then begin
    t.stats.timeouts <- t.stats.timeouts + 1;
    t.pto_count <- t.pto_count + 1;
    (* Declare the oldest in-flight packet lost and probe with its
       unit; persistent timeouts collapse the window. *)
    advance_low t;
    if t.low < t.next_seq then begin
      let offset = t.offsets.(slot t t.low) in
      remove t t.low;
      if Bytes.get t.unit_acked offset = '\000' then retx_push t offset
    end;
    if t.pto_count >= 2 && not t.external_cc then t.cc.Cc.on_timeout ();
    sweep_provisional t;
    try_send t;
    if t.in_flight > 0 || Hashtbl.length t.provisional > 0 || retx_pending t
    then arm_pto t;
    check_low t "after PTO"
  end

(* --- transmission -------------------------------------------------- *)

and transmit t ~offset ~is_retx =
  make_room t;
  let seq = t.next_seq in
  let s = slot t seq in
  let now = Engine.now t.engine in
  Bytes.set t.state s (if is_retx then retx else fresh);
  t.offsets.(s) <- offset;
  t.sent_at.(s) <- now;
  t.next_seq <- seq + 1;
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > 2 * t.order_buckets then t.order_buckets <- 2 * t.order_buckets;
  let id = Identifier.of_counter t.id_key ~bits:32 seq in
  let p =
    Frames.data_packet ~uid:seq ~flow:t.flow ~id ~seq ~size:(wire_size t) ~offset ~now
  in
  t.stats.transmissions <- t.stats.transmissions + 1;
  if is_retx then t.stats.retransmissions <- t.stats.retransmissions + 1;
  t.on_transmit p;
  t.egress p

and try_send t =
  let size = wire_size t in
  let continue = ref true in
  while !continue do
    if bytes_in_flight t + size > cwnd t then continue := false
    else begin
      match retx_pop t with
      | Some offset ->
          if Bytes.get t.unit_acked offset = '\000' then
            transmit t ~offset ~is_retx:true
          (* silently skip units acked since they were queued *)
      | None ->
          if t.next_offset < min t.total_units t.available then begin
            transmit t ~offset:t.next_offset ~is_retx:false;
            t.next_offset <- t.next_offset + 1
          end
          else continue := false
    end
  done

let start t =
  if not t.started then begin
    t.started <- true;
    try_send t;
    arm_pto t
  end

(* --- ACK processing ------------------------------------------------ *)

let mark_unit_acked t offset =
  if Bytes.get t.unit_acked offset = '\000' then begin
    Bytes.set t.unit_acked offset '\001';
    t.stats.acked_units <- t.stats.acked_units + 1
  end

(* RFC 9002-style loss detection: a packet older than the largest
   acked is lost once it is [pkt_threshold] packets behind, or once its
   age exceeds 9/8 of the RTT (the time threshold that makes endpoints
   tolerant of in-network reordering/refills). *)
let is_lost t ~threshold ~now ~age_limit seq =
  seq < threshold
  || (seq < t.largest_acked && Time.diff now t.sent_at.(slot t seq) > age_limit)

let detect_losses t =
  if t.largest_acked >= 0 then begin
    let threshold = t.largest_acked - t.pkt_threshold in
    let now = Engine.now t.engine in
    let age_limit =
      if Rtt.has_sample t.rtt then
        9 * max (Rtt.srtt t.rtt) (Rtt.latest t.rtt) / 8
      else max_int
    in
    (* The entry at [low] has both the least seq and the oldest
       [sent_at] in flight, so if it passes neither test no entry does:
       the scan runs only when at least one packet is lost. *)
    advance_low t;
    if t.low < t.next_seq && is_lost t ~threshold ~now ~age_limit t.low then begin
      let lost = ref [] in
      for seq = t.next_seq - 1 downto t.low do
        if is_in_flight t seq && is_lost t ~threshold ~now ~age_limit seq then
          lost := seq :: !lost
      done;
      let lost =
        match !lost with _ :: _ :: _ as l -> List.sort (retx_order t) l | l -> l
      in
      let new_event = ref false in
      List.iter
        (fun seq ->
          let offset = t.offsets.(slot t seq) in
          remove t seq;
          if Bytes.get t.unit_acked offset = '\000' then retx_push t offset;
          if seq >= t.recovery_until then new_event := true)
        lost;
      if !new_event then begin
        t.recovery_until <- t.next_seq;
        t.stats.congestion_events <- t.stats.congestion_events + 1;
        if not t.external_cc then
          t.cc.Cc.on_congestion ~now:(Engine.now t.engine)
      end
    end
  end

let deliver_ack t (p : Packet.t) =
  match p.payload with
  | Frames.Ack { largest; ranges; acked_units } ->
      let now = Engine.now t.engine in
      if largest > t.largest_acked then t.largest_acked <- largest;
      t.acked_units <- max t.acked_units acked_units;
      let newly_acked = ref 0 in
      let rtt_sample = ref None in
      (* Look up the ranges' seqs, clipped to [low, next_seq): the
         oldest range grows with the whole transfer, but only its part
         inside the in-flight span can hold anything. The per-entry work
         (removal, byte sums, idempotent unit marks, an RTT sample keyed
         by the unique [largest]) does not depend on visiting order. *)
      advance_low t;
      List.iter
        (fun (lo, hi) ->
          for seq = max lo t.low to min hi (t.next_seq - 1) do
            let s = slot t seq in
            let st = Bytes.get t.state s in
            if st <> free then begin
              remove t seq;
              newly_acked := !newly_acked + wire_size t;
              mark_unit_acked t t.offsets.(s);
              if seq = largest && st = fresh then
                rtt_sample := Some (Time.diff now t.sent_at.(s))
            end
          done)
        ranges;
      (* Provisionally-released packets (freed by a sidecar quACK) are
         no longer in flight, but their units still need the e2e
         confirmation recorded here. *)
      if Hashtbl.length t.provisional > 0 then begin
        let covered seq = List.exists (fun (lo, hi) -> seq >= lo && seq <= hi) ranges in
        let confirmed =
          Hashtbl.fold
            (fun seq (offset, _) acc -> if covered seq then (seq, offset) :: acc else acc)
            t.provisional []
        in
        List.iter
          (fun (seq, offset) ->
            Hashtbl.remove t.provisional seq;
            mark_unit_acked t offset)
          confirmed
      end;
      (match !rtt_sample with Some s -> Rtt.sample t.rtt s | None -> ());
      sweep_provisional t;
      if !newly_acked > 0 then begin
        t.pto_count <- 0;
        if not t.external_cc then
          t.cc.Cc.on_ack ~now ~acked_bytes:!newly_acked ~rtt:!rtt_sample
      end;
      detect_losses t;
      try_send t;
      if t.in_flight > 0 || Hashtbl.length t.provisional > 0 || retx_pending t
      then arm_pto t
      else t.timer_gen <- t.timer_gen + 1 (* cancel timer *);
      check_low t "after ACK"
  | _ -> ()

let external_ack t ~acked_bytes ~rtt =
  if t.external_cc then
    t.cc.Cc.on_ack ~now:(Engine.now t.engine) ~acked_bytes ~rtt;
  try_send t

let sidecar_ack t ~seqs =
  let now = Engine.now t.engine in
  let grace = 3 * Rtt.rto t.rtt in
  let freed = ref 0 in
  List.iter
    (fun seq ->
      if is_in_flight t seq then begin
        let offset = t.offsets.(slot t seq) in
        remove t seq;
        freed := !freed + wire_size t;
        Hashtbl.replace t.provisional seq (offset, Time.add now grace)
      end)
    seqs;
  if !freed > 0 then try_send t;
  !freed

let make_available t n =
  if n > t.available then begin
    t.available <- min n t.total_units;
    if t.started then begin
      try_send t;
      if t.in_flight > 0 || retx_pending t then arm_pto t
    end
  end

let external_congestion t =
  if t.external_cc then begin
    t.stats.congestion_events <- t.stats.congestion_events + 1;
    t.cc.Cc.on_congestion ~now:(Engine.now t.engine)
  end
