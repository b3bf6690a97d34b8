module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Identifier = Sidecar_quack.Identifier
module Invariant = Sidecar_quack.Invariant

[@@@sidespec
  "sender-inflight-low: no in-flight seq lies below the watermark low, \
   low <= next_seq, and the in-flight entry with the least seq (the one \
   low advances to) has the minimum sent_at, which is what makes the \
   one-entry loss pre-check exact"]

type stats = {
  mutable transmissions : int;
  mutable retransmissions : int;
  mutable congestion_events : int;
  mutable timeouts : int;
  mutable acked_units : int;
}

type inflight = {
  seq : int;
  offset : int;
  size : int;
  sent_at : Time.t;
  is_retx : bool;
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
  inflight : (int, inflight) Hashtbl.t;
      (* seqs enter in increasing order, each once, at non-decreasing
         [sent_at]; see [low] *)
  unit_acked : Bytes.t;
  stats : stats;
  mutable started : bool;
  mutable available : int;  (* units eligible for first transmission *)
  mutable next_offset : int;
  mutable next_seq : int;
  mutable low : int;
      (* oldest-in-flight watermark: no seq below it is in [inflight].
         Advanced lazily by [advance_low], so it may still name a seq
         that has since left the table. *)
  mutable bytes_in_flight : int;
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
    (* The bucket count fixes [Hashtbl.iter]'s order, and that order is
       the retransmission order whenever one ACK reveals two or more
       losses ([detect_losses]). Every golden fixture depends on it:
       resizing this table is a behaviour change. *)
    inflight = Hashtbl.create 1024;
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
    bytes_in_flight = 0;
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
let bytes_in_flight t = t.bytes_in_flight
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

(* Move [low] up to the oldest seq still in flight, or to [next_seq]
   when nothing is. Amortised O(1): [low] only rises and never passes
   [next_seq]. *)
let advance_low t =
  while t.low < t.next_seq && not (Hashtbl.mem t.inflight t.low) do
    t.low <- t.low + 1
  done

let check_low t what =
  if Invariant.active () then
    Invariant.check ~name:("sender-inflight-low: " ^ what) (fun () ->
        let first = ref max_int and first_sent = ref 0 and oldest = ref max_int in
        Hashtbl.iter
          (fun seq p ->
            if seq < !first then begin
              first := seq;
              first_sent := p.sent_at
            end;
            oldest := min !oldest p.sent_at)
          t.inflight;
        t.low <= t.next_seq
        && t.low <= !first
        && (!first = max_int || !first_sent = !oldest))

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
  if gen = t.timer_gen
     && (Hashtbl.length t.inflight > 0 || Hashtbl.length t.provisional > 0)
  then begin
    t.stats.timeouts <- t.stats.timeouts + 1;
    t.pto_count <- t.pto_count + 1;
    (* Declare the oldest in-flight packet lost and probe with its
       unit; persistent timeouts collapse the window. *)
    advance_low t;
    if t.low < t.next_seq then begin
      let p = Hashtbl.find t.inflight t.low in
      Hashtbl.remove t.inflight p.seq;
      t.bytes_in_flight <- t.bytes_in_flight - p.size;
      if Bytes.get t.unit_acked p.offset = '\000' then retx_push t p.offset
    end;
    if t.pto_count >= 2 && not t.external_cc then t.cc.Cc.on_timeout ();
    sweep_provisional t;
    try_send t;
    if Hashtbl.length t.inflight > 0 || Hashtbl.length t.provisional > 0
       || retx_pending t
    then arm_pto t;
    check_low t "after PTO"
  end

(* --- transmission -------------------------------------------------- *)

and transmit t ~offset ~is_retx =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let id = Identifier.of_counter t.id_key ~bits:32 seq in
  let size = wire_size t in
  let now = Engine.now t.engine in
  let p = Frames.data_packet ~uid:seq ~flow:t.flow ~id ~seq ~size ~offset ~now in
  Hashtbl.replace t.inflight seq { seq; offset; size; sent_at = now; is_retx };
  t.bytes_in_flight <- t.bytes_in_flight + size;
  t.stats.transmissions <- t.stats.transmissions + 1;
  if is_retx then t.stats.retransmissions <- t.stats.retransmissions + 1;
  t.on_transmit p;
  t.egress p

and try_send t =
  let size = wire_size t in
  let continue = ref true in
  while !continue do
    if t.bytes_in_flight + size > cwnd t then continue := false
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
let is_lost t ~threshold ~now ~age_limit seq p =
  seq < threshold || (seq < t.largest_acked && Time.diff now p.sent_at > age_limit)

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
    if
      t.low < t.next_seq
      && is_lost t ~threshold ~now ~age_limit t.low (Hashtbl.find t.inflight t.low)
    then begin
      let lost = ref [] in
      Hashtbl.iter
        (fun seq p -> if is_lost t ~threshold ~now ~age_limit seq p then lost := p :: !lost)
        t.inflight;
      let new_event = ref false in
      List.iter
        (fun p ->
          Hashtbl.remove t.inflight p.seq;
          t.bytes_in_flight <- t.bytes_in_flight - p.size;
          if Bytes.get t.unit_acked p.offset = '\000' then retx_push t p.offset;
          if p.seq >= t.recovery_until then new_event := true)
        !lost;
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
            match Hashtbl.find_opt t.inflight seq with
            | Some fl ->
                Hashtbl.remove t.inflight seq;
                t.bytes_in_flight <- t.bytes_in_flight - fl.size;
                newly_acked := !newly_acked + fl.size;
                mark_unit_acked t fl.offset;
                if seq = largest && not fl.is_retx then
                  rtt_sample := Some (Time.diff now fl.sent_at)
            | None -> ()
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
      if Hashtbl.length t.inflight > 0 || Hashtbl.length t.provisional > 0
         || retx_pending t
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
      match Hashtbl.find_opt t.inflight seq with
      | Some fl ->
          Hashtbl.remove t.inflight fl.seq;
          t.bytes_in_flight <- t.bytes_in_flight - fl.size;
          freed := !freed + fl.size;
          Hashtbl.replace t.provisional fl.seq (fl.offset, Time.add now grace)
      | None -> ())
    seqs;
  if !freed > 0 then try_send t;
  !freed

let make_available t n =
  if n > t.available then begin
    t.available <- min n t.total_units;
    if t.started then begin
      try_send t;
      if Hashtbl.length t.inflight > 0 || retx_pending t then arm_pto t
    end
  end

let external_congestion t =
  if t.external_cc then begin
    t.stats.congestion_events <- t.stats.congestion_events + 1;
    t.cc.Cc.on_congestion ~now:(Engine.now t.engine)
  end
