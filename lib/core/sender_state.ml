module Modular = Sidecar_field.Modular

[@@@sidespec
  "sender-log-sound: every identifier a quACK decode reports missing was \
   actually sent — the decoded multiset is contained in the sent-log prefix \
   the quACK covers"]

type config = {
  bits : int;
  threshold : int;
  count_bits : int;
  strikes_to_lose : int;
  strategy : Decoder.strategy;
  tail_in_flight : bool;
  field : (module Modular.S) option;
}

let default_config =
  {
    bits = 32;
    threshold = 20;
    count_bits = 16;
    strikes_to_lose = 1;
    strategy = `Plug_in;
    tail_in_flight = true;
    field = None;
  }

type 'meta report = {
  acked : 'meta list;
  lost : 'meta list;
  suspect : 'meta list;
  indeterminate : 'meta list;
  in_flight : int;
  unresolved : int;
  stale : bool;
}

let empty_report =
  { acked = []; lost = []; suspect = []; indeterminate = []; in_flight = 0;
    unresolved = 0; stale = false }

type error = [ `Threshold_exceeded of int * int | `Config_mismatch of string ]

let pp_error ppf = function
  | `Threshold_exceeded (m, t) ->
      Format.fprintf ppf "threshold exceeded: %d missing > t = %d (reset required)" m t
  | `Config_mismatch s -> Format.fprintf ppf "config mismatch: %s" s

(* The log, oldest first, as parallel arrays: entry [i < len] is
   (ids.(i), metas.(i), pos.(i), strikes.(i)), where [pos] is the
   entry's monotone send position, for in-flight reasoning. The id
   column is the decoder's candidate array as it stands, so a quACK
   rebuilds nothing. The four arrays share one capacity. *)
type 'meta t = {
  cfg : config;
  psum : Psum.t;
  decoder : Decoder.workspace;
  mutable ids : int array;
  mutable metas : 'meta array;
  mutable pos : int array;
  mutable strikes : int array;
  mutable len : int;
  mutable last_receiver_count : int;
  mutable next_pos : int;
  mutable max_acked_pos : int;
      (* newest send position ever confirmed received: packets sent
         before it cannot be "still in transit" once it has arrived
         (up to re-ordering, which the strike grace absorbs) *)
}

let create cfg =
  if cfg.strikes_to_lose < 1 then
    invalid_arg "Sender_state.create: strikes_to_lose must be >= 1";
  let psum =
    Psum.create ~bits:cfg.bits ?field:cfg.field ~threshold:cfg.threshold ()
  in
  {
    cfg;
    psum;
    decoder = Decoder.workspace ~field:(Psum.field psum) ~threshold:cfg.threshold;
    ids = [||];
    metas = [||];
    pos = [||];
    strikes = [||];
    len = 0;
    last_receiver_count = 0;
    next_pos = 0;
    max_acked_pos = -1;
  }

let config t = t.cfg

(* Doubles the log's capacity; [meta], the entry about to be appended,
   fills the fresh metas array, which needs some value of its type. *)
let grow t meta =
  let cap = max 16 (t.len lsl 1) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.ids <- extend t.ids 0;
  t.metas <- extend t.metas meta;
  t.pos <- extend t.pos 0;
  t.strikes <- extend t.strikes 0

let clear_log t =
  t.ids <- [||];
  t.metas <- [||];
  t.pos <- [||];
  t.strikes <- [||];
  t.len <- 0

(* Shortens the log to [len] entries. Slots past the end would keep
   released metas (packets) alive until overwritten, so they are all
   pointed at the last slot's meta: at most one stale meta stays
   referenced. *)
let truncate t len =
  let n = t.len in
  if len < n - 1 then Array.fill t.metas len (n - 1 - len) t.metas.(n - 1);
  t.len <- len

let on_send t ~id meta =
  Psum.insert t.psum id;
  if t.len = Array.length t.ids then grow t meta;
  let i = t.len in
  t.ids.(i) <- id;
  t.metas.(i) <- meta;
  t.pos.(i) <- t.next_pos;
  t.strikes.(i) <- 0;
  t.len <- i + 1;
  t.next_pos <- t.next_pos + 1

let sent t = Psum.count t.psum
let outstanding t = t.len

let outstanding_ids t =
  let l = ref [] in
  for i = t.len - 1 downto 0 do
    l := t.ids.(i) :: !l
  done;
  !l

let reset t =
  Psum.reset t.psum;
  clear_log t;
  t.last_receiver_count <- 0;
  t.next_pos <- 0;
  t.max_acked_pos <- -1

let resync_to t (q : Quack.t) =
  if q.Quack.bits <> t.cfg.bits || Quack.threshold q <> t.cfg.threshold then
    invalid_arg "Sender_state.resync_to: incompatible quACK";
  (* Same width does not mean same field: a 16-bit quACK over 65519
     would pass the [bits] guard yet its sums are meaningless in a
     65521 sketch — adopting them via [set_state] silently corrupts
     every subsequent difference (the bug class Psum.merge/difference
     already reject). *)
  if q.Quack.modulus <> Psum.modulus t.psum then
    invalid_arg "Sender_state.resync_to: mismatched moduli";
  let abandoned = ref [] in
  for i = t.len - 1 downto 0 do
    abandoned := t.metas.(i) :: !abandoned
  done;
  let q = { q with Quack.count_bits = t.cfg.count_bits } in
  let receiver_count =
    let sc = Psum.count t.psum in
    let rc = sc - Quack.missing_count q ~sender_count:sc in
    (* When the quACK's baseline is ahead of ours (fresh state vs. a
       cumulative quACK) the wrapped subtraction goes negative; adopt
       the receiver's own count representative instead — subsequent
       arithmetic is modular, so any congruent value works. *)
    if rc >= 0 then rc else Quack.wrap_count q q.Quack.count
  in
  Psum.set_state t.psum ~sums:q.Quack.sums ~count:receiver_count;
  clear_log t;
  t.last_receiver_count <- receiver_count;
  (* Positions are log-relative; the log was just abandoned, so the
     position space restarts too (as in [reset]). Leaving
     [max_acked_pos] at a pre-resync position would judge post-takeover
     sends against a watermark from the abandoned log and deny them the
     tail-in-flight grace of §3.3. *)
  t.next_pos <- 0;
  t.max_acked_pos <- -1;
  !abandoned

let rec index_of ids len id i =
  if i >= len then -1 else if ids.(i) = id then i else index_of ids len id (i + 1)

let declare_lost t ~id =
  (* the oldest occurrence *)
  let i = index_of t.ids t.len id 0 in
  if i < 0 then None
  else begin
    let meta = t.metas.(i) in
    Psum.remove t.psum id;
    let after = t.len - i - 1 in
    Array.blit t.ids (i + 1) t.ids i after;
    Array.blit t.metas (i + 1) t.metas i after;
    Array.blit t.pos (i + 1) t.pos i after;
    Array.blit t.strikes (i + 1) t.strikes i after;
    truncate t (t.len - 1);
    Some meta
  end

(* The decoded-missing multiset over its distinct identifiers: [k.(j)]
   copies of [mids.(j)] are missing, and [occ.(j)] count its entries in
   the covered log prefix. A quACK decodes at most t, so scanning these
   few is cheaper than hashing every log entry. *)
type missing = {
  mids : int array;
  k : int array;
  occ : int array;
  mutable nd : int;
}

let rec find_missing ms id j =
  if j >= ms.nd then -1
  else if ms.mids.(j) = id then j
  else find_missing ms id (j + 1)

let missing_of_list ids =
  let cap = List.length ids in
  let ms =
    { mids = Array.make cap 0; k = Array.make cap 0; occ = Array.make cap 0;
      nd = 0 }
  in
  List.iter
    (fun id ->
      let j = find_missing ms id 0 in
      if j >= 0 then ms.k.(j) <- ms.k.(j) + 1
      else begin
        ms.mids.(ms.nd) <- id;
        ms.k.(ms.nd) <- 1;
        ms.nd <- ms.nd + 1
      end)
    ids;
  ms

let drop_missing ms j =
  let last = ms.nd - 1 in
  ms.mids.(j) <- ms.mids.(last);
  ms.k.(j) <- ms.k.(last);
  ms.occ.(j) <- ms.occ.(last);
  ms.nd <- last

(* In-flight suffix truncation: subtract the power sums of the log
   entries [from, until) from [diff], in place. *)
let subtract_ids kernel diff ids ~from ~until =
  for i = from to until - 1 do
    Kernel.sub_powers kernel diff (Array.length diff) ids.(i)
  done

let on_quack t (q : Quack.t) =
  if q.Quack.bits <> t.cfg.bits then
    Error (`Config_mismatch (Printf.sprintf "quACK bits %d, sender bits %d" q.Quack.bits t.cfg.bits))
  else if Quack.threshold q > t.cfg.threshold then
    Error (`Config_mismatch "receiver threshold exceeds sender threshold")
  else if q.Quack.modulus <> Psum.modulus t.psum then
    Error
      (`Config_mismatch
        (Printf.sprintf "quACK modulus %d, sender modulus %d" q.Quack.modulus
           (Psum.modulus t.psum)))
  else begin
    let sender_count = Psum.count t.psum in
    let q = { q with Quack.count_bits = t.cfg.count_bits } in
    let m = Quack.missing_count q ~sender_count in
    let receiver_count = sender_count - m in
    if receiver_count < 0 then
      (* The receiver's cumulative count exceeds everything we ever
         logged, so the wrapped missing count is meaningless — this is
         a foreign baseline (typically our state is fresh after an
         eviction/re-admission cycle and the quACK is cumulative), not
         a reordered old quACK. §3.3: reset required. *)
      Error (`Threshold_exceeded (m, Quack.threshold q))
    else if receiver_count < t.last_receiver_count then
      Ok { empty_report with stale = true }
    else begin
      let t_eff = Quack.threshold q in
      let n = t.len in
      if m > n then
        (* The receiver claims fewer receptions than is consistent with
           our log: wrapped count or a foreign quACK. *)
        Error (`Threshold_exceeded (m, t_eff))
      else begin
        let in_flight = if m > t_eff then m - t_eff else 0 in
        let prefix_len = n - in_flight in
        let diff =
          Psum.difference ~received_modulus:q.Quack.modulus ~sent:t.psum
            ~received_sums:q.Quack.sums ()
        in
        subtract_ids (Psum.kernel t.psum) diff t.ids ~from:prefix_len ~until:n;
        let m_prefix = m - in_flight in
        match
          Decoder.decode_ids ~strategy:t.cfg.strategy t.decoder
            ~diff_sums:diff ~num_missing:m_prefix ~ids:t.ids ~len:prefix_len
        with
        | Error (`Threshold_exceeded (m, tt)) -> Error (`Threshold_exceeded (m, tt))
        | Ok { missing; unresolved } when unresolved > 0 ->
            (* Conservative: something did not add up (identifier alias
               at/above the modulus, wrapped count, corruption). Prune
               nothing; surface what we saw. *)
            ignore missing;
            t.last_receiver_count <- max t.last_receiver_count receiver_count;
            Ok { empty_report with unresolved; in_flight }
        | Ok { missing; unresolved = _ } ->
            (* The paper's core soundness property: everything the
               decoder reports missing was actually sent (and is still
               outstanding in our log prefix). *)
            if Invariant.active () then
              Invariant.check
                ~name:"sender-log-sound: decoded multiset ⊆ sent log"
                (fun () ->
                  Invariant.int_multiset_subset ~sub:missing
                    ~super:(List.init prefix_len (fun i -> t.ids.(i))));
            let ms = missing_of_list missing in
            (* §3.3: a continuous suffix of missing packets is treated
               as in transit, not missing — the newest transmissions
               simply have not reached the receiver yet. Walk back from
               the end of the covered prefix while entries decode as
               missing, and withdraw them from the missing multiset. *)
            let tail_in_flight = ref 0 in
            let boundary = ref prefix_len in
            let continue_tail = ref t.cfg.tail_in_flight in
            while !continue_tail && !boundary > 0 do
              let i = !boundary - 1 in
              let j =
                if t.pos.(i) <= t.max_acked_pos then -1
                else find_missing ms t.ids.(i) 0
              in
              if j >= 0 && ms.k.(j) > 0 then begin
                ms.k.(j) <- ms.k.(j) - 1;
                if ms.k.(j) = 0 then drop_missing ms j;
                incr tail_in_flight;
                decr boundary
              end
              else continue_tail := false
            done;
            let prefix_len = !boundary in
            (* Occurrences of each missing id within the prefix. *)
            for i = 0 to prefix_len - 1 do
              let j = find_missing ms t.ids.(i) 0 in
              if j >= 0 then ms.occ.(j) <- ms.occ.(j) + 1
            done;
            let acked = ref [] and lost = ref [] and suspect = ref [] in
            let indeterminate = ref [] in
            (* Walk oldest-first, compacting the entries that stay
               logged to the front. *)
            let kept = ref 0 in
            for i = 0 to n - 1 do
              let meta = t.metas.(i) in
              let keep =
                i >= prefix_len (* in flight *)
                ||
                let j = find_missing ms t.ids.(i) 0 in
                if j < 0 then begin
                  if t.pos.(i) > t.max_acked_pos then t.max_acked_pos <- t.pos.(i);
                  acked := meta :: !acked (* drop from log *);
                  false
                end
                else begin
                  let strikes = t.strikes.(i) + 1 in
                  t.strikes.(i) <- strikes;
                  if ms.occ.(j) = ms.k.(j) then begin
                    (* definite missing *)
                    if strikes >= t.cfg.strikes_to_lose then begin
                      Psum.remove t.psum t.ids.(i);
                      lost := meta :: !lost;
                      false
                    end
                    else begin
                      suspect := meta :: !suspect;
                      true
                    end
                  end
                  else begin
                    (* collision: k of occ entries with this id are
                       missing; fate of each is indeterminate. After
                       the grace expires remove k oldest occurrences
                       so the threshold resets (§3.3). *)
                    indeterminate := meta :: !indeterminate;
                    if strikes >= t.cfg.strikes_to_lose && ms.k.(j) > 0 then begin
                      ms.k.(j) <- ms.k.(j) - 1;
                      Psum.remove t.psum t.ids.(i);
                      lost := meta :: !lost;
                      false
                    end
                    else true
                  end
                end
              in
              if keep then begin
                let w = !kept in
                if w < i then begin
                  t.ids.(w) <- t.ids.(i);
                  t.metas.(w) <- meta;
                  t.pos.(w) <- t.pos.(i);
                  t.strikes.(w) <- t.strikes.(i)
                end;
                kept := w + 1
              end
            done;
            truncate t !kept;
            t.last_receiver_count <- max t.last_receiver_count receiver_count;
            Ok
              {
                acked = List.rev !acked;
                lost = List.rev !lost;
                suspect = List.rev !suspect;
                indeterminate = List.rev !indeterminate;
                in_flight = in_flight + !tail_in_flight;
                unresolved = 0;
                stale = false;
              }
      end
    end
  end
