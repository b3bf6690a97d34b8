(* Binary min-heap over (time, seq) kept in parallel int arrays. Heap
   position [i] holds key (times.(i), seqs.(i)) and the slot
   slots.(i) of its value in [values]. Values never move once stored:
   a sift moves only the three ints of each entry, by walking a hole
   down (or up) the tree and writing each displaced entry once, so it
   touches no pointer and pays no write barrier. A popped value's slot
   is overwritten with [filler] — never with another live value, which
   would keep an already-fired event reachable — and goes onto the
   free-slot stack for the next push.

   The sift loops index below [len], which never exceeds the arrays'
   shared length, so they use unchecked accesses.

   Slots in use = [len]; slots ever handed out = [len + nfree], which
   never exceeds the capacity, so every array shares one capacity. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> value slot *)
  mutable values : 'a array;  (* value slot -> value, or [filler] *)
  mutable free : int array;  (* stack of vacated slots, top at nfree - 1 *)
  mutable nfree : int;
  mutable len : int;
  mutable next_seq : int;
  filler : 'a;
}

let initial_capacity = 16

let create ~filler =
  let n = initial_capacity in
  {
    times = Array.make n 0;
    seqs = Array.make n 0;
    slots = Array.make n 0;
    values = Array.make n filler;
    free = Array.make n 0;
    nfree = 0;
    len = 0;
    next_seq = 0;
    filler;
  }

let size t = t.len
let is_empty t = t.len = 0

(* Only called when every slot is in use (len = capacity, nfree = 0). *)
let grow t =
  let n = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.values <- extend t.values t.filler;
  t.free <- Array.make (2 * n) 0

let push t ~time value =
  if t.len = Array.length t.times then grow t;
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else t.len
  in
  t.values.(slot) <- value;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  (* sift up: [seq] is the largest key issued so far, so only a
     strictly later parent time moves down into the hole *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let min_time t =
  if t.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  t.times.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let slot = t.slots.(0) in
  let value = t.values.(slot) in
  t.values.(slot) <- t.filler;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    (* the last entry refills the root's hole, then sinks *)
    let time = times.(n) and seq = seqs.(n) and last = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let tr = Array.unsafe_get times r and tl = Array.unsafe_get times l in
            if tr < tl || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let tc = Array.unsafe_get times c in
        if tc < time || (tc = time && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i tc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i last
  end;
  value
