(* Executable specification of the quACK core.

   Each contract declared with [@@@sidespec] in lib/ is stated ONCE
   here as a qcheck property over an abstract implementation signature,
   then instantiated against the reference modules in [Test_spec]. The
   functor seam is the point: a future flat-array sketch or a SIMD
   field backend claims conformance by instantiating the same functor,
   and the two implementations are then tested differentially by
   construction ([Field_diff], [Sketch_diff]) instead of by ad-hoc
   copied assertions.

   The properties deliberately mirror the [Invariant.check] runtime
   twins in lib/core and lib/runtime: the linter proves each contract
   has a twin; this file proves the twins (and the code around them)
   hold on random inputs. *)

module Modular = Sidecar_field.Modular
module Primes = Sidecar_field.Primes
module Psum = Sidecar_quack.Psum
module Decoder = Sidecar_quack.Decoder
module Kernel = Sidecar_quack.Kernel
module Invariant = Sidecar_quack.Invariant
module Flow_table = Sidecar_runtime.Flow_table
module Time = Netsim.Sim_time

let test ?(count = 300) name arb prop = QCheck.Test.make ~count ~name arb prop

(* ------------------------------------------------------------------ *)
(* Field laws: any implementation of [Modular.S] is a prime field.     *)

module Field_spec (F : Modular.S) = struct
  let in_field x = 0 <= x && x < F.modulus
  let elt = QCheck.map F.of_int QCheck.int
  let pair = QCheck.pair elt elt
  let triple = QCheck.triple elt elt elt

  let props impl =
    let t name = test (impl ^ ": " ^ name) in
    [
      t "closure" pair (fun (a, b) ->
          in_field (F.add a b) && in_field (F.sub a b) && in_field (F.mul a b)
          && in_field (F.neg a));
      t "add is commutative and associative" triple (fun (a, b, c) ->
          F.equal (F.add a b) (F.add b a)
          && F.equal (F.add (F.add a b) c) (F.add a (F.add b c)));
      t "mul is commutative and associative" triple (fun (a, b, c) ->
          F.equal (F.mul a b) (F.mul b a)
          && F.equal (F.mul (F.mul a b) c) (F.mul a (F.mul b c)));
      t "mul distributes over add" triple (fun (a, b, c) ->
          F.equal (F.mul a (F.add b c)) (F.add (F.mul a b) (F.mul a c)));
      t "additive inverse" elt (fun a -> F.equal (F.add a (F.neg a)) F.zero);
      t "sub is add of neg" pair (fun (a, b) ->
          F.equal (F.sub a b) (F.add a (F.neg b)));
      t "multiplicative inverse" elt (fun a ->
          QCheck.assume (not (F.equal a F.zero));
          F.equal (F.mul a (F.inv a)) F.one);
      t "div is mul by inv" pair (fun (a, b) ->
          QCheck.assume (not (F.equal b F.zero));
          F.equal (F.div a b) (F.mul a (F.inv b)));
      t "pow is iterated mul"
        (QCheck.pair elt (QCheck.int_bound 64))
        (fun (a, k) ->
          let rec go acc i = if i = 0 then acc else go (F.mul acc a) (i - 1) in
          F.equal (F.pow a k) (go F.one k));
    ]
end

(* Differential: two backends over the SAME modulus must agree on
   every operation, on every input. Instantiated Log_field vs Modular
   over the full 16-bit field in [Test_spec]. *)
module Field_diff (A : Modular.S) (B : Modular.S) = struct
  let same_modulus () = A.modulus = B.modulus
  let raw = QCheck.int
  let pair = QCheck.pair raw raw

  let props impl =
    let t name = test ~count:1000 (impl ^ ": " ^ name) in
    [
      t "same modulus" QCheck.unit (fun () -> same_modulus ());
      t "of_int agrees" raw (fun x -> A.of_int x = B.of_int x);
      t "add agrees" pair (fun (x, y) ->
          let a, b = (A.of_int x, A.of_int y) in
          A.add a b = B.add a b);
      t "sub and neg agree" pair (fun (x, y) ->
          let a, b = (A.of_int x, A.of_int y) in
          A.sub a b = B.sub a b && A.neg a = B.neg a);
      t "mul agrees" pair (fun (x, y) ->
          let a, b = (A.of_int x, A.of_int y) in
          A.mul a b = B.mul a b);
      t "pow agrees"
        (QCheck.pair raw (QCheck.int_bound 4096))
        (fun (x, k) -> A.pow (A.of_int x) k = B.pow (B.of_int x) k);
      t "inv and div agree" pair (fun (x, y) ->
          let a, b = (A.of_int x, A.of_int y) in
          QCheck.assume (b <> 0);
          A.inv b = B.inv b && A.div a b = B.div a b);
    ]
end

(* ------------------------------------------------------------------ *)
(* Kernel loops: whichever arm [Kernel.of_field] picks for [F] — the
   inlined 2^32 - 5 loops, the fold-reduced pseudo-Mersenne loops or
   [F]'s own closures — every loop equals the naive one written with
   [F.add]/[F.mul]. Run over every width, a gate edge that lets a
   product overflow or a fold fall short shows up as a wrong value. *)

module Kernel_spec (F : Modular.S) = struct
  let kernel = Kernel.of_field (module F)
  let p = F.modulus

  (* Raw identifiers, random or at the edges of the reduction. *)
  let raw_gen =
    QCheck.Gen.(
      oneof
        [ int; oneofl [ 0; 1; p - 1; p; (1 lsl F.bits) - 1; (1 lsl 32) - 1 ] ])

  let elt_gen =
    QCheck.Gen.(oneof [ map F.of_int int; oneofl [ 0; 1; p - 1 ] ])

  let elts n = QCheck.Gen.(array_size (int_range 0 n) elt_gen)

  (* [scale * prod (x - r)] over [roots], lowest coefficient first. *)
  let poly scale roots =
    List.fold_left
      (fun f r ->
        Array.init
          (Array.length f + 1)
          (fun i ->
            let hi = if i >= 1 then f.(i - 1) else F.zero in
            let lo = if i < Array.length f then F.mul r f.(i) else F.zero in
            F.sub hi lo))
      [| scale |] roots

  let eval f x =
    let a = ref f.(Array.length f - 1) in
    for i = Array.length f - 2 downto 0 do
      a := F.add (F.mul !a x) f.(i)
    done;
    !a

  (* Four raw ids and a polynomial with some of them among its roots. *)
  let poly_arb =
    QCheck.make
      QCheck.Gen.(
        map
          (fun (scale, others, picks) ->
            let ids = Array.of_list (List.map fst picks) in
            let roots =
              others
              @ List.filter_map
                  (fun (id, root) -> if root then Some (F.of_int id) else None)
                  picks
            in
            (poly scale roots, ids))
          (triple elt_gen
             (list_size (int_range 0 6) elt_gen)
             (list_repeat 4 (pair raw_gen bool))))

  let props impl =
    let t name = test ~count:100 (impl ^ ": " ^ name) in
    [
      t "add_powers/sub_powers = naive power row"
        (QCheck.make
           QCheck.Gen.(
             elts 21 >>= fun sums ->
             triple (return sums) (int_bound (Array.length sums))
               (pair raw_gen bool)))
        (fun (sums, len, (id, neg)) ->
          let got = Array.copy sums in
          (if neg then Kernel.sub_powers else Kernel.add_powers)
            kernel got len id;
          let want = Array.copy sums in
          let x = F.of_int id in
          let pw = ref x in
          for i = 0 to len - 1 do
            want.(i) <- (if neg then F.sub else F.add) want.(i) !pw;
            pw := F.mul !pw x
          done;
          got = want);
      t "newton = naive Newton's identities"
        (QCheck.make (elts (min 21 (p - 1))))
        (fun sums ->
          let m = Array.length sums in
          let got = Array.make (m + 2) 7 in
          Kernel.newton kernel ~inv:(Kernel.inverses kernel m) ~sums m got;
          let want = Array.make (m + 2) 7 in
          want.(m) <- F.one;
          for j = 1 to m do
            let acc = ref F.zero in
            for i = 1 to j do
              acc := F.add !acc (F.mul want.(m - j + i) sums.(i - 1))
            done;
            want.(m - j) <- F.neg (F.div !acc (F.of_int j))
          done;
          got = want);
      t "horner4/is_root = naive evaluation" poly_arb (fun (f, ids) ->
          let deg = Array.length f - 1 in
          let mask = Kernel.horner4 kernel f deg ids 0 in
          let ok = ref true in
          Array.iteri
            (fun j id ->
              let root = F.equal (eval f (F.of_int id)) F.zero in
              ok :=
                !ok
                && mask land (1 lsl j) <> 0 = root
                && Kernel.is_root kernel f deg id = root)
            ids;
          !ok);
      t "deflate = naive synthetic division"
        (QCheck.make
           QCheck.Gen.(
             triple elt_gen (list_size (int_range 0 6) elt_gen) raw_gen))
        (fun (scale, others, id) ->
          let f = poly scale (F.of_int id :: others) in
          let deg = Array.length f - 1 in
          let got = Array.copy f in
          Kernel.deflate kernel got deg id;
          let want = Array.copy f in
          let r = F.of_int id in
          let carry = ref want.(deg) in
          for j = deg - 1 downto 0 do
            let orig = want.(j) in
            want.(j) <- !carry;
            carry := F.add (F.mul !carry r) orig
          done;
          got = want);
    ]
end

(* ------------------------------------------------------------------ *)
(* Power-sum sketches. The seam deliberately hides [Psum.t] behind an
   abstract [t] so a flat-array or SIMD variant plugs in unchanged.    *)

module type SKETCH = sig
  type t

  val create : threshold:int -> t
  val modulus : t -> int
  val count : t -> int
  val sums : t -> int array
  val insert : t -> int -> unit
  val remove : t -> int -> unit
end

(* Identifier lists sized for a threshold-[limit] sketch. *)
let ids_arb limit =
  QCheck.list_of_size (QCheck.Gen.int_range 0 limit)
    (QCheck.map abs QCheck.int)

(* The reference kernels step four power sums, and evaluate four
   candidates, at a time, so the sketch and decoder properties also run
   at every remainder mod 4, around the paper's t = 20. Threshold 12 is
   the historical default; the others carry it in the test name. *)
let thresholds = [ 1; 2; 3; 5; 7; 12; 20; 21 ]

let named ~threshold impl =
  if threshold = 12 then impl else Printf.sprintf "%s@t%d" impl threshold

let test_at ~threshold impl name =
  test ~count:(if threshold = 12 then 300 else 100) (named ~threshold impl ^ ": " ^ name)

module Sketch_spec (S : SKETCH) = struct
  let fresh ~threshold ids =
    let s = S.create ~threshold in
    List.iter (S.insert s) ids;
    s

  (* The mathematical definition, computed independently with the
     overflow-safe scalar primitives: sums.(i) = Σ_j x_j^(i+1) mod p. *)
  let model_sums ~threshold ~modulus ids =
    Array.init threshold (fun i ->
        List.fold_left
          (fun acc id ->
            let x = id mod modulus in
            (acc + Modular.powmod x (i + 1) modulus) mod modulus)
          0 ids)

  let props ?(threshold = 12) impl =
    let t name = test_at ~threshold impl name in
    let fresh = fresh ~threshold in
    let ids = ids_arb threshold in
    [
      t "sums match the power-sum definition" ids (fun l ->
          let s = fresh l in
          S.sums s = model_sums ~threshold ~modulus:(S.modulus s) l
          && S.count s = List.length l);
      t "sums stay in the field" (QCheck.pair ids ids) (fun (ins, outs) ->
          let s = fresh ins in
          List.iter (S.remove s) outs;
          let m = S.modulus s in
          Array.for_all (fun x -> 0 <= x && x < m) (S.sums s));
      t "remove inverts insert" ids (fun l ->
          let s = fresh l in
          List.iter (S.remove s) l;
          Array.for_all (fun x -> x = 0) (S.sums s) && S.count s = 0);
      t "order-independent" ids (fun l ->
          let a = fresh l and b = fresh (List.sort compare l) in
          S.sums a = S.sums b);
    ]
end

(* Differential: two sketch implementations over the same modulus fed
   the same operation sequence expose identical state. *)
module Sketch_diff (A : SKETCH) (B : SKETCH) = struct
  let props ?(threshold = 12) impl =
    let t name = test_at ~threshold impl name in
    let ids = ids_arb threshold in
    [
      t "identical sums after identical inserts and removes"
        (QCheck.pair ids ids)
        (fun (ins, outs) ->
          let a = A.create ~threshold and b = B.create ~threshold in
          QCheck.assume (A.modulus a = B.modulus b);
          List.iter (A.insert a) ins;
          List.iter (B.insert b) ins;
          List.iter (A.remove a) outs;
          List.iter (B.remove b) outs;
          A.sums a = B.sums b && A.count a = B.count b);
    ]
end

(* ------------------------------------------------------------------ *)
(* Decoder: the contracts [decoder-missing-subset] and
   [decoder-missing-bounded], plus the roundtrip they protect — the
   difference of sender and receiver sketches decodes to exactly the
   dropped multiset.                                                   *)

(* Generalised over the sketch: any SKETCH over [F]'s field feeds the
   decoder through the same pointwise difference {!Psum.difference}
   computes, so the flat-array sketch proves the identical roundtrip
   the reference does. *)
module Decoder_spec (F : Modular.S) (S : SKETCH) = struct
  let field : (module Modular.S) = (module F)

  (* (ids, drop mask): receiver sees the ids whose mask bit is false *)
  let scenario threshold =
    QCheck.map
      (fun l -> List.map (fun (id, dropped) -> (abs id mod F.modulus, dropped)) l)
      (QCheck.list_of_size
         (QCheck.Gen.int_range 0 threshold)
         (QCheck.pair QCheck.int QCheck.bool))

  (* The sums of [sent] minus those of [received], pointwise in the
     field, as Psum.difference computes them. *)
  let diff ~threshold ~sent ~received =
    let s = S.create ~threshold and r = S.create ~threshold in
    assert (S.modulus s = F.modulus);
    List.iter (S.insert s) sent;
    List.iter (S.insert r) received;
    let ss = S.sums s in
    Array.mapi (fun i x -> F.sub ss.(i) x) (S.sums r)

  let decode ~threshold strategy ~sent ~received ~candidates =
    Decoder.decode ~strategy ~field
      ~diff_sums:(diff ~threshold ~sent ~received)
      ~num_missing:(List.length sent - List.length received)
      ~candidates ()

  let roundtrip ~threshold strategy l =
    let ids = List.map fst l in
    let dropped = List.filter_map (fun (id, d) -> if d then Some id else None) l in
    let received = List.filter_map (fun (id, d) -> if d then None else Some id) l in
    match decode ~threshold strategy ~sent:ids ~received ~candidates:ids with
    | Error _ -> false
    | Ok { missing; unresolved } ->
        unresolved = 0
        && List.sort compare missing = List.sort compare dropped

  let reduced l = List.sort compare (List.map F.of_int l)

  (* `Plug_in against the `Factor oracle: the same missing multiset up
     to identifier aliasing (both return raw candidates, but may pick
     different aliases of one root), and the same unresolved count. *)
  let agree ~threshold ~sent ~received ~candidates =
    match
      ( decode ~threshold `Plug_in ~sent ~received ~candidates,
        decode ~threshold `Factor ~sent ~received ~candidates )
    with
    | Ok a, Ok b ->
        a.Decoder.unresolved = b.Decoder.unresolved
        && reduced a.Decoder.missing = reduced b.Decoder.missing
    | Error _, Error _ -> true
    | Ok _, Error _ | Error _, Ok _ -> false

  (* At most [threshold] of the drop flags survive, so the decode
     never exceeds the threshold. *)
  let cap_drops threshold l =
    let n = ref 0 in
    List.map
      (fun (id, d) ->
        let d = d && !n < threshold in
        if d then incr n;
        (id, d))
      l

  let split l =
    ( List.map fst l,
      List.filter_map (fun (id, d) -> if d then None else Some id) l )

  let props ?(threshold = 12) impl =
    let t name = test_at ~threshold impl name in
    [
      t "plug-in decode recovers the dropped multiset" (scenario threshold)
        (roundtrip ~threshold `Plug_in);
      t "factor decode recovers the dropped multiset" (scenario threshold)
        (roundtrip ~threshold `Factor);
    ]

  (* The inputs where the plug-in strategy's grouping and deflation
     could go wrong, each checked against `Factor. *)
  let oracle_props ?(threshold = 12) impl =
    let t name = test_at ~threshold impl name in
    let flagged ids =
      QCheck.map (cap_drops threshold)
        (QCheck.list_of_size
           (QCheck.Gen.int_range 0 (2 * threshold))
           (QCheck.pair ids QCheck.bool))
    in
    [
      (* a pool of five ids: most candidates repeat, and a dropped
         repeat is a multiple root *)
      t "plug-in = factor on repeated ids" (flagged (QCheck.int_bound 4))
        (fun l ->
          let sent, received = split l in
          agree ~threshold ~sent ~received ~candidates:sent
          && roundtrip ~threshold `Plug_in l);
      (* raw ids up to three times the modulus: aliases of one
         residue are different candidates for the same root *)
      t "plug-in = factor on aliased ids (>= modulus)"
        (flagged (QCheck.int_bound ((3 * F.modulus) - 1)))
        (fun l ->
          let sent, received = split l in
          agree ~threshold ~sent ~received ~candidates:sent);
      (* withholding candidates leaves roots unmatched: both
         strategies must report the same unresolved residue *)
      t "plug-in = factor on truncated candidates"
        (QCheck.pair (scenario threshold) (QCheck.list QCheck.bool))
        (fun (l, keep) ->
          let sent, received = split l in
          let candidates =
            List.filteri
              (fun i _ -> match List.nth_opt keep i with Some k -> k | None -> true)
              sent
          in
          agree ~threshold ~sent ~received ~candidates);
      (* the same id at positions 3 and 4: a hit on the last
         candidate of the first 4-group, then that root again at the
         head of the next group — dropped twice it is a double root,
         dropped once the quotient no longer has it *)
      t "plug-in = factor on a repeated root across a 4-group boundary"
        (QCheck.triple
           (QCheck.list_of_size (QCheck.Gen.return 8)
              (QCheck.pair QCheck.int QCheck.bool))
           QCheck.int QCheck.bool)
        (fun (others, x, both) ->
          let x = abs x mod F.modulus in
          let others =
            List.map (fun (id, d) -> (abs id mod F.modulus, d)) others
          in
          let l =
            List.filteri (fun i _ -> i < 3) others
            @ [ (x, true); (x, both) ]
            @ List.filteri (fun i _ -> i >= 3) others
          in
          let l = cap_drops threshold l in
          let sent, received = split l in
          agree ~threshold ~sent ~received ~candidates:sent
          && roundtrip ~threshold `Plug_in l);
    ]
end

(* ------------------------------------------------------------------ *)
(* Flow table: the contracts [flowtable-occupancy] and
   [flowtable-bounded] as whole-trace properties over random
   admit/remove/find sequences. The TABLE seam abstracts the store so
   the flat-array table proves the same trace properties as the boxed
   reference table.                                                    *)

module type TABLE = sig
  type t

  val create : capacity:int -> t
  val admit : t -> now:Time.t -> int -> (unit -> int) -> int option
  val remove : t -> int -> bool
  val find : t -> now:Time.t -> int -> int option
  val occupancy : t -> int
  val peak_occupancy : t -> int
  val iter : t -> (int -> int -> unit) -> unit

  (* stats, flattened: admissions, LRU + idle evictions, removals *)
  val admitted : t -> int
  val evicted : t -> int
  val removed : t -> int
end

module Table_spec (T : TABLE) = struct
  type op = Admit of int | Remove of int | Find of int

  let ops_arb =
    let op =
      QCheck.Gen.(
        map2
          (fun k c ->
            match c with 0 -> Admit k | 1 -> Remove k | _ -> Find k)
          (int_range 0 40) (int_range 0 2))
    in
    QCheck.make
      QCheck.Gen.(list_size (int_range 0 120) op)

  let replay ~capacity ops =
    let ft = T.create ~capacity in
    let clock = ref 0 in
    List.iter
      (fun op ->
        incr clock;
        let now = Time.ms !clock in
        match op with
        | Admit k -> ignore (T.admit ft ~now k (fun () -> k))
        | Remove k -> ignore (T.remove ft k)
        | Find k -> ignore (T.find ft ~now k))
      ops;
    ft

  let books_balance ft ~capacity =
    let occ = T.occupancy ft in
    let live = ref 0 in
    T.iter ft (fun _ _ -> incr live);
    occ <= capacity && !live = occ
    && occ = T.admitted ft - T.evicted ft - T.removed ft

  let props impl =
    let t name = test (impl ^ ": " ^ name) in
    [
      t "occupancy tracks the live set and never exceeds capacity"
        (QCheck.pair (QCheck.int_bound 8) ops_arb)
        (fun (capacity, ops) ->
          books_balance (replay ~capacity ops) ~capacity);
      t "peak occupancy is bounded too"
        (QCheck.pair (QCheck.int_bound 8) ops_arb)
        (fun (capacity, ops) ->
          T.peak_occupancy (replay ~capacity ops) <= capacity);
    ]
end

(* The reference instantiation, under its historical name. *)
module Flow_table_spec = Table_spec (struct
  type t = int Flow_table.t

  let create ~capacity = Flow_table.create ~capacity ()
  let admit = Flow_table.admit
  let remove = Flow_table.remove
  let find = Flow_table.find
  let occupancy = Flow_table.occupancy
  let peak_occupancy = Flow_table.peak_occupancy
  let iter = Flow_table.iter
  let admitted t = (Flow_table.stats t).Flow_table.admitted

  let evicted t =
    let s = Flow_table.stats t in
    s.Flow_table.evicted_lru + s.Flow_table.evicted_idle

  let removed t = (Flow_table.stats t).Flow_table.removed
end)
