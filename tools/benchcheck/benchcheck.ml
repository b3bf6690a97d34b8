(* benchcheck: validate the repo's machine-readable outputs.

   Usage: benchcheck FILE.json|FILE.jsonl ...

   Each file must carry a recognised "schema" tag:

   "sidecar-bench-1" (the bench harness):
     { "schema": "sidecar-bench-1",
       "rows": [ { "section": <string>, ...fields }, ... ] }
   where every row has a string "section", at least one numeric field,
   and no null values — the bench writes nan/inf as null, so a null
   here means a measurement silently failed and the run must not be
   archived as data.

   "sidecar-lint-1" (sidelint --format json):
     { "schema": "sidecar-lint-1",
       "files_checked": <int>, "violation_count": <int>,
       "violations": [ { "file": <string>, "line": <int>, "col": <int>,
                         "rule": <string>, "message": <string> }, ... ] }
   where the count must agree with the list and a zero "files_checked"
   means the lint walked nothing (a misconfigured CI path, not a clean
   tree).

   "sidecar-history-1" (BENCH_HISTORY.jsonl, one JSON object per line;
   any FILE ending in .jsonl): see history.ml. Every line must be well
   formed, the last one must cover every workload and end-to-end metric
   of BENCHMARK.json, and none of its medians may be worse than the
   previous line's by more than the metric's bound there. BENCHMARK.json
   is read from the history file's directory.

   Exits non-zero (listing every problem) on any violation; prints a
   one-line summary per valid file.

   benchcheck --history-line LABEL RUNS.jsonl prints the history line
   that summarises RUNS.jsonl, perf.exe's untraced records of one
   side of a comparison. *)

let errors = ref 0

let err path fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "benchcheck: %s: %s\n" path msg)
    fmt

let check_row path i = function
  | Obs.Json.Obj fields ->
      (match List.assoc_opt "section" fields with
      | Some (Obs.Json.String _) -> ()
      | Some _ -> err path "row %d: \"section\" is not a string" i
      | None -> err path "row %d: missing \"section\"" i);
      let numeric = ref 0 in
      List.iter
        (fun (name, v) ->
          match v with
          | Obs.Json.Int _ -> incr numeric
          | Obs.Json.Float f ->
              if Float.is_finite f then incr numeric
              else err path "row %d: field %S is not finite" i name
          | Obs.Json.Null ->
              err path
                "row %d: field %S is null (a measurement produced nan/inf)" i
                name
          | Obs.Json.String _ | Obs.Json.Bool _ -> ()
          | Obs.Json.List _ | Obs.Json.Obj _ ->
              err path "row %d: field %S is nested (rows must be flat)" i name)
        fields;
      if !numeric = 0 then err path "row %d: no numeric field" i;
      (* A merged parallel-runtime row must carry the full speedup
         record, and its job/replication counts must be sane — a bench
         that lost a field here measured nothing. *)
      let section = List.assoc_opt "section" fields in
      let num name ~section =
        match List.assoc_opt name fields with
        | Some (Obs.Json.Int n) -> Some (float_of_int n)
        | Some (Obs.Json.Float f) when Float.is_finite f -> Some f
        | Some _ | None ->
            err path "row %d: %s field %S missing or non-numeric" i section name;
            None
      in
      let enum name ~section allowed =
        match List.assoc_opt name fields with
        | Some (Obs.Json.String s) when List.mem s allowed -> ()
        | Some _ | None ->
            err path "row %d: %s field %S missing or not one of {%s}" i section
              name
              (String.concat ", " allowed)
      in
      (* The quACK microbenchmark rows carry the minor-heap words of one
         measured call, so an allocation regression in the sketch or the
         decoder shows in the artifact; Table 2 has one column for each
         of its two measured calls. *)
      (match section with
      | Some (Obs.Json.String (("table2" | "fig5" | "fig6") as s)) ->
          let check_nonneg name =
            match num name ~section:s with
            | Some v when v < 0. ->
                err path "row %d: %s field %S is negative" i s name
            | Some _ | None -> ()
          in
          check_nonneg "alloc_words";
          if String.equal s "table2" then check_nonneg "decode_alloc_words"
      | _ -> ());
      if section = Some (Obs.Json.String "runtime_parallel") then begin
        let check_pos name =
          match num name ~section:"runtime_parallel" with
          | Some v when v <= 0. ->
              err path "row %d: runtime_parallel field %S must be positive" i
                name
          | Some _ | None -> ()
        in
        List.iter check_pos
          [ "jobs"; "replications"; "flows_per_replication"; "seq_wall_s";
            "par_wall_s"; "speedup" ]
      end;
      (* The datapath differential rows: every field present and
         non-negative (the deterministic bench zeroes wall-clock rates,
         so positivity is too strong), datapaths from the known set.
         The ref/flat checksum agreement is checked across rows below. *)
      if section = Some (Obs.Json.String "runtime_datapath") then begin
        enum "datapath" ~section:"runtime_datapath" [ "ref"; "flat" ];
        let check_nonneg name =
          match num name ~section:"runtime_datapath" with
          | Some v when v < 0. ->
              err path "row %d: runtime_datapath field %S is negative" i name
          | Some _ | None -> ()
        in
        List.iter check_nonneg
          [ "flows"; "pkts_per_sec"; "proxy_us_per_pkt"; "alloc_words_per_pkt";
            "quacks"; "checksum" ]
      end;
      (* The sharded-runtime rows: admission-control and churn columns
         are required (a row without occupancy_peak or
         eviction_churn_per_epoch recorded no pressure evidence), and
         every simulation-derived column must be non-negative. The
         shards=1 vs shards=N invariance is checked across rows
         below. *)
      if section = Some (Obs.Json.String "runtime_shard") then begin
        enum "scenario" ~section:"runtime_shard" [ "sustained"; "churn" ];
        enum "policy" ~section:"runtime_shard" [ "lru"; "idle" ];
        let check_nonneg name =
          match num name ~section:"runtime_shard" with
          | Some v when v < 0. ->
              err path "row %d: runtime_shard field %S is negative" i name
          | Some _ | None -> ()
        in
        List.iter check_nonneg
          [ "shards"; "partitions"; "capacity"; "flows"; "arrivals_per_epoch";
            "epochs"; "packets"; "peak_concurrent"; "occupancy_peak";
            "admitted"; "evicted"; "denied"; "completed"; "quacks";
            "eviction_churn_per_epoch"; "checksum"; "wall_s" ];
        match num "shards" ~section:"runtime_shard" with
        | Some v when v < 1. ->
            err path "row %d: runtime_shard field \"shards\" must be >= 1" i
        | Some _ | None -> ()
      end;
      if section = Some (Obs.Json.String "runtime_field") then begin
        enum "datapath" ~section:"runtime_field" [ "ref"; "flat" ];
        enum "field" ~section:"runtime_field" [ "modular"; "log" ];
        let check_nonneg name =
          match num name ~section:"runtime_field" with
          | Some v when v < 0. ->
              err path "row %d: runtime_field field %S is negative" i name
          | Some _ | None -> ()
        in
        List.iter check_nonneg
          [ "bits"; "pkts_per_sec"; "proxy_us_per_pkt"; "checksum" ]
      end;
      if section = Some (Obs.Json.String "runtime_handover") then begin
        let check_nonneg names =
          List.iter
            (fun name ->
              match num name ~section:"runtime_handover" with
              | Some v when v < 0. ->
                  err path "row %d: runtime_handover field %S is negative" i
                    name
              | Some _ | None -> ())
            names
        in
        check_nonneg
          [ "flows"; "completed"; "fct_p50_s"; "fct_p95_s"; "fct_p99_s";
            "fct_mean_s"; "srv_resyncs"; "retransmissions"; "timeouts";
            "delivered_bytes" ];
        (match (num "completed" ~section:"runtime_handover",
                num "flows" ~section:"runtime_handover") with
        | Some c, Some f when c > f ->
            err path "row %d: runtime_handover completed > flows" i
        | _ -> ());
        match List.assoc_opt "scenario" fields with
        | Some (Obs.Json.String "handover") ->
            enum "arm" ~section:"runtime_handover"
              [ "baseline"; "resync"; "transfer" ];
            enum "strategy" ~section:"runtime_handover"
              [ "resync"; "transfer" ];
            check_nonneg
              [ "migrations"; "transfers"; "transfer_bytes"; "install_merges";
                "spurious_retx" ]
        | Some (Obs.Json.String "multipath") ->
            enum "arm" ~section:"runtime_handover"
              [ "split"; "single_path" ];
            check_nonneg
              [ "path1_pkts"; "path2_pkts"; "folded_decodes"; "duplicates" ]
        | _ ->
            err path
              "row %d: runtime_handover field \"scenario\" missing or not one \
               of {handover, multipath}"
              i
      end;
      if section = Some (Obs.Json.String "runtime_adversary") then begin
        let check_nonneg names =
          List.iter
            (fun name ->
              match num name ~section:"runtime_adversary" with
              | Some v when v < 0. ->
                  err path "row %d: runtime_adversary field %S is negative" i
                    name
              | Some _ | None -> ())
            names
        in
        match List.assoc_opt "scenario" fields with
        | Some (Obs.Json.String "adversary") ->
            enum "arm" ~section:"runtime_adversary"
              [ "unauth_rate0"; "unauth_rate_half"; "unauth"; "auth" ];
            check_nonneg
              [ "attack_rate"; "flows"; "completed"; "wedged"; "fct_p50_s";
                "fct_p95_s"; "fct_p99_s"; "fct_mean_s"; "quacks_sealed";
                "auth_bytes_overhead"; "attacks_spoofed"; "attacks_replayed";
                "attacks_truncated"; "attacks_bitflipped"; "attacker_admitted";
                "attacker_resyncs"; "auth_rejected"; "replays_dropped";
                "malformed"; "srv_resyncs"; "retransmissions"; "timeouts";
                "spurious_retx"; "delivered_bytes" ];
            (match (num "completed" ~section:"runtime_adversary",
                    num "flows" ~section:"runtime_adversary") with
            | Some c, Some f when c > f ->
                err path "row %d: runtime_adversary completed > flows" i
            | _ -> ());
            (match (num "auth_bytes_overhead" ~section:"runtime_adversary",
                    num "quacks_sealed" ~section:"runtime_adversary") with
            | Some o, Some q when o <> 16. *. q ->
                err path
                  "row %d: runtime_adversary auth_bytes_overhead (%g) is not \
                   16 B per sealed quACK (%g)"
                  i o q
            | _ -> ())
        | Some (Obs.Json.String "leakage") ->
            enum "arm" ~section:"runtime_adversary" [ "unshaped"; "shaped" ];
            check_nonneg
              [ "flows"; "completed"; "fct_p50_s"; "fct_p95_s"; "fct_p99_s";
                "fct_mean_s"; "quacks_on_wire"; "quack_bytes_on_wire";
                "dummy_quacks"; "replays_dropped"; "observer_accuracy";
                "srv_resyncs"; "retransmissions"; "timeouts" ];
            (match num "observer_accuracy" ~section:"runtime_adversary" with
            | Some a when a > 1. ->
                err path "row %d: runtime_adversary observer_accuracy > 1" i
            | _ -> ());
            (* every shaped dummy is a byte-identical re-emission, so
               the server's replay guard must absorb exactly that many *)
            (match (num "dummy_quacks" ~section:"runtime_adversary",
                    num "replays_dropped" ~section:"runtime_adversary") with
            | Some d, Some r when d <> r ->
                err path
                  "row %d: runtime_adversary dummy_quacks (%g) <> \
                   replays_dropped (%g)"
                  i d r
            | _ -> ())
        | Some (Obs.Json.String "hmac") ->
            check_nonneg [ "tag_bytes"; "sign_us"; "verify_us" ];
            (match num "tag_bytes" ~section:"runtime_adversary" with
            | Some t when t <> 16. ->
                err path "row %d: runtime_adversary tag_bytes is not 16" i
            | _ -> ())
        | _ ->
            err path
              "row %d: runtime_adversary field \"scenario\" missing or not \
               one of {adversary, leakage, hmac}"
              i
      end
  | _ -> err path "row %d: not an object" i

(* Cross-row: each runtime_datapath flow count must carry one ref and
   one flat row, and the two fixed-length checksum runs must agree —
   a divergence here means the fast path processed different packets
   than the authoritative one and the speedup column is fiction. *)
let check_datapath_pairs path rows =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun row ->
      match row with
      | Obs.Json.Obj fields
        when List.assoc_opt "section" fields
             = Some (Obs.Json.String "runtime_datapath") -> (
          match
            ( List.assoc_opt "flows" fields,
              List.assoc_opt "datapath" fields,
              List.assoc_opt "checksum" fields )
          with
          | Some (Obs.Json.Int flows), Some (Obs.Json.String dp),
            Some (Obs.Json.Int cks) ->
              Hashtbl.add tbl flows (dp, cks)
          | _ -> () (* field-level errors already reported *))
      | _ -> ())
    rows;
  let seen = Hashtbl.create 8 in
  Hashtbl.iter
    (fun flows _ ->
      if not (Hashtbl.mem seen flows) then begin
        Hashtbl.add seen flows ();
        let arms = Hashtbl.find_all tbl flows in
        match
          ( List.filter (fun (dp, _) -> dp = "ref") arms,
            List.filter (fun (dp, _) -> dp = "flat") arms )
        with
        | [ (_, r) ], [ (_, f) ] ->
            if r <> f then
              err path
                "runtime_datapath: ref/flat checksums diverge at %d flows" flows
        | rs, fs ->
            err path
              "runtime_datapath: %d flows has %d ref / %d flat rows (want 1/1)"
              flows (List.length rs) (List.length fs)
      end)
    tbl

(* Cross-row: each runtime_shard scenario must carry a shards=1 row
   (the invariance baseline) and at least one shards>1 row, and every
   simulation-derived column must agree across the group — a scenario
   missing the pairing proves nothing about shard-count invariance,
   and a disagreeing column means a shard boundary leaked into a
   flow-table decision. *)
let check_shard_pairs path rows =
  let invariant_fields =
    [ "partitions"; "capacity"; "flows"; "arrivals_per_epoch"; "epochs";
      "packets"; "peak_concurrent"; "occupancy_peak"; "admitted"; "evicted";
      "denied"; "completed"; "quacks"; "checksum" ]
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun row ->
      match row with
      | Obs.Json.Obj fields
        when List.assoc_opt "section" fields
             = Some (Obs.Json.String "runtime_shard") -> (
          match
            (List.assoc_opt "scenario" fields, List.assoc_opt "shards" fields)
          with
          | Some (Obs.Json.String sc), Some (Obs.Json.Int shards) ->
              let key =
                List.map (fun f -> List.assoc_opt f fields) invariant_fields
              in
              Hashtbl.add tbl sc (shards, key)
          | _ -> () (* field-level errors already reported *))
      | _ -> ())
    rows;
  let seen = Hashtbl.create 8 in
  Hashtbl.iter
    (fun sc _ ->
      if not (Hashtbl.mem seen sc) then begin
        Hashtbl.add seen sc ();
        let runs = Hashtbl.find_all tbl sc in
        let base = List.filter (fun (s, _) -> s = 1) runs in
        let multi = List.filter (fun (s, _) -> s > 1) runs in
        match (base, multi) with
        | [ (_, bkey) ], _ :: _ ->
            List.iter
              (fun (shards, key) ->
                if key <> bkey then
                  err path
                    "runtime_shard: scenario %S diverges from shards=1 at \
                     shards=%d"
                    sc shards)
              multi
        | bs, ms ->
            err path
              "runtime_shard: scenario %S has %d shards=1 / %d shards>1 rows \
               (want exactly 1 baseline and at least 1 comparison)"
              sc (List.length bs) (List.length ms)
      end)
    tbl

(* Cross-row: the handover family must carry all three arms exactly
   once and the multipath family both of its arms; and the relations
   the families exist to demonstrate must actually hold in the data —
   the transfer arm's state continuity costs no more server resyncs
   than the resync arm's restart, only the transfer arm pays control
   bytes, only migrated arms migrate, and the split arm's folded
   decode must have fired (a split run that never folds proved
   nothing about Psum.merge). *)
let check_handover_arms path rows =
  let handover = Hashtbl.create 4 and multipath = Hashtbl.create 4 in
  List.iter
    (fun row ->
      match row with
      | Obs.Json.Obj fields
        when List.assoc_opt "section" fields
             = Some (Obs.Json.String "runtime_handover") -> (
          match
            (List.assoc_opt "scenario" fields, List.assoc_opt "arm" fields)
          with
          | Some (Obs.Json.String "handover"), Some (Obs.Json.String arm) ->
              Hashtbl.add handover arm fields
          | Some (Obs.Json.String "multipath"), Some (Obs.Json.String arm) ->
              Hashtbl.add multipath arm fields
          | _ -> () (* field-level errors already reported *))
      | _ -> ())
    rows;
  if Hashtbl.length handover = 0 && Hashtbl.length multipath = 0 then ()
  else begin
    let get tbl arm =
      match Hashtbl.find_all tbl arm with
      | [ fields ] -> Some fields
      | l ->
          err path "runtime_handover: %d %S rows (want exactly 1)"
            (List.length l) arm;
          None
    in
    let int_field fields name =
      match List.assoc_opt name fields with
      | Some (Obs.Json.Int v) -> Some v
      | _ -> None
    in
    (match (get handover "baseline", get handover "resync",
            get handover "transfer") with
    | Some base, Some resync, Some transfer ->
        (match int_field base "migrations" with
        | Some 0 -> ()
        | Some m ->
            err path "runtime_handover: baseline arm migrated %d flows" m
        | None -> ());
        (match (int_field resync "transfers", int_field transfer "transfers",
                int_field transfer "migrations") with
        | Some 0, Some t, Some m when t = m && m > 0 -> ()
        | Some rt, Some t, Some m ->
            err path
              "runtime_handover: transfers resync=%d (want 0), transfer=%d \
               (want = migrations %d > 0)"
              rt t m
        | _ -> ());
        (match (int_field transfer "srv_resyncs",
                int_field resync "srv_resyncs") with
        | Some t, Some r when t > r ->
            err path
              "runtime_handover: transfer arm resyncs (%d) exceed resync \
               arm's (%d) — snapshot continuity is not helping"
              t r
        | _ -> ());
        (match (int_field transfer "install_merges",
                int_field transfer "transfers") with
        | Some im, Some t when im > t ->
            err path
              "runtime_handover: install_merges (%d) exceed transfers (%d)"
              im t
        | _ -> ())
    | _ -> ());
    match (get multipath "split", get multipath "single_path") with
    | Some split, Some single ->
        (match (int_field split "path2_pkts", int_field split "folded_decodes")
         with
        | Some p2, Some f when p2 = 0 || f = 0 ->
            err path
              "runtime_handover: split arm never exercised the fold \
               (path2_pkts=%d folded_decodes=%d)"
              p2 f
        | _ -> ());
        (match (int_field single "path2_pkts",
                int_field single "folded_decodes") with
        | Some 0, Some 0 -> ()
        | Some p2, Some f ->
            err path
              "runtime_handover: single_path arm used path 2 \
               (path2_pkts=%d folded_decodes=%d)"
              p2 f
        | _ -> ())
    | _ -> ()
  end

(* Cross-row: the adversary family must carry its four arms exactly
   once and the leakage probe both of its arms; and the relations the
   family exists to enforce must hold in the data — the zero-rate arm
   sees no attacks and admits nothing, attack volume and admitted
   damage grow with the attack rate, the top-rate unauthenticated arm
   demonstrably admits attacker quACKs, the authenticated arm admits
   exactly zero while actually exercising the defences (tag rejections
   and guard drops both non-zero), and shaping buys the observer's
   accuracy down at a measurable cost in bytes. *)
let check_adversary_arms path rows =
  let adversary = Hashtbl.create 4 and leakage = Hashtbl.create 4 in
  List.iter
    (fun row ->
      match row with
      | Obs.Json.Obj fields
        when List.assoc_opt "section" fields
             = Some (Obs.Json.String "runtime_adversary") -> (
          match
            (List.assoc_opt "scenario" fields, List.assoc_opt "arm" fields)
          with
          | Some (Obs.Json.String "adversary"), Some (Obs.Json.String arm) ->
              Hashtbl.add adversary arm fields
          | Some (Obs.Json.String "leakage"), Some (Obs.Json.String arm) ->
              Hashtbl.add leakage arm fields
          | _ -> () (* field-level errors already reported *))
      | _ -> ())
    rows;
  if Hashtbl.length adversary = 0 && Hashtbl.length leakage = 0 then ()
  else begin
    let get tbl arm =
      match Hashtbl.find_all tbl arm with
      | [ fields ] -> Some fields
      | l ->
          err path "runtime_adversary: %d %S rows (want exactly 1)"
            (List.length l) arm;
          None
    in
    let int_field fields name =
      match List.assoc_opt name fields with
      | Some (Obs.Json.Int v) -> Some v
      | _ -> None
    in
    let float_field fields name =
      match List.assoc_opt name fields with
      | Some (Obs.Json.Float v) -> Some v
      | Some (Obs.Json.Int v) -> Some (float_of_int v)
      | _ -> None
    in
    (match (get adversary "unauth_rate0", get adversary "unauth_rate_half",
            get adversary "unauth", get adversary "auth") with
    | Some rate0, Some half, Some unauth, Some auth ->
        let attack_names =
          [ "attacks_spoofed"; "attacks_replayed"; "attacks_truncated";
            "attacks_bitflipped" ]
        in
        List.iter
          (fun name ->
            match int_field rate0 name with
            | Some 0 | None -> ()
            | Some v ->
                err path "runtime_adversary: zero-rate arm has %s=%d" name v)
          ("attacker_admitted" :: "attacker_resyncs" :: "malformed"
          :: attack_names);
        List.iter
          (fun name ->
            match (int_field half name, int_field unauth name) with
            | Some h, Some u when h > u ->
                err path
                  "runtime_adversary: %s not monotone in attack rate (%d at \
                   half, %d at full)"
                  name h u
            | _ -> ())
          ("attacker_admitted" :: attack_names);
        (match int_field unauth "attacker_admitted" with
        | Some v when v <= 0 ->
            err path
              "runtime_adversary: top-rate unauthenticated arm admitted no \
               attacker quACKs — the damage arm shows no damage"
        | _ -> ());
        (match int_field auth "attacker_admitted" with
        | Some 0 | None -> ()
        | Some v ->
            err path
              "runtime_adversary: authenticated arm admitted %d attacker \
               quACKs (must be 0)"
              v);
        (match int_field auth "malformed" with
        | Some 0 | None -> ()
        | Some v ->
            err path
              "runtime_adversary: authenticated arm decoded %d malformed \
               quACKs (tampering must die at the tag, not the codec)"
              v);
        (match (int_field auth "auth_rejected", int_field auth "replays_dropped")
         with
        | Some r, Some d when r <= 0 || d <= 0 ->
            err path
              "runtime_adversary: authenticated arm never exercised the \
               defences (auth_rejected=%d replays_dropped=%d)"
              r d
        | _ -> ());
        List.iter
          (fun (arm_name, fields) ->
            match
              (int_field fields "auth_rejected",
               int_field fields "replays_dropped")
            with
            | Some r, Some d when r <> 0 || d <> 0 ->
                err path
                  "runtime_adversary: unauthenticated arm %S reports \
                   defences firing (auth_rejected=%d replays_dropped=%d)"
                  arm_name r d
            | _ -> ())
          [ ("unauth_rate0", rate0); ("unauth_rate_half", half);
            ("unauth", unauth) ]
    | _ -> ());
    match (get leakage "unshaped", get leakage "shaped") with
    | Some unshaped, Some shaped ->
        (match (float_field unshaped "observer_accuracy",
                float_field shaped "observer_accuracy") with
        | Some u, Some s when s >= u ->
            err path
              "runtime_adversary: shaping did not reduce observer accuracy \
               (unshaped %.2f, shaped %.2f)"
              u s
        | _ -> ());
        (match (int_field unshaped "quack_bytes_on_wire",
                int_field shaped "quack_bytes_on_wire") with
        | Some u, Some s when s <= u ->
            err path
              "runtime_adversary: shaped arm claims accuracy reduction for \
               free (bytes unshaped %d, shaped %d)"
              u s
        | _ -> ());
        (match int_field unshaped "dummy_quacks" with
        | Some 0 | None -> ()
        | Some d ->
            err path "runtime_adversary: unshaped arm emitted %d dummies" d);
        (match int_field shaped "dummy_quacks" with
        | Some d when d <= 0 ->
            err path "runtime_adversary: shaped arm emitted no dummies"
        | _ -> ())
    | _ -> ()
  end

let check_bench path doc =
  match Obs.Json.member "rows" doc with
  | Some (Obs.Json.List []) -> err path "empty \"rows\""
  | Some (Obs.Json.List rows) ->
      List.iteri (check_row path) rows;
      check_datapath_pairs path rows;
      check_shard_pairs path rows;
      check_handover_arms path rows;
      check_adversary_arms path rows;
      if !errors = 0 then
        Printf.printf "benchcheck: %s: %d rows ok\n" path (List.length rows)
  | _ -> err path "missing \"rows\" list"

let check_violation path i = function
  | Obs.Json.Obj fields ->
      let str name =
        match List.assoc_opt name fields with
        | Some (Obs.Json.String s) ->
            if s = "" then err path "violation %d: %S is empty" i name
        | Some _ -> err path "violation %d: %S is not a string" i name
        | None -> err path "violation %d: missing %S" i name
      in
      let nat name =
        match List.assoc_opt name fields with
        | Some (Obs.Json.Int n) ->
            if n < 0 then err path "violation %d: %S is negative" i name
        | Some _ -> err path "violation %d: %S is not an integer" i name
        | None -> err path "violation %d: missing %S" i name
      in
      str "file";
      str "rule";
      str "message";
      nat "line";
      nat "col"
  | _ -> err path "violation %d: not an object" i

let check_lint path doc =
  let count name =
    match Obs.Json.member name doc with
    | Some (Obs.Json.Int n) when n >= 0 -> Some n
    | Some _ ->
        err path "%S is not a non-negative integer" name;
        None
    | None ->
        err path "missing %S" name;
        None
  in
  let files = count "files_checked" in
  (match files with
  | Some 0 ->
      err path "\"files_checked\" is zero: the lint walked nothing (bad path?)"
  | Some _ | None -> ());
  match Obs.Json.member "violations" doc with
  | Some (Obs.Json.List vs) ->
      List.iteri (check_violation path) vs;
      (match count "violation_count" with
      | Some n when n <> List.length vs ->
          err path "\"violation_count\" (%d) disagrees with the list (%d)" n
            (List.length vs)
      | Some _ | None -> ());
      if !errors = 0 then
        Printf.printf "benchcheck: %s: lint report ok (%d files, %d violations)\n"
          path
          (match files with Some n -> n | None -> 0)
          (List.length vs)
  | Some _ -> err path "\"violations\" is not a list"
  | None -> err path "missing \"violations\" list"

let json_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")

let check_history path =
  let before = !errors in
  let benchmark = Filename.concat (Filename.dirname path) "BENCHMARK.json" in
  let lines =
    List.filter_map
      (fun (n, l) ->
        match Obs.Json.of_string l with
        | Error e ->
            err path "line %d: unparseable: %s" n e;
            None
        | Ok j -> (
            match History.line_of_json j with
            | Ok line -> Some line
            | Error problems ->
                List.iter (err path "line %d: %s" n) problems;
                None))
      (json_lines path)
  in
  match Obs.Json.of_file benchmark with
  | Error e -> err path "cannot read %s: %s" benchmark e
  | Ok doc -> (
      match History.declared_of_json doc with
      | Error e -> err path "%s %s" benchmark e
      | Ok declared ->
          if !errors = before then begin
            List.iter (err path "%s") (History.check declared lines);
            if !errors = before then
              Printf.printf
                "benchcheck: %s: %d history lines ok, no regression beyond %s's bounds\n" path
                (List.length lines) benchmark
          end)

let check_file path =
  if Filename.check_suffix path ".jsonl" then check_history path
  else
    match Obs.Json.of_file path with
    | Error e -> err path "unparseable: %s" e
    | Ok doc -> (
        match Obs.Json.member "schema" doc with
        | Some (Obs.Json.String "sidecar-bench-1") -> check_bench path doc
        | Some (Obs.Json.String "sidecar-lint-1") -> check_lint path doc
        | Some (Obs.Json.String s) -> err path "unknown schema %S" s
        | _ -> err path "missing \"schema\" tag")

let () =
  match Array.to_list Sys.argv with
  | [ _; "--history-line"; label; runs ] -> (
      let records =
        List.filter_map
          (fun (_, l) -> Option.bind (Result.to_option (Obs.Json.of_string l)) History.run_of_json)
          (json_lines runs)
      in
      match History.summarise ~label records with
      | Ok line -> print_endline (Perf_bench.Ledger.one_line line)
      | Error e ->
          Printf.eprintf "benchcheck: %s: %s\n" runs e;
          exit 1)
  | _ :: (_ :: _ as paths) ->
      List.iter check_file paths;
      if !errors > 0 then begin
        Printf.eprintf "benchcheck: %d problem(s)\n" !errors;
        exit 1
      end
  | _ ->
      prerr_endline
        "usage: benchcheck FILE.json|FILE.jsonl ...\n\
        \       benchcheck --history-line LABEL RUNS.jsonl";
      exit 2
