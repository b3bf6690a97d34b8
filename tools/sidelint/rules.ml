(* The sidelint rule families, implemented as a single AST walk plus
   the flow-sensitive Sidespec passes (Dataflow, Contracts).

   Scoping is decided from the file's path segments, so the same rules
   apply to fixture trees used by the self-tests:
     - a path containing a "lib" segment is library code, whether that
       path is "lib/core/psum.ml" from the repo root or
       "fixtures/lib/core/bad_field.ml" inside test/lint — fixture
       trees self-test with the exact production scoping;
     - "lib" followed by a "core" segment is quACK core code, "exec"
       the deterministic work pool, "field" the Modular implementation;
     - everything else (bin/, bench/, tools/, test/ support code) only
       gets the path-neutral checks (parse + partial accessors).
   The walker in sidelint.ml skips directories *named* "fixtures" while
   recursing, so `dune build @lint` can cover test/ without tripping on
   the seeded trees; the self-test reaches them by passing
   "fixtures/lib" as an explicit root.

   Suppression: a violation is dropped when the offending line, the
   line directly above it, or any line of the comment block ending
   directly above it contains the marker "sidelint: allow"
   (conventionally written as an OCaml comment with a justification). *)

(* Bound before [open Ppxlib]: ppxlib also exports a (deprecated)
   [Dataflow] module that would otherwise shadow ours. *)
module Flow = Dataflow

open Ppxlib

let allow_marker = "sidelint: allow"

type ctx = {
  path : string;  (* as reported, forward slashes *)
  in_lib : bool;
  in_core : bool;
  in_exec : bool;  (* lib/exec: the deterministic work pool *)
  in_field : bool;  (* lib/field: implements the reduced arithmetic *)
  determinism_exempt : bool;  (* the blessed randomness/clock modules *)
  field_scoped : bool;  (* lib/core module importing the Field/Modular API *)
  strict : bool;  (* also flag additive ops and applied polymorphic = *)
  source_lines : string array;  (* 0-indexed raw lines, for the escape hatch *)
  mutable violations : Report.violation list;
}

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let segments path = String.split_on_char '/' path

let has_suffix_path path suffix =
  let p = segments path and s = segments suffix in
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  drop (List.length p - List.length s) p = s

(* Files where nondeterministic primitives are the point: the explicit
   RNG wrapper and the virtual clock. *)
let determinism_allowlist = [ "netsim/rng.ml"; "netsim/sim_time.ml" ]

let make_ctx ~path ~source ~strict =
  let segs = segments path in
  let in_lib = List.mem "lib" segs in
  let lib_scope sub =
    let rec after_lib = function
      | "lib" :: rest -> List.mem sub rest
      | _ :: rest -> after_lib rest
      | [] -> false
    in
    after_lib segs
  in
  let in_core = lib_scope "core" in
  let in_exec = lib_scope "exec" in
  let in_field = lib_scope "field" in
  {
    path;
    in_lib;
    in_core;
    in_exec;
    in_field;
    determinism_exempt =
      List.exists (has_suffix_path path) determinism_allowlist;
    field_scoped = in_core && contains_substring source "Modular";
    strict;
    source_lines = Array.of_list (String.split_on_char '\n' source);
    violations = [];
  }

let count_occurrences line needle =
  let nl = String.length line and nn = String.length needle in
  let rec go i acc =
    if i + nn > nl then acc
    else if String.sub line i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let line_allows ctx l =
  let n = Array.length ctx.source_lines in
  let line i = if i >= 1 && i <= n then ctx.source_lines.(i - 1) else "" in
  let has i = contains_substring (line i) allow_marker in
  (* Same line, the line above, or any line of the comment block that
     ends directly above the violation. The block is delimited by
     comment nesting, not a fixed upward scan: walking up from [l-1],
     each "*)" still to resolve raises the depth and each "(*" lowers
     it, so a marker survives nested "(* ... *)" inside the
     justification and blocks of any length (bounded at 200 lines). *)
  has l || has (l - 1)
  || (let ends_comment i =
        let t = String.trim (line i) in
        String.length t >= 2 && String.sub t (String.length t - 2) 2 = "*)"
      in
      ends_comment (l - 1)
      && (let rec scan i depth found =
            if i < 1 || l - i > 200 then false
            else
              let found = found || has i in
              let depth =
                depth
                + count_occurrences (line i) "*)"
                - count_occurrences (line i) "(*"
              in
              if depth <= 0 then found (* the block opens on this line *)
              else scan (i - 1) depth found
          in
          scan (l - 1) 0 false))

let report ctx (loc : Location.t) rule message =
  let line = loc.loc_start.pos_lnum in
  if not (line_allows ctx line) then
    ctx.violations <-
      {
        Report.file = ctx.path;
        line;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        rule;
        message;
      }
      :: ctx.violations

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)

let flatten lid = try Longident.flatten_exn lid with _ -> []

(* Strip a leading Stdlib. so [Stdlib.Random.int] and [Random.int]
   classify identically. *)
let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

let nondeterministic_ident = function
  | "Random" :: _ ->
      Some "Stdlib.Random is seeded globally; use Netsim.Rng so runs replay from a seed"
  | [ "Sys"; "time" ] ->
      Some "Sys.time reads the process clock; use Netsim.Sim_time (virtual time)"
  | [ "Unix"; ("gettimeofday" | "time" | "gmtime" | "localtime") ] ->
      Some "wall-clock reads diverge across runs; use Netsim.Sim_time (virtual time)"
  | [ "Hashtbl"; "hash" ] ->
      Some
        "Hashtbl.hash output depends on value representation details; derive \
         an explicit hash"
  | [ "Hashtbl"; ("seeded_hash" | "randomize") ] ->
      Some "randomized hashing breaks replayability"
  | _ -> None

let partial_ident = function
  | [ "List"; "hd" ] -> Some "List.hd raises on []; match or use a total accessor"
  | [ "List"; "nth" ] -> Some "List.nth raises out of range; match or index an array"
  | [ "Option"; "get" ] -> Some "Option.get raises on None; match on the option"
  | _ -> None

let effectful_ident = function
  | [ ("print_endline" | "print_string" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes") as f ] ->
      Some (f ^ " writes to stdout from library code; use Obs.Metrics or Obs.Trace")
  | [ ("prerr_endline" | "prerr_string" | "prerr_newline") as f ] ->
      Some (f ^ " writes to stderr from library code; use Obs.Metrics or Obs.Trace")
  | [ "Printf"; ("printf" | "eprintf") ]
  | [ "Format"; ("printf" | "eprintf") ] ->
      Some
        "direct console output from library code; return data or use \
         Obs.Metrics/Trace (pp functions over an explicit formatter are fine)"
  | [ "Format"; ("std_formatter" | "err_formatter") ] | [ ("stdout" | "stderr") ]
    ->
      Some "library code must not capture the console; take a formatter argument"
  | _ -> None

(* The §3.3 decode-else-resync rule is written once, in
   Sidecar_quack.Quack_consumer; library code outside lib/core calls
   the consumer instead of driving the sender state by hand. *)
let bypasses_consumer name =
  match List.rev name with
  | ("on_quack" | "resync_to") :: "Sender_state" :: _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Sidespec passes: contracts, state escape, field provenance          *)

let check_sidespec ctx str =
  let contracts = Contracts.of_structure str in
  (* Contract declarations are validated everywhere they appear, and
     each must carry its Invariant.check runtime twin. *)
  Contracts.check
    ~report:(fun loc msg -> report ctx loc "sidespec" msg)
    contracts str;
  (* Module-level mutable state: lib/exec keeps the strict
     domain-sharing rule; the rest of lib/ gets the escape analysis
     (hidden global state breaks replay and isolation), with
     [@@@sidespec "state <binding>: why"] as the principled bless. *)
  if ctx.in_exec then
    Flow.check_module_state ~exec:true ~blessed:contracts.Contracts.blessed
      ~report:(fun loc what ->
        report ctx loc "exec-isolation"
          (what
         ^ " at module level in lib/exec is shared across worker domains; \
            allocate it per pool or per task (ctx)"))
      str
  else if ctx.in_lib then
    Flow.check_module_state ~exec:false ~blessed:contracts.Contracts.blessed
      ~report:(fun loc what ->
        report ctx loc "state-escape"
          (what
         ^ " at module level is hidden global state: it escapes the value \
            graph and survives across runs, breaking replay and isolation; \
            thread it through a record, or bless a deliberate global with \
            [@@@sidespec \"state <binding>: why\"]"))
      str;
  (* Field-element provenance: every value that left the Modular API
     reduced must stay inside it. lib/field implements the API and is
     audited line by line, so the pass covers everything else in lib. *)
  if ctx.in_lib && not ctx.in_field then
    Flow.check_provenance
      ~report:(fun loc msg -> report ctx loc "field-provenance" msg)
      str

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

let loc_key (loc : Location.t) = (loc.loc_start.pos_cnum, loc.loc_end.pos_cnum)

let check_structure ctx str =
  check_sidespec ctx str;
  (* Identifier occurrences that are the head of an application; used to
     distinguish [compare a b] (fine) from [compare] passed as a value
     (polymorphic comparison smuggled into a sort or a Hashtbl). *)
  let applied_heads : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let iter =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { loc; _ }; _ }, _) ->
            Hashtbl.replace applied_heads (loc_key loc) ()
        | _ -> ());
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
            let name = strip_stdlib (flatten txt) in
            let applied = Hashtbl.mem applied_heads (loc_key loc) in
            (* determinism *)
            if ctx.in_lib && not ctx.determinism_exempt then
              (match nondeterministic_ident name with
              | Some msg ->
                  report ctx loc "determinism"
                    (String.concat "." name ^ ": " ^ msg)
              | None -> ());
            (* totality: partial accessors everywhere, failwith in lib *)
            (match partial_ident name with
            | Some msg -> report ctx loc "totality" msg
            | None -> ());
            if ctx.in_lib && name = [ "failwith" ] then
              report ctx loc "totality"
                "failwith in library code; raise Invalid_argument with context \
                 or return a Result";
            (* one quACK consumer *)
            if ctx.in_lib && (not ctx.in_core) && bypasses_consumer name then
              report ctx loc "quack-consumer"
                (String.concat "." name
                ^ " outside lib/core re-implements the §3.3 decode-else-resync \
                   rule; consume quACKs through Sidecar_quack.Quack_consumer");
            (* effect hygiene *)
            if ctx.in_lib then (
              match effectful_ident name with
              | Some msg -> report ctx loc "effect-hygiene" msg
              | None -> ());
            (* exec isolation: Obs's process-wide registers are
               domain-local, so reading them from pool code silently
               drops worker data *)
            if ctx.in_exec then (
              match name with
              | [ "Obs"; "Sink"; "last" ] | [ "Sink"; "last" ] ->
                  report ctx loc "exec-isolation"
                    "Obs.Sink.last reads a domain-local register; worker \
                     results must flow through the task's ctx.sink"
              | _ -> ());
            (* field safety *)
            if ctx.field_scoped then (
              (match name with
              | [ ("*" | "mod") as op ] ->
                  report ctx loc "field-safety"
                    (Printf.sprintf
                       "raw (%s) in a field-bearing module; use the Modular \
                        API (16-bit-split mul keeps intermediates < 2^49)"
                       op)
              | [ "+" ] when ctx.strict ->
                  report ctx loc "field-safety"
                    "raw (+) in a field-bearing module (strict); use \
                     Modular.add so sums stay reduced"
              | [ ("==" | "!=") as op ] ->
                  report ctx loc "field-safety"
                    (Printf.sprintf
                       "physical equality (%s) in a field-bearing module; use \
                        F.equal or structural comparison on ints"
                       op)
              | _ -> ());
              match name with
              | [ ("compare" | "=" | "<>") as op ]
                when (not applied) || ctx.strict ->
                  report ctx loc "field-safety"
                    (Printf.sprintf
                       "polymorphic %s (%s) in a field-bearing module; use \
                        F.compare/F.equal or Int.compare"
                       (if applied then "comparison" else "comparison passed as a value")
                       op)
              | _ -> ())
        | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); pexp_loc; _ }
          when ctx.in_lib ->
            report ctx pexp_loc "totality"
              "assert false in library code; make the case impossible by \
               construction or raise with context"
        | _ -> ());
        super#expression e
    end
  in
  iter#structure str

let run ~path ~source ~strict =
  let ctx = make_ctx ~path ~source ~strict in
  (match
     let lexbuf = Lexing.from_string source in
     Lexing.set_filename lexbuf path;
     Parse.implementation lexbuf
   with
  | str -> check_structure ctx str
  | exception _ ->
      ctx.violations <-
        [ { Report.file = path; line = 1; col = 0; rule = "parse";
            message = "could not parse file" } ]);
  List.sort Report.compare_violation ctx.violations
