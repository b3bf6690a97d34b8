(* Node-layer tests: segment validation, chain arity, and the
   pass-through equivalence property (a chain of identity nodes is
   behaviourally the bare baseline, for any path and seed). *)

open Sidecar_protocols
module Time = Netsim.Sim_time

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_segment_validation () =
  expect_invalid "zero rate" (fun () ->
      Path.segment ~rate_bps:0 ~delay:(Time.ms 1) ());
  expect_invalid "negative rate" (fun () ->
      Path.segment ~rate_bps:(-5) ~delay:(Time.ms 1) ());
  expect_invalid "negative delay" (fun () ->
      Path.segment ~rate_bps:1_000_000 ~delay:(-1) ());
  expect_invalid "loss below range" (fun () ->
      Path.segment ~rate_bps:1_000_000 ~delay:(Time.ms 1)
        ~loss:(Path.Bernoulli (-0.1)) ());
  expect_invalid "loss above range" (fun () ->
      Path.segment ~rate_bps:1_000_000 ~delay:(Time.ms 1)
        ~loss:(Path.Bernoulli 1.5) ());
  expect_invalid "loss nan" (fun () ->
      Path.segment ~rate_bps:1_000_000 ~delay:(Time.ms 1)
        ~loss:(Path.Bernoulli Float.nan) ());
  expect_invalid "rev loss out of range" (fun () ->
      Path.segment ~rate_bps:1_000_000 ~delay:(Time.ms 1)
        ~rev_loss:(Path.Bernoulli 2.) ());
  expect_invalid "gilbert out of range" (fun () ->
      Path.segment ~rate_bps:1_000_000 ~delay:(Time.ms 1)
        ~loss:
          (Path.Gilbert
             { p_good_to_bad = 1.2; p_bad_to_good = 0.5; loss_bad = 0.3 })
        ());
  (* boundary values are fine *)
  ignore
    (Path.segment ~rate_bps:1 ~delay:0 ~loss:(Path.Bernoulli 0.)
       ~rev_loss:(Path.Bernoulli 1.) ())

(* The §2.3 bursty subpath: the Gilbert–Elliott chain it derives has
   the requested average, zero means no loss model at all, and a rate
   the chain cannot reach is refused, not clamped. *)
let test_bursty () =
  for i = 0 to 249 do
    let a = float_of_int i /. 1000. in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "average of bursty %g" a)
      a
      (Path.average_loss (Path.bursty a))
  done;
  Alcotest.(check bool) "bursty 0 is No_loss" true (Path.bursty 0. = Path.No_loss);
  expect_invalid "negative average" (fun () -> Path.bursty (-0.1));
  expect_invalid "average 0.25" (fun () -> Path.bursty 0.25)

let test_chain_arity () =
  let seg = Path.segment ~rate_bps:10_000_000 ~delay:(Time.ms 1) () in
  expect_invalid "too few nodes" (fun () ->
      Chain.run ~units:1 [ seg; seg ]);
  expect_invalid "too many nodes" (fun () ->
      Chain.run ~units:1
        ~nodes:[ Node.pass_through; Node.pass_through ]
        [ seg; seg ])

(* ---- pass-through equivalence ---------------------------------- *)

let gen_segment =
  QCheck.Gen.(
    let* rate_mbps = int_range 5 100 in
    let* delay_ms = int_range 1 30 in
    let* loss_pct = float_bound_inclusive 0.03 in
    let* rev_loss_pct = float_bound_inclusive 0.01 in
    return
      (Path.segment
         ~rate_bps:(rate_mbps * 1_000_000)
         ~delay:(Time.ms delay_ms)
         ~loss:(Path.Bernoulli loss_pct)
         ~rev_loss:(Path.Bernoulli rev_loss_pct)
         ()))

let gen_case =
  QCheck.Gen.(
    let* segments = list_size (int_range 1 3) gen_segment in
    let* seed = int_range 1 10_000 in
    return (segments, seed))

let arb_case =
  QCheck.make gen_case ~print:(fun (segments, seed) ->
      Printf.sprintf "seed %d, %d segment(s): %s" seed (List.length segments)
        (String.concat "; "
           (List.map
              (fun (s : Path.segment) ->
                Printf.sprintf "%d bps, %d ns" s.Path.rate_bps
                  s.Path.delay)
              segments)))

let qcheck_pass_through =
  [
    QCheck.Test.make ~name:"pass-through chain = baseline" ~count:25 arb_case
      (fun (segments, seed) ->
        let units = 300 in
        let base = Path.baseline ~seed ~units segments in
        let chained =
          Chain.run ~seed ~units
            ~nodes:
              (List.init
                 (List.length segments - 1)
                 (fun _ -> Node.pass_through))
            segments
        in
        chained.Chain.flow = base);
  ]

let () =
  Alcotest.run "sidecar_node"
    [
      ( "path",
        [
          Alcotest.test_case "segment validation" `Quick
            test_segment_validation;
          Alcotest.test_case "bursty loss" `Quick test_bursty;
        ] );
      ("chain", [ Alcotest.test_case "arity" `Quick test_chain_arity ]);
      ( "pass-through-props",
        List.map QCheck_alcotest.to_alcotest qcheck_pass_through );
    ]
