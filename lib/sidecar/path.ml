module Engine = Netsim.Engine
module Link = Netsim.Link
module Loss = Netsim.Loss
module Time = Netsim.Sim_time

type loss_spec =
  | No_loss
  | Bernoulli of float
  | Gilbert of { p_good_to_bad : float; p_bad_to_good : float; loss_bad : float }

let to_loss = function
  | No_loss -> Loss.none
  | Bernoulli p -> Loss.bernoulli p
  | Gilbert { p_good_to_bad; p_bad_to_good; loss_bad } ->
      Loss.gilbert_elliott ~loss_bad ~p_good_to_bad ~p_bad_to_good ()

let average_loss spec = Loss.average_rate (to_loss spec)

(* The stationary bad-state share is avg / loss_bad; solve the chain's
   balance pi_bad = p_gb / (p_gb + p_bg) for p_gb. Every avg the chain
   cannot reach (negative, NaN, or about 0.25 and up) puts p_gb outside
   [0, 1] or at NaN. *)
let bursty avg =
  if avg = 0. then No_loss
  else begin
    let loss_bad = 0.3 and p_bad_to_good = 0.2 in
    let pi_bad = avg /. loss_bad in
    let p_good_to_bad = pi_bad *. p_bad_to_good /. (1. -. pi_bad) in
    if not (p_good_to_bad >= 0. && p_good_to_bad <= 1.) then
      invalid_arg
        (Printf.sprintf "Path.bursty: average loss %g out of range [0, 0.25)" avg);
    Gilbert { p_good_to_bad; p_bad_to_good; loss_bad }
  end

let pp_loss ppf = function
  | No_loss -> Format.pp_print_string ppf "0%"
  | Bernoulli p -> Format.fprintf ppf "%.2f%%" (100. *. p)
  | Gilbert _ as g -> Format.fprintf ppf "GE(%.2f%% avg)" (100. *. average_loss g)

type segment = {
  rate_bps : int;
  delay : Time.span;
  loss : loss_spec;
  rev_loss : loss_spec;
  codel : bool;
}

let check_loss what = function
  | No_loss -> ()
  | Bernoulli p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg
          (Printf.sprintf "Path.segment: %s Bernoulli probability %g not in [0, 1]"
             what p)
  | Gilbert { p_good_to_bad; p_bad_to_good; loss_bad } ->
      let check name p =
        if not (p >= 0. && p <= 1.) then
          invalid_arg
            (Printf.sprintf "Path.segment: %s Gilbert %s %g not in [0, 1]" what
               name p)
      in
      check "p_good_to_bad" p_good_to_bad;
      check "p_bad_to_good" p_bad_to_good;
      check "loss_bad" loss_bad

let segment ?(loss = No_loss) ?(rev_loss = No_loss) ?(codel = false) ~rate_bps ~delay () =
  if rate_bps <= 0 then
    invalid_arg (Printf.sprintf "Path.segment: rate %d bps not positive" rate_bps);
  if delay < 0 then
    invalid_arg (Printf.sprintf "Path.segment: negative delay %d ns" delay);
  check_loss "forward" loss;
  check_loss "reverse" rev_loss;
  { rate_bps; delay; loss; rev_loss; codel }

let rtt segments = 2 * List.fold_left (fun acc s -> acc + s.delay) 0 segments

(* High-BDP presets for the mobility/multipath scenario families
   (paper §5): long-delay links whose loss comes in bursts, so the
   quACK threshold and the tail-in-flight grace actually get
   exercised. Values are representative, not measured: a GEO satellite
   hop (~280 ms one-way, deep but rare bad states) and a cellular/LTE
   last mile (~40 ms, shallower but more frequent bursts). *)
let satellite =
  segment ~rate_bps:20_000_000 ~delay:(Time.ms 280)
    ~loss:
      (Gilbert { p_good_to_bad = 0.002; p_bad_to_good = 0.3; loss_bad = 0.5 })
    ()

let cellular =
  segment ~rate_bps:30_000_000 ~delay:(Time.ms 40)
    ~loss:
      (Gilbert { p_good_to_bad = 0.01; p_bad_to_good = 0.25; loss_bad = 0.3 })
    ()

(* A congested cell: same delay class as [cellular] (handing over or
   splitting across it keeps the sender's one RTT estimator honest)
   but a markedly worse loss regime. *)
let congested_cell =
  segment ~rate_bps:25_000_000 ~delay:(Time.ms 50)
    ~loss:
      (Gilbert { p_good_to_bad = 0.02; p_bad_to_good = 0.2; loss_bad = 0.3 })
    ()

type built = { engine : Engine.t; fwd : Link.t array; rev : Link.t array }

let build ?(seed = 1) segments =
  let engine = Engine.create ~seed () in
  let fwd =
    Array.of_list
      (List.mapi
         (fun i s ->
           let aqm = if s.codel then Some (Netsim.Aqm.create ()) else None in
           Link.create engine
             ~name:(Printf.sprintf "fwd%d" i)
             ~rate_bps:s.rate_bps ~delay:s.delay ~loss:(to_loss s.loss) ?aqm ())
         segments)
  in
  let rev =
    Array.of_list
      (List.mapi
         (fun i s ->
           Link.create engine
             ~name:(Printf.sprintf "rev%d" i)
             ~rate_bps:s.rate_bps ~delay:s.delay ~loss:(to_loss s.rev_loss) ())
         (List.rev segments))
  in
  { engine; fwd; rev }

let baseline ?seed ?(units = 2000) ?(mss = 1460) ?(ack_every = 2) ?cc
    ?(until = Time.s 300) segments =
  let { engine; fwd; rev } = build ?seed segments in
  let n = Array.length fwd in
  (* chain forward links: junction i forwards fwd.(i) -> fwd.(i+1) *)
  for i = 0 to n - 2 do
    Link.set_deliver fwd.(i) (fun p -> ignore (Link.send fwd.(i + 1) p))
  done;
  for i = 0 to n - 2 do
    Link.set_deliver rev.(i) (fun p -> ignore (Link.send rev.(i + 1) p))
  done;
  let cc = Option.map (fun f -> f ~mss:(mss + 40) ()) cc in
  let sender =
    Transport.Sender.create engine ~mss ?cc ~total_units:units
      ~egress:(fun p -> ignore (Link.send fwd.(0) p))
      ()
  in
  let receiver =
    Transport.Receiver.create engine ~ack_every ~total_units:units
      ~send_ack:(fun p -> ignore (Link.send rev.(0) p))
      ()
  in
  Link.set_deliver fwd.(n - 1) (Transport.Receiver.deliver receiver);
  Link.set_deliver rev.(n - 1) (Transport.Sender.deliver_ack sender);
  Transport.Flow.run engine ~sender ~receiver ~until ()
