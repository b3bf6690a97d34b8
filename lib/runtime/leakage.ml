module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Migration = Sidecar_protocols.Migration
module Adv = Sidecar_protocols.Adversary

type config = {
  shape : bool;  (** pace, pad and dummy-fill the quACK channel *)
  grid : Time.span;  (** shaping clock: one emission slot per tick *)
  pad_session : Time.span;
      (** shaping: keep the per-flow slot clock running (dummy-filled)
          until at least this long after flow start, so the quACK
          stream's lifetime stops tracking the flow's *)
  flows : int;
  table_flows : int;
  near : Path.segment;
  far : Path.segment;
  mss : int;
  min_units : int;  (** the small flow-size class *)
  max_units : int;  (** the large flow-size class *)
  arrival : Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Time.t;
}

let default_config =
  {
    shape = false;
    grid = Time.ms 50;
    pad_session = Time.s 8;
    flows = 40;
    table_flows = 40;
    near = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 10) ();
    far = Path.cellular;
    mss = 1460;
    min_units = 200;
    max_units = 2000;
    arrival = Workload.Poisson { mean_s = 0.05 };
    quack_every = 16;
    bits = 32;
    threshold = 16;
    count_bits = 16;
    seed = 1;
    until = Time.s 180;
  }

let arms base =
  [ ("unshaped", { base with shape = false }); ("shaped", { base with shape = true }) ]

type report = {
  shaped : bool;
  flows : int;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  quacks_on_wire : int;  (** sealed emissions the observer saw *)
  quack_bytes_on_wire : int;
  dummy_quacks : int;  (** shaping chaff (byte-identical re-emissions) *)
  replays_dropped : int;  (** chaff absorbed by the server's guard *)
  observer_accuracy : float;
      (** fraction of flows whose size class (small vs. large) a
          count-thresholding on-path observer labels correctly *)
  srv_resyncs : int;
  retransmissions : int;
  timeouts : int;
  sim_end : Time.t;
}

(* lower median of a non-empty array *)
let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.((Array.length s - 1) / 2)

let run (cfg : config) =
  if cfg.grid <= 0 then invalid_arg "Leakage.run: grid must be positive";
  if cfg.pad_session < 0 then invalid_arg "Leakage.run: negative pad_session";
  let path = Path.build ~seed:cfg.seed [ cfg.near; cfg.far ] in
  let { Path.engine; fwd; rev } = path in
  let n = cfg.flows in
  let key =
    Sidecar_hash.Sha256.digest_string
      (Printf.sprintf "quack-auth-key-%d" cfg.seed)
  in
  (* Bimodal sizes give the probe a crisp ground truth: each flow is
     either small or large, a fair coin per flow. The observer's job
     is to recover that bit from the quACK side channel alone. *)
  let pop =
    Population.create ~name:"Leakage" path ~flows:n ~sizes:Population.Bimodal
      ~min_units:cfg.min_units ~max_units:cfg.max_units ~arrival:cfg.arrival
      ~mss:cfg.mss ~id_key_base:0x51DE
      ~sketch:
        {
          Q.Sender_state.default_config with
          bits = cfg.bits;
          threshold = cfg.threshold;
          count_bits = cfg.count_bits;
        }
      ~sidecar:Population.Guarded ~client:None
      ~ack_link:(fun _ -> rev.(0))
      ()
  in

  (* ---- sidecar + shaping seam ------------------------------------- *)
  let protocol, _handle =
    Migration.make
      {
        Migration.addr = "sidecar";
        bits = cfg.bits;
        threshold = cfg.threshold;
        count_bits = cfg.count_bits;
        quack_every = cfg.quack_every;
        field = None;
      }
  in
  (* every sealed quACK is padded to the same wire size; the packed
     payload is already parameter-constant, so this mainly pins the
     envelope against future variable-size formats *)
  let pad_to =
    Q.Wire.packed_size ~bits:cfg.bits ~threshold:cfg.threshold
      ~count_bits:cfg.count_bits
    + Q.Wire.frame_overhead + Q.Wire.auth_overhead + Sframes.encapsulation
  in
  let pending : Packet.t option array = Array.make n None in
  let last_sealed : Packet.t option array = Array.make n None in
  let ticking = Array.make n false in
  let dummy_quacks = ref 0 in
  let send_out p = ignore (Link.send rev.(1) p) in
  (* One emission opportunity per grid tick per flow: the freshest
     genuine quACK if one is buffered (intermediate emissions coalesce
     — the sums are cumulative, so only decode granularity is lost),
     otherwise a byte-identical re-emission of the last one (chaff the
     server's replay guard silently absorbs). The clock runs until
     both the flow is done and [pad_session] has elapsed, so the
     observer sees a constant-rate, constant-size stream whose
     lifetime no longer tracks the flow's — every signal the probe
     thresholds on is flattened (NetShaper-style DP shaping is the
     rigorous end of this spectrum; this is the cheap end). *)
  let rec tick i () =
    (match pending.(i) with
    | Some p ->
        pending.(i) <- None;
        last_sealed.(i) <- Some p;
        send_out p
    | None -> (
        match last_sealed.(i) with
        | Some p ->
            incr dummy_quacks;
            send_out p
        | None -> ()));
    let now = Engine.now engine in
    let stop_at = Time.add (Population.start_at pop i) cfg.pad_session in
    if (not (Population.flow_done pop i) || now < stop_at) && now < cfg.until
    then Engine.schedule engine ~delay:cfg.grid (tick i)
  in
  let seal_backward p =
    match p.Packet.payload with
    | Sframes.Quack_frame { quack; dst = "server"; index; _ } ->
        let wire = Q.Wire.encode_framed quack in
        let tag = Q.Wire.tag ~key ~flow:p.Packet.flow ~index wire in
        let sealed =
          {
            p with
            Packet.payload = Adv.Sealed { wire; tag; index; origin = Adv.Proxy };
            size =
              (if cfg.shape then pad_to
               else
                 String.length wire + String.length tag + Sframes.encapsulation);
          }
        in
        if cfg.shape then begin
          let i = p.Packet.flow in
          pending.(i) <- Some sealed;
          if not ticking.(i) then begin
            ticking.(i) <- true;
            Engine.schedule engine ~delay:cfg.grid (tick i)
          end
        end
        else send_out sealed
    | _ -> send_out p
  in
  let proxy =
    Proxy.create engine ~capacity:cfg.table_flows ~policy:Flow_table.Lru
      ~protocol
      ~forward:(fun p -> ignore (Link.send fwd.(1) p))
      ~backward:seal_backward ()
  in

  (* ---- the on-path observer --------------------------------------- *)
  (* Knows nothing but what any wire element sees: flow tag, size,
     timing of the sealed quACK stream. *)
  let obs_count = Array.make n 0 in
  let obs_bytes = ref 0 in
  let obs_total = ref 0 in
  Link.set_tap rev.(1) (fun p ->
      match p.Packet.payload with
      | Adv.Sealed _ when p.Packet.flow >= 0 && p.Packet.flow < n ->
          obs_count.(p.Packet.flow) <- obs_count.(p.Packet.flow) + 1;
          obs_bytes := !obs_bytes + p.Packet.size;
          incr obs_total
      | _ -> ());

  (* ---- wiring ------------------------------------------------------ *)
  Population.attach_clients pop [ fwd.(1) ];
  Link.set_deliver fwd.(0) (fun p ->
      if p.Packet.flow >= 0 && p.Packet.flow < n then Proxy.on_ingress proxy p);
  Link.set_deliver rev.(0) (Proxy.on_return proxy);
  (* the authenticated server seam (both arms); shaping chaff is a
     replay its guard drops *)
  Link.set_deliver rev.(1)
    (Population.server_demux pop (fun i -> function
      | Adv.Sealed { wire; tag; index; _ } ->
          (if Q.Wire.verify_tag ~key ~flow:i ~index ~tag wire then
             match Q.Wire.decode_framed wire with
             | Error _ -> ()
             | Ok quack -> ignore (Population.consume pop i ~index quack));
          true
      | _ -> false));

  (* ---- run ---------------------------------------------------------- *)
  Population.start pop ~period:(Time.ms 500) ~on_start:ignore ~on_tick:ignore
    ~proxies:[ proxy ] ~until:cfg.until;
  Engine.run ~until:cfg.until engine;

  (* ---- summary + the observer's guess ------------------------------ *)
  let sum = Population.summary pop in
  (* size-class recovery from the quACK side channel alone: flows
     strictly above the median observed emission count are guessed
     "large" (strict, so a flattened shaped stream where most counts
     tie at the median collapses to the all-small guess rather than
     the all-large one) *)
  let count_median = median obs_count in
  let correct = ref 0 in
  for i = 0 to n - 1 do
    let truly_large = Population.units pop i > cfg.min_units in
    let guessed_large = obs_count.(i) > count_median in
    if truly_large = guessed_large then incr correct
  done;
  {
    shaped = cfg.shape;
    flows = n;
    completed = sum.Population.completed;
    fct_p50 = sum.Population.fct_p50;
    fct_p95 = sum.Population.fct_p95;
    fct_p99 = sum.Population.fct_p99;
    fct_mean = sum.Population.fct_mean;
    quacks_on_wire = !obs_total;
    quack_bytes_on_wire = !obs_bytes;
    dummy_quacks = !dummy_quacks;
    replays_dropped = sum.Population.srv_replays;
    observer_accuracy = float_of_int !correct /. float_of_int n;
    srv_resyncs = sum.Population.srv_resyncs;
    retransmissions = sum.Population.retransmissions;
    timeouts = sum.Population.timeouts;
    sim_end = Engine.now engine;
  }

let arm_name (r : report) = if r.shaped then "shaped" else "unshaped"

let json_report (r : report) =
  Obs.Json.Obj
    [
      ("arm", Obs.Json.String (arm_name r));
      ("flows", Obs.Json.Int r.flows);
      ("completed", Obs.Json.Int r.completed);
      ("fct_p50_s", Obs.Json.Float r.fct_p50);
      ("fct_p95_s", Obs.Json.Float r.fct_p95);
      ("fct_p99_s", Obs.Json.Float r.fct_p99);
      ("fct_mean_s", Obs.Json.Float r.fct_mean);
      ("quacks_on_wire", Obs.Json.Int r.quacks_on_wire);
      ("quack_bytes_on_wire", Obs.Json.Int r.quack_bytes_on_wire);
      ("dummy_quacks", Obs.Json.Int r.dummy_quacks);
      ("replays_dropped", Obs.Json.Int r.replays_dropped);
      ("observer_accuracy", Obs.Json.Float r.observer_accuracy);
      ("srv_resyncs", Obs.Json.Int r.srv_resyncs);
      ("retransmissions", Obs.Json.Int r.retransmissions);
      ("timeouts", Obs.Json.Int r.timeouts);
      ("sim_end_ns", Obs.Json.Int r.sim_end);
    ]

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>leakage arm=%s: %d/%d completed by %a@,\
     fct p50 %.3fs p95 %.3fs p99 %.3fs mean %.3fs@,\
     observer: %d quACKs (%d B) on the wire, %d dummies, accuracy %.2f@,\
     server: %d resyncs, %d chaff replays dropped; retx %d, timeouts %d@]"
    (arm_name r) r.completed r.flows Time.pp r.sim_end r.fct_p50 r.fct_p95
    r.fct_p99 r.fct_mean r.quacks_on_wire r.quack_bytes_on_wire r.dummy_quacks
    r.observer_accuracy r.srv_resyncs r.replays_dropped r.retransmissions
    r.timeouts
