type t = {
  mutable clock : Sim_time.t;
  events : (unit -> unit) Event_heap.t;
  rng : Rng.t;
  mutable stopped : bool;
  obs : Obs.Sink.t;
  events_fired : Obs.Metrics.Counter.t;
}

let create ?(seed = 1) ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.Sink.create () in
  let metrics = Obs.Sink.metrics obs in
  let events_fired = Obs.Metrics.counter metrics "engine.events_fired" in
  let t =
    {
      clock = Sim_time.zero;
      events = Event_heap.create ~filler:ignore;
      rng = Rng.create seed;
      stopped = false;
      obs;
      events_fired;
    }
  in
  Obs.Metrics.int_source metrics "engine.pending" (fun () ->
      Event_heap.size t.events);
  Obs.Metrics.int_source metrics "engine.now_ns" (fun () -> t.clock);
  t

let now t = t.clock
let rng t = t.rng
let obs t = t.obs
let metrics t = Obs.Sink.metrics t.obs
let trace t = Obs.Sink.trace t.obs

let schedule_at t time f =
  let time = if time < t.clock then t.clock else time in
  Event_heap.push t.events ~time f

let schedule t ~delay f =
  let delay = if delay < 0 then 0 else delay in
  Event_heap.push t.events ~time:(Sim_time.add t.clock delay) f

let pending t = Event_heap.size t.events
let stop t = t.stopped <- true

let run ?until ?(max_events = 200_000_000) t =
  t.stopped <- false;
  let limit = match until with Some l -> l | None -> max_int in
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    if t.stopped || !fired >= max_events then continue := false
    else if Event_heap.is_empty t.events then begin
      (* Heap drained before the horizon: the simulation is idle for
         the rest of the window, so the clock still advances to
         [until] — callers computing durations or rates from [now]
         after a run must see the full window, not the instant of the
         last event. *)
      (match until with Some l when l > t.clock -> t.clock <- l | _ -> ());
      continue := false
    end
    else begin
      let time = Event_heap.min_time t.events in
      if time > limit then begin
        t.clock <- limit;
        continue := false
      end
      else begin
        let f = Event_heap.pop_min t.events in
        t.clock <- time;
        incr fired;
        Obs.Metrics.Counter.incr t.events_fired;
        f ()
      end
    end
  done
