module Task = Kernel.Task

type request = { arrival : int; service : int }

type t = {
  kernel : Kernel.t;
  rng : Sim.Rng.t;
  mutable rate : float;
  service : Sim.Dist.t;
  rec_ : Recorder.t;
  mutable pool : request Pool.t option;
  mutable offered : int;
  mutable record_after : int;
  mutable on_complete : (now:int -> arrival:int -> unit) option;
}

let pool t = match t.pool with Some p -> p | None -> assert false
let recorder t = t.rec_
let offered t = t.offered
let workers t = Pool.tasks (pool t)
let set_record_after t time = t.record_after <- time

let rate t = t.rate

let set_rate t rate =
  if not (rate > 0.0 && Float.is_finite rate) then
    invalid_arg "Openloop.set_rate: rate must be finite and positive";
  t.rate <- rate
let set_on_complete t fn = t.on_complete <- fn

let arrival t =
  let now = Kernel.now t.kernel in
  let service = Sim.Dist.sample_ns t.rng t.service in
  t.offered <- t.offered + 1;
  Pool.submit (pool t) { arrival = now; service }

let start t ~until =
  let engine = Kernel.engine t.kernel in
  let rec tick () =
    if Sim.Engine.now engine < until then begin
      arrival t;
      let gap = Sim.Rng.exponential t.rng ~mean:(1e9 /. t.rate) in
      ignore (Sim.Engine.post_in engine ~delay:(Int.max 1 (int_of_float gap)) tick)
    end
  in
  let first = Sim.Rng.exponential t.rng ~mean:(1e9 /. t.rate) in
  ignore (Sim.Engine.post_in engine ~delay:(Int.max 1 (int_of_float first)) tick)

let create kernel ~seed ~rate ~service ~nworkers ~spawn =
  if not (rate > 0.0 && Float.is_finite rate) then
    invalid_arg "Openloop.create: rate must be finite and positive";
  let t =
    {
      kernel;
      rng = Sim.Rng.create seed;
      rate;
      service;
      rec_ = Recorder.create ();
      pool = None;
      offered = 0;
      record_after = 0;
      on_complete = None;
    }
  in
  let work (req : request) (_task : Task.t) = [ Pool.Compute req.service ] in
  let on_done (req : request) =
    if req.arrival >= t.record_after then begin
      Recorder.record t.rec_ ~now:(Kernel.now kernel) ~arrival:req.arrival;
      match t.on_complete with
      | Some fn -> fn ~now:(Kernel.now kernel) ~arrival:req.arrival
      | None -> ()
    end
  in
  t.pool <- Some (Pool.create kernel ~n:nworkers ~spawn ~work ~on_done ());
  t
