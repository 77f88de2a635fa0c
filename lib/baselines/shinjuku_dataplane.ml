type req = { arrival : int; mutable remaining : int }

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  nworkers : int;
  timeslice : int;
  fifo : req Queue.t;
  mutable free_workers : int;
  rec_ : Workloads.Recorder.t;
  mutable offered : int;
  mutable record_after : int;
}

let recorder t = t.rec_
let offered t = t.offered
let set_record_after t time = t.record_after <- time
let cpus_occupied t = t.nworkers + 2 (* workers + the dispatcher's core *)

let complete t req =
  let now = Sim.Engine.now t.engine in
  if req.arrival >= t.record_after then
    Workloads.Recorder.record t.rec_ ~now ~arrival:req.arrival

(* A dispatch is a cache-line ping; a preemption a Dune posted interrupt. *)
let dispatch_cost = 600
let preempt_cost = 2_000

(* Run [req] on a worker for up to one timeslice; at expiry the dispatcher
   posts an interrupt and the request returns to the FIFO tail. *)
let rec run_on_worker t req =
  let slice = min req.remaining t.timeslice in
  let expiring = req.remaining > t.timeslice in
  let busy = dispatch_cost + slice + if expiring then preempt_cost else 0 in
  ignore
    (Sim.Engine.post_in t.engine ~delay:busy (fun () ->
         req.remaining <- req.remaining - slice;
         if req.remaining <= 0 then complete t req
         else Queue.push req t.fifo;
         match Queue.pop t.fifo with
         | next -> run_on_worker t next
         | exception Queue.Empty -> t.free_workers <- t.free_workers + 1))

let arrival t ~service =
  let now = Sim.Engine.now t.engine in
  let req = { arrival = now; remaining = Sim.Dist.sample_ns t.rng service } in
  t.offered <- t.offered + 1;
  if t.free_workers > 0 then begin
    t.free_workers <- t.free_workers - 1;
    run_on_worker t req
  end
  else Queue.push req t.fifo

let start t ~rate ~service ~until =
  if rate <= 0.0 then invalid_arg "Shinjuku_dataplane.start: bad rate";
  let rec tick () =
    if Sim.Engine.now t.engine < until then begin
      arrival t ~service;
      let gap = Sim.Rng.exponential t.rng ~mean:(1e9 /. rate) in
      ignore (Sim.Engine.post_in t.engine ~delay:(max 1 (int_of_float gap)) tick)
    end
  in
  ignore (Sim.Engine.post_in t.engine ~delay:1 tick)

let create engine ~seed ~nworkers ?(timeslice = 30_000) () =
  if nworkers <= 0 then invalid_arg "Shinjuku_dataplane.create: need workers";
  {
    engine;
    rng = Sim.Rng.create seed;
    nworkers;
    timeslice;
    fifo = Queue.create ();
    free_workers = nworkers;
    rec_ = Workloads.Recorder.create ();
    offered = 0;
    record_after = 0;
  }
