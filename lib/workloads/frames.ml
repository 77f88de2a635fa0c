(* Interactive frame streams: the deadline workload of the hybrid P/E
   scenarios.  Each stream is one render thread ("frame%d") that receives
   a frame job every [period] ns — arrivals are strictly periodic with a
   deterministic per-stream phase stagger — computes its service time, and
   must finish within [deadline] ns of the arrival or the frame is jank.

   The arrival clock is wall time and never consults the scheduler, so two
   runs over the same seed offer bit-identical traffic (same arrival
   instants, same service samples) regardless of which policy — or which
   core class — the threads land on.  A frame that arrives while its
   stream is still rendering queues behind it; the deadline keeps counting
   from the arrival instant, exactly how a compositor falls behind. *)

module Task = Kernel.Task

type frame = { arrival : int; service : int }

type stream = {
  task : Task.t;
  pending : frame Queue.t;
  mutable slot : frame option;
}

type t = {
  kernel : Kernel.t;
  period : int;
  deadline : int;
  rng : Sim.Rng.t;
  service : Sim.Dist.t;
  rec_ : Recorder.t;
  mutable streams : stream array;
  mutable offered : int;
  mutable offered_work : int;
  mutable record_after : int;
}

let recorder t = t.rec_
let offered t = t.offered
let offered_work t = t.offered_work
let deadline t = t.deadline
let tasks t = Array.to_list (Array.map (fun s -> s.task) t.streams)
let set_record_after t time = t.record_after <- time

let complete t i (f : frame) =
  let now = Kernel.now t.kernel in
  if f.arrival >= t.record_after then begin
    Recorder.record_deadline t.rec_ ~now ~arrival:f.arrival
      ~deadline:t.deadline;
    if Obs.Hooks.enabled () then
      Obs.Hooks.frame_done ~now ~stream:i ~dur:(now - f.arrival)
        ~missed:(now - f.arrival > t.deadline)
  end

let behavior t i =
  let rec idle () =
    match t.streams.(i).slot with
    | Some f -> render f
    | None -> Task.Block { after = idle }
  and render f = Task.Run { ns = Int.max 1 f.service; after = (fun () -> finish f) }
  and finish f =
    let s = t.streams.(i) in
    s.slot <- None;
    complete t i f;
    match Queue.pop s.pending with
    | next ->
      s.slot <- Some next;
      render next
    | exception Queue.Empty -> Task.Block { after = idle }
  in
  idle

let arrival t i =
  let now = Kernel.now t.kernel in
  let service = Sim.Dist.sample_ns t.rng t.service in
  t.offered <- t.offered + 1;
  t.offered_work <- t.offered_work + service;
  let s = t.streams.(i) in
  let f = { arrival = now; service } in
  match s.slot with
  | None when Queue.is_empty s.pending ->
    s.slot <- Some f;
    Kernel.wake t.kernel s.task
  | _ -> Queue.push f s.pending

let start t ~until =
  let engine = Kernel.engine t.kernel in
  let n = Array.length t.streams in
  Array.iteri
    (fun i _ ->
      let rec tick () =
        if Sim.Engine.now engine < until then begin
          arrival t i;
          ignore (Sim.Engine.post_in engine ~delay:t.period tick)
        end
      in
      (* Stagger stream phases across one period so frames don't all land
         on the same instant; the offsets are a pure function of the
         stream index, hence reproducible. *)
      let phase = 1 + (i * t.period / n) in
      ignore (Sim.Engine.post_in engine ~delay:phase tick))
    t.streams

let create kernel ~seed ~nstreams ~period ~deadline ~service ~spawn =
  if nstreams <= 0 then invalid_arg "Frames.create: need streams";
  if period <= 0 then invalid_arg "Frames.create: period must be positive";
  if deadline <= 0 then invalid_arg "Frames.create: deadline must be positive";
  let t =
    {
      kernel;
      period;
      deadline;
      rng = Sim.Rng.create seed;
      service;
      rec_ = Recorder.create ();
      streams = [||];
      offered = 0;
      offered_work = 0;
      record_after = 0;
    }
  in
  t.streams <-
    Array.init nstreams (fun i ->
        {
          task = spawn ~idx:i (behavior t i);
          pending = Queue.create ();
          slot = None;
        });
  t
