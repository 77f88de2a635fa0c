module Task = Kernel.Task

type size = Small | Large

type msg = { send : int; size : size; flow : int; mutable stage : int }

type t = {
  kernel : Kernel.t;
  rng : Sim.Rng.t;
  rate_per_flow : float;
  wire : int;
  rec_small : Recorder.t;
  rec_large : Recorder.t;
  mutable workers : msg Pool.t array;  (* one engine thread per pool; flows
                                          are sharded across them like Snap
                                          engine groups *)
  mutable servers : msg Pool.t option;
  mutable record_after : int;
  nworkers : int;
}

(* Per-message CPU costs: 64 B needs almost no processing; 64 kB pays for
   copying (§4.3: "the 64 kB messages require more processing"). *)
let worker_proc = function Small -> 1_500 | Large -> 14_000
let app_proc = function Small -> 2_000 | Large -> 9_000

let rtt_small t = t.rec_small
let rtt_large t = t.rec_large
let set_record_after t time = t.record_after <- time

let servers_pool t = match t.servers with Some p -> p | None -> assert false
let worker_of t (m : msg) = t.workers.(m.flow mod t.nworkers)

let finish t (m : msg) =
  let now = Kernel.now t.kernel in
  if m.send >= t.record_after then begin
    let rtt = now - m.send + (2 * t.wire) in
    match m.size with
    | Small -> Recorder.record_value t.rec_small rtt
    | Large -> Recorder.record_value t.rec_large rtt
  end

(* Stage machine: 0 = RX in the flow's Snap worker, 1 = app server, 2 = TX
   in the Snap worker, then the reply is on the wire. *)
let advance t (m : msg) =
  m.stage <- m.stage + 1;
  match m.stage with
  | 1 -> Pool.submit (servers_pool t) m
  | 2 -> Pool.submit (worker_of t m) m
  | _ -> finish t m

let inject t ~flow size =
  let m = { send = Kernel.now t.kernel; size; flow; stage = 0 } in
  Pool.submit (worker_of t m) m

(* Bursty traffic: each arrival event delivers a geometric burst (the 64 B
   flow is the bursty worst case the paper calls out). *)
let start_flow t ~flow ~burst size ~until =
  let engine = Kernel.engine t.kernel in
  let rec tick () =
    if Sim.Engine.now engine < until then begin
      let n = 1 + Sim.Rng.int t.rng (2 * burst) in
      for _ = 1 to n do
        inject t ~flow size
      done;
      (* n is uniform on [1, 2*burst] with mean burst + 0.5; the gap scales
         to keep the long-run rate at [rate_per_flow]. *)
      let mean_gap = (float_of_int burst +. 0.5) *. (1e9 /. t.rate_per_flow) in
      let gap = Sim.Rng.exponential t.rng ~mean:mean_gap in
      ignore (Sim.Engine.post_in engine ~delay:(Int.max 1 (int_of_float gap)) tick)
    end
  in
  let first = Sim.Rng.float t.rng (1e9 /. t.rate_per_flow) in
  ignore (Sim.Engine.post_in engine ~delay:(Int.max 1 (int_of_float first)) tick)

(* The paper's six flows: one 64 B flow and five 64 kB flows. *)
let small_flows = 1
let large_flows = 5

let start t ~until =
  for flow = 0 to small_flows - 1 do
    start_flow t ~flow ~burst:6 Small ~until
  done;
  for i = 0 to large_flows - 1 do
    start_flow t ~flow:(small_flows + i) ~burst:2 Large ~until
  done

let add_daemons t ~n ~period ~busy =
  let k = t.kernel in
  for i = 1 to n do
    let task =
      Kernel.create_task k
        ~name:(Printf.sprintf "daemon%d" i)
        (fun () ->
          let rec loop () =
            Task.Run { ns = busy; after = (fun () -> Task.Block { after = loop }) }
          in
          loop ())
    in
    Kernel.start k task;
    let rec rearm () =
      if task.Task.state <> Task.Dead then begin
        Kernel.wake k task;
        let jitter = Sim.Rng.int t.rng (period / 4) in
        ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(period + jitter) rearm)
      end
    in
    ignore
      (Sim.Engine.post_in (Kernel.engine k) ~delay:(period + Sim.Rng.int t.rng period)
         rearm)
  done

let create kernel ~seed ?(rate_per_flow = 10_000.0) ?(wire = 10_000) ~nworkers
    ~nservers ~spawn_worker () =
  let t =
    {
      kernel;
      rng = Sim.Rng.create seed;
      rate_per_flow;
      wire;
      rec_small = Recorder.create ();
      rec_large = Recorder.create ();
      workers = [||];
      servers = None;
      record_after = 0;
      nworkers;
    }
  in
  let worker_work (m : msg) (_ : Task.t) = [ Pool.Compute (worker_proc m.size) ] in
  let server_work (m : msg) (_ : Task.t) = [ Pool.Compute (app_proc m.size) ] in
  (* One engine thread per pool: a flow's packets always go through the same
     Snap worker, as in real engine-to-flow-group assignment. *)
  t.workers <-
    Array.init nworkers (fun w ->
        (* Snap workers poll between packets (§4.3): low latency for the
           next message, at the cost of CPU — and of MicroQuanta budget,
           which is what produces its blackout tails. *)
        Pool.create kernel ~n:1 ~poll_ns:200_000
          ~spawn:(fun ~idx:_ behavior -> spawn_worker ~idx:w behavior)
          ~work:worker_work
          ~on_done:(fun m -> advance t m) ());
  let spawn_server ~idx behavior =
    let task =
      Kernel.create_task kernel ~name:(Printf.sprintf "snap-server%d" idx) behavior
    in
    Kernel.start kernel task;
    task
  in
  t.servers <-
    Some
      (Pool.create kernel ~n:nservers ~spawn:spawn_server ~work:server_work
         ~on_done:(fun m -> advance t m) ());
  t
