(* One machine of the fleet: a full started {!Scenario} (its own kernel,
   enclaves, agents, policy instances) plus, when the cluster serves
   traffic, a worker {!Workloads.Pool} in one of its enclaves that executes
   the requests the balancer routes here.

   The machine's engine is its lane of the cluster's shared queue; nothing
   in this module posts to other machines directly — cross-machine traffic
   goes through the cluster's {!Sim.Lanes} with a network cost. *)

type request = { arrival : int; service_ns : int }

type serve = { enclave : string; nworkers : int }

type t = {
  mid : int;
  started : Scenario.started;
  kernel : Kernel.t;
  mutable pool : request Workloads.Pool.t option;
  recorder : Workloads.Recorder.t;  (* measurement-window request latencies *)
  mutable served : int;  (* requests completed in the measurement window *)
}

let spawn_ghost kernel enclave ~name behavior =
  let task = Kernel.create_task kernel ~name behavior in
  Ghost.System.manage enclave task;
  Kernel.start kernel task;
  task

(* [fleet] is the cluster-wide recorder; both it and the per-machine one
   only see requests that {e arrived} inside [warmup, horizon) — the same
   windowing rule {!Workloads.Openloop} applies. *)
let create ~engine ~mid ~warmup_ns ~horizon_ns ~fleet ~serve
    (scenario : Scenario.t) =
  let started = Scenario.start ~engine scenario in
  let kernel = Scenario.kernel_of started in
  let recorder = Workloads.Recorder.create () in
  let m = { mid; started; kernel; pool = None; recorder; served = 0 } in
  Option.iter
    (fun { enclave; nworkers } ->
      let live = Scenario.live_of started in
      let e = Scenario.enclave_handle (Scenario.find live enclave) in
      let spawn ~idx behavior =
        spawn_ghost kernel e ~name:(Printf.sprintf "serve%d" idx) behavior
      in
      m.pool <-
        Some
          (Workloads.Pool.create kernel ~n:nworkers ~spawn
             ~work:(fun req _task -> [ Workloads.Pool.Compute req.service_ns ])
             ~on_done:(fun req ->
               if req.arrival >= warmup_ns && req.arrival < horizon_ns then begin
                 let now = Kernel.now kernel in
                 Workloads.Recorder.record recorder ~now ~arrival:req.arrival;
                 Workloads.Recorder.record fleet ~now ~arrival:req.arrival;
                 m.served <- m.served + 1
               end)
             ()))
    serve;
  m

let engine m = Kernel.engine m.kernel

let submit m req =
  match m.pool with
  | Some p -> Workloads.Pool.submit p req
  | None -> invalid_arg "Cluster.Machine.submit: machine has no serving pool"

(* Outstanding requests: queued plus in service — the queue-depth signal
   machines gossip to the fleet controller. *)
let depth m =
  match m.pool with
  | None -> 0
  | Some p ->
    Workloads.Pool.backlog p
    + (Workloads.Pool.size p - Workloads.Pool.idle_workers p)

let p m pct =
  if Workloads.Recorder.completed m.recorder = 0 then 0
  else Workloads.Recorder.p m.recorder pct
