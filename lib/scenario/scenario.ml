(* Declarative experiment harness: a scenario is a value describing a
   machine, enclaves with named policies and cpumasks, workloads bound per
   enclave, an optional fault plan and controller — and [run] turns it into
   per-enclave reports, deterministically for a given seed.

   Setup order is part of the contract (it fixes task ids and event
   sequence numbers, hence bit-exact results): per enclave in declaration
   order, the policy is built by name, the enclave created, the agent group
   attached and the fault injector armed; then all workloads are created in
   declaration order; then the clock runs warmup / measure / cooldown. *)

module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Registry = Policies.Registry
module Ghost_policy = Policies.Ghost_policy

type workload =
  | Openloop of {
      wseed : int;
      rate : float;
      service : Sim.Dist.t;
      nworkers : int;
      prefix : string;
    }
  | Batch of { n : int; prefix : string }
  | Spin of { threads : int; thread_ns : int; prefix : string }
  | Jobs of { n : int; slice_ns : int; total_ns : int; prefix : string }

type enclave_spec = {
  ename : string;
  policy : string;  (* Registry spec, e.g. "shinjuku?timeslice=30us" *)
  cpus : int list;
  watchdog_timeout : int option;
  min_iteration : int option;
  idle_gap : int option;
  workloads : workload list;
  faults : Faults.Plan.t;
}

let enclave ?watchdog_timeout ?min_iteration ?idle_gap
    ?(faults = Faults.Plan.empty) ~policy ~cpus ~workloads ename =
  { ename; policy; cpus; watchdog_timeout; min_iteration; idle_gap;
    workloads; faults }

(* --- Live state (visible to controllers) ------------------------------------ *)

type live_workload =
  | L_openloop of Workloads.Openloop.t
  | L_batch of Workloads.Batch.t
  | L_spin of Task.t list
  | L_jobs of jobs_live

and jobs_live = { mutable tasks : Task.t list; mutable last_finished : int option }

type live_enclave = {
  spec : enclave_spec;
  enclave : System.enclave;
  instance : Ghost_policy.instance;
  group : Agent.group;
  injector : Faults.Injector.t;
  live_workloads : live_workload list;
  mutable all_cfs_at_destroy : bool option;
  mutable stats_at_measure_start : (string * int) list;
  mutable stats_at_measure_end : (string * int) list;
}

type live = {
  kernel : Kernel.t;
  sys : System.t;
  live_enclaves : live_enclave list;
}

let find live name =
  match
    List.find_opt (fun le -> le.spec.ename = name) live.live_enclaves
  with
  | Some le -> le
  | None -> invalid_arg (Printf.sprintf "Scenario.find: no enclave %s" name)

let now live = Kernel.now live.kernel

let stat le key = List.assoc_opt key (le.instance.Ghost_policy.stats ())

let openloop le =
  List.find_map
    (function L_openloop ol -> Some ol | _ -> None)
    le.live_workloads

let group le = le.group

let enclave_cpus le =
  Kernel.Cpumask.to_list (System.enclave_cpus le.enclave)

(* Move [cpu] between enclaves; transparent to both policies via their
   CPU_TAKEN / CPU_AVAILABLE messages and resize callbacks. *)
let move_cpu live ~src ~dst cpu =
  System.remove_cpu live.sys (find live src).enclave cpu;
  System.add_cpu live.sys (find live dst).enclave cpu

type controller = { period_ns : int; tick : live -> unit }

(* --- The scenario value ------------------------------------------------------ *)

type t = {
  name : string;
  machine : Hw.Machines.t;
  seed : int;
  warmup_ns : int;
  measure_ns : int;
  cooldown_ns : int;
  enclaves : enclave_spec list;
  controller : controller option;
}

let make ?(seed = 42) ?(warmup_ns = 0) ?(cooldown_ns = 0) ?controller ~machine ~measure_ns ~enclaves name =
  if enclaves = [] then invalid_arg "Scenario.make: no enclaves";
  if warmup_ns < 0 || measure_ns < 0 || cooldown_ns < 0 then
    invalid_arg "Scenario.make: negative window";
  { name; machine; seed; warmup_ns; measure_ns; cooldown_ns; enclaves;
    controller }

(* --- Reports ----------------------------------------------------------------- *)

type latency = { p50_ns : int; p90_ns : int; p99_ns : int; p999_ns : int }

type enclave_report = {
  ename : string;
  policy : string;
  offered_qps : float option;
  achieved_qps : float option;
  latency : latency option;
  batch_share : float option;
  jobs_completed : int;
  jobs_total : int;
  finished_at : int option;
  stats_at_measure_start : (string * int) list;
  stats_at_measure_end : (string * int) list;
  destroy_reason : string option;
  all_cfs_at_destroy : bool option;
  faults : Faults.Report.t;
}

type report = {
  scenario : string;
  seed : int;
  measure_ns : int;
  enclaves : enclave_report list;
}

let stat_delta r key =
  match
    ( List.assoc_opt key r.stats_at_measure_start,
      List.assoc_opt key r.stats_at_measure_end )
  with
  | Some a, Some b -> Some (b - a)
  | _ -> None

let enclave_report rep name =
  match List.find_opt (fun r -> r.ename = name) rep.enclaves with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Scenario.enclave_report: %s" name)

(* --- Setup ------------------------------------------------------------------- *)

let spawn_ghost kernel enclave ~name behavior =
  let task = Kernel.create_task kernel ~name behavior in
  System.manage enclave task;
  Kernel.start kernel task;
  task

let setup_enclave kernel sys (spec : enclave_spec) =
  let instance = Registry.make spec.policy in
  let mask = Kernel.Cpumask.of_list ~ncpus:(Kernel.ncpus kernel) spec.cpus in
  let e =
    System.create_enclave sys ?watchdog_timeout:spec.watchdog_timeout
      ~cpus:mask ()
  in
  let attach () =
    Registry.attach ?min_iteration:spec.min_iteration ?idle_gap:spec.idle_gap
      sys e instance
  in
  let group = attach () in
  let injector =
    Faults.Injector.arm ~rng:(Kernel.rng kernel)
      {
        Faults.Injector.sys;
        enclave = e;
        group = Some group;
        (* An Upgrade fault replaces the group with a fresh instance of the
           same policy spec; an [abi=N] option stamps the replacement with
           that ABI version, so a mismatch is rejected at attach. *)
        replace =
          Some
            (fun ?abi () ->
              let inst = Registry.make spec.policy in
              let inst =
                match abi with
                | None -> inst
                | Some v ->
                  { inst with
                    Ghost_policy.policy =
                      { inst.Ghost_policy.policy with Agent.abi_version = v } }
              in
              Registry.attach ?min_iteration:spec.min_iteration
                ?idle_gap:spec.idle_gap sys e inst);
      }
      spec.faults
  in
  {
    spec;
    enclave = e;
    instance;
    group;
    injector;
    live_workloads = [];
    all_cfs_at_destroy = None;
    stats_at_measure_start = [];
    stats_at_measure_end = [];
  }

let setup_workload t kernel le w =
  let e = le.enclave in
  match w with
  | Openloop { wseed; rate; service; nworkers; prefix } ->
    let spawn ~idx behavior =
      spawn_ghost kernel e ~name:(Printf.sprintf "%s%d" prefix idx) behavior
    in
    let ol =
      Workloads.Openloop.create kernel ~seed:wseed ~rate ~service ~nworkers
        ~spawn
    in
    Workloads.Openloop.set_record_after ol t.warmup_ns;
    L_openloop ol
  | Batch { n; prefix } ->
    let spawn ~idx behavior =
      spawn_ghost kernel e ~name:(Printf.sprintf "%s%d" prefix idx) behavior
    in
    L_batch (Workloads.Batch.create kernel ~n ~spawn ())
  | Spin { threads; thread_ns; prefix } ->
    let mk i =
      let rec loop () =
        Task.Run { ns = thread_ns; after = (fun () -> Task.Yield { after = loop }) }
      in
      spawn_ghost kernel e ~name:(Printf.sprintf "%s%d" prefix i) (fun () ->
          loop ())
    in
    L_spin (List.init threads mk)
  | Jobs { n; slice_ns; total_ns; prefix } ->
    let lw = { tasks = []; last_finished = None } in
    lw.tasks <-
      List.init n (fun i ->
          spawn_ghost kernel e ~name:(Printf.sprintf "%s%d" prefix i)
            (Task.compute_total ~slice:slice_ns ~total:total_ns (fun () ->
                 lw.last_finished <- Some (Kernel.now kernel);
                 Task.Exit)));
    L_jobs lw

(* --- Run --------------------------------------------------------------------- *)

(* Worker CPUs of an enclave: a global agent monopolises one CPU while it
   spins, local agents interleave with work on every CPU. *)
let worker_cpus le =
  let n = List.length le.spec.cpus in
  match le.instance.Ghost_policy.mode with `Global -> n - 1 | `Local -> n

let reason_to_string = function
  | System.Explicit -> "explicit"
  | System.Watchdog -> "watchdog"
  | System.Agent_crash -> "agent-crash"

let report_of (t : t) (le : live_enclave) =
  let r = le.spec in
  let measure_ns = t.measure_ns in
  let ol = openloop le in
  let latency =
    Option.map
      (fun ol ->
        let rec_ = Workloads.Openloop.recorder ol in
        let p x = Workloads.Recorder.p rec_ x in
        { p50_ns = p 50.0; p90_ns = p 90.0; p99_ns = p 99.0; p999_ns = p 99.9 })
      ol
  in
  let batch =
    List.find_map
      (function L_batch b -> Some b | _ -> None)
      le.live_workloads
  in
  let jobs =
    List.filter_map
      (function L_jobs j -> Some j | _ -> None)
      le.live_workloads
  in
  let job_tasks = List.concat_map (fun j -> j.tasks) jobs in
  let finished_at =
    List.fold_left
      (fun acc j ->
        match (acc, j.last_finished) with
        | None, x | x, None -> x
        | Some a, Some b -> Some (Int.max a b))
      None jobs
  in
  {
    ename = r.ename;
    policy = r.policy;
    offered_qps = Option.map Workloads.Openloop.rate ol;
    achieved_qps =
      Option.map
        (fun ol ->
          Workloads.Recorder.throughput
            (Workloads.Openloop.recorder ol)
            ~duration:measure_ns)
        ol;
    latency;
    batch_share =
      Option.map
        (fun b ->
          Workloads.Batch.share b ~since:t.warmup_ns
            ~now:(t.warmup_ns + t.measure_ns)
            ~cpus:(worker_cpus le))
        batch;
    jobs_completed =
      List.length
        (List.filter (fun (tk : Task.t) -> tk.Task.state = Task.Dead) job_tasks);
    jobs_total = List.length job_tasks;
    finished_at;
    stats_at_measure_start = le.stats_at_measure_start;
    stats_at_measure_end = le.stats_at_measure_end;
    destroy_reason =
      Option.map reason_to_string (System.destroy_reason le.enclave);
    all_cfs_at_destroy = le.all_cfs_at_destroy;
    faults = Faults.Injector.report le.injector;
  }

(* The run is split into phases so the cluster harness can drive many
   machines' scenarios in lockstep on per-machine event lanes: [start]
   builds the whole system and arms workloads/controller (setup order
   unchanged — it fixes task ids and event seq numbers, hence bit-exact
   reports), the clock is then advanced externally, and the marks/finish
   take the same snapshots [run] always took at the same virtual times. *)

type started = { scn : t; live : live }

let start ?engine (t : t) =
  let kernel = Kernel.create ?engine ~seed:t.seed t.machine in
  let sys = System.install kernel in
  let les = List.map (setup_enclave kernel sys) t.enclaves in
  let les =
    List.map
      (fun le ->
        let le =
          { le with
            live_workloads =
              List.map (setup_workload t kernel le) le.spec.workloads }
        in
        (* Threads fall back to CFS before destroy callbacks run; this
           snapshot is the paper's "transparently revert" check. *)
        let ghost_tasks =
          List.concat_map
            (function
              | L_openloop ol -> Workloads.Openloop.workers ol
              | L_batch b -> Workloads.Batch.tasks b
              | L_spin ts -> ts
              | L_jobs j -> j.tasks)
            le.live_workloads
        in
        System.on_destroy le.enclave (fun _reason ->
            le.all_cfs_at_destroy <-
              Some
                (List.for_all
                   (fun (tk : Task.t) ->
                     tk.Task.state = Task.Dead || tk.Task.policy = Task.Cfs)
                   ghost_tasks));
        le)
      les
  in
  let live = { kernel; sys; live_enclaves = les } in
  let horizon = t.warmup_ns + t.measure_ns in
  List.iter
    (fun le ->
      List.iter
        (function
          | L_openloop ol -> Workloads.Openloop.start ol ~until:horizon
          | L_batch _ | L_spin _ | L_jobs _ -> ())
        le.live_workloads)
    les;
  (match t.controller with
  | None -> ()
  | Some c ->
    let rec tick () =
      if Kernel.now kernel < horizon then begin
        c.tick live;
        ignore
          (Sim.Engine.post_in (Kernel.engine kernel) ~delay:c.period_ns tick)
      end
    in
    ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:c.period_ns tick));
  { scn = t; live }

let live_of st = st.live
let kernel_of st = st.live.kernel
let enclave_handle le = le.enclave

(* To be called when the clock reaches [warmup_ns] / [warmup_ns +
   measure_ns]: snapshot policy stats so the report covers exactly the
   measurement window. *)
let mark_measure_start st =
  List.iter
    (fun (le : live_enclave) ->
      le.stats_at_measure_start <- le.instance.Ghost_policy.stats ();
      List.iter
        (function
          | L_batch b -> Workloads.Batch.mark b
          | L_openloop _ | L_spin _ | L_jobs _ -> ())
        le.live_workloads)
    st.live.live_enclaves

let mark_measure_end st =
  List.iter
    (fun (le : live_enclave) ->
      le.stats_at_measure_end <- le.instance.Ghost_policy.stats ();
      Registry.publish_stats le.instance)
    st.live.live_enclaves

let finish st =
  {
    scenario = st.scn.name;
    seed = st.scn.seed;
    measure_ns = st.scn.measure_ns;
    enclaves = List.map (report_of st.scn) st.live.live_enclaves;
  }

let run (t : t) =
  let st = start t in
  let kernel = st.live.kernel in
  let horizon = t.warmup_ns + t.measure_ns in
  Kernel.run_until kernel t.warmup_ns;
  mark_measure_start st;
  Kernel.run_until kernel horizon;
  mark_measure_end st;
  Kernel.run_until kernel (horizon + t.cooldown_ns);
  finish st

(* --- Smoke ------------------------------------------------------------------- *)

let smoke_machine =
  {
    Hw.Machines.name = "smoke-4c";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:4 ~smt:1;
    costs = Hw.Costs.skylake;
  }

(* Every registered policy, instantiated by name and run for 1 ms of
   simulated time over a small job batch. *)
let smoke () =
  List.map
    (fun name ->
      let s =
        make ~machine:smoke_machine ~measure_ns:(Sim.Units.ms 1)
          ~enclaves:
            [
              enclave ~policy:name ~cpus:[ 0; 1; 2; 3 ]
                ~workloads:
                  [
                    Jobs
                      {
                        n = 4;
                        slice_ns = Sim.Units.us 10;
                        total_ns = Sim.Units.us 100;
                        prefix = "job";
                      };
                  ]
                "smoke";
            ]
          (Printf.sprintf "smoke-%s" name)
      in
      (name, run s))
    (Registry.names ())
