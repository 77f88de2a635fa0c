module Task = Kernel.Task
module Cpumask = Kernel.Cpumask

type policy = {
  name : string;
  abi_version : int;
  init : Abi.t -> unit;
  schedule : Abi.t -> Msg.t list -> unit;
  on_result : Abi.t -> Txn.t -> unit;
  on_cpu_removed : Abi.t -> int -> unit;
}

type mode = Global | Local

type group = {
  sys : System.t;
  enc : System.enclave;
  kern : Kernel.t;
  pol : policy;
  abi : Abi.t;  (* the pass context every callback of [pol] receives *)
  mode : mode;
  cpu_list : int list ref;  (* shared with [abi] *)
  mutable orphans : Squeue.t list;
      (* per-CPU queues of removed CPUs, drained by the watcher agent *)
  agents : (int, Task.t) Hashtbl.t;
      (* cpu -> agent task, kept only for its iteration order: it sets the
         order in which [stop], [crash] and [set_paused] wake or kill the
         agents, and report digests depend on that order *)
  agent_of : Task.t Sim.Idtbl.t;  (* the same bindings, for lookups *)
  sws : Status_word.t Sim.Idtbl.t;
      (* cpu -> agent status word; always the same keys as [agents] *)
  cpu_queues : Squeue.t Sim.Idtbl.t;  (* local mode *)
  siblings : int array;  (* cpu -> its SMT sibling, -1 without SMT *)
  min_iteration : int;
  idle_gap : int;  (* polling pause after a pass that did nothing *)
  mutable gcpu : int;  (* global agent's CPU; -1 in local mode *)
  poked : unit Sim.Idtbl.t;  (* cpus owed a pass despite empty queues *)
  mutable iters : int;
  mutable stopped : bool;
  mutable attached : bool;
  mutable paused : bool;  (* fault injection: hung agent process *)
  mutable pass_penalty : int;  (* fault injection: extra ns per pass *)
}

let make_policy ~name ?(init = fun _ -> ()) ~schedule
    ?(on_result = fun _ _ -> ()) ?(on_cpu_removed = fun _ _ -> ()) () =
  {
    name;
    abi_version = Abi.version;
    init;
    schedule;
    on_result;
    on_cpu_removed;
  }

let base_pass_cost = 100 (* status-word reads, loop bookkeeping *)
let scan_step_cost = Abi.scan_step_cost
let sw_of g cpu = Sim.Idtbl.find g.sws cpu

let scale_f f x = int_of_float (Float.round (f *. float_of_int x))

let commit_cost g ~agent_cpu batches =
  let c = Kernel.costs g.kern in
  let topo = Kernel.topo g.kern in
  let batch_cost (_, txns) =
    match txns with
    | [] -> 0
    | [ (t1 : Txn.t) ] when t1.target_cpu = agent_cpu -> c.Hw.Costs.txn_commit_local
    | txns ->
      let per_txn (txn : Txn.t) =
        if Hw.Topology.same_socket topo agent_cpu txn.Txn.target_cpu then
          c.Hw.Costs.txn_group_per_txn
        else scale_f c.Hw.Costs.cross_socket_op c.Hw.Costs.txn_group_per_txn
      in
      c.Hw.Costs.txn_group_fixed
      + List.fold_left (fun acc txn -> acc + per_txn txn) 0 txns
  in
  List.fold_left (fun acc b -> acc + batch_cost b) 0 batches

let sibling_busy g cpu =
  let s = g.siblings.(cpu) in
  s >= 0 && Kernel.curr g.kern s <> None

let alive g = (not g.stopped) && System.enclave_alive g.enc

let find_handoff_target g ~from =
  let ok c =
    c <> from && Kernel.cpu_idle g.kern c && not (Kernel.lower_class_waiting g.kern c)
  in
  List.find_opt ok !(g.cpu_list)

let local_queues g cpu =
  let own =
    match Sim.Idtbl.find_opt g.cpu_queues cpu with Some q -> [ q ] | None -> []
  in
  (* The first CPU's agent also watches the enclave default queue, where
     newly managed threads announce themselves before the policy associates
     them to a per-CPU queue — plus any queues orphaned by CPU removal. *)
  match !(g.cpu_list) with
  | first :: _ when first = cpu ->
    (System.default_queue g.enc :: own) @ g.orphans
  | _ -> own

(* One scheduling pass: [begin_pass], the caller drains its queues, then
   [finish_pass] runs the policy and occupies the CPU for the charged
   interval; commits validate and apply when it ends, so messages arriving
   meanwhile produce ESTALE (§3.2).  The pass takes no simulated time until
   then, so [finish_pass] reads the pass's start time from the clock. *)
let begin_pass g ~cpu =
  Abi.begin_pass g.abi ~cpu;
  Abi.charge g.abi base_pass_cost;
  g.iters <- g.iters + 1;
  if Obs.Hooks.enabled () then
    Obs.Hooks.agent_pass_begin ~now:(Kernel.now g.kern) ~cpu
      ~eid:(System.enclave_id g.enc)
  else 0

let apply_batches g ~cpu batches =
  let agent_sw = Some (sw_of g cpu) in
  List.iter
    (fun (atomic, txns) ->
      System.commit g.sys g.enc ~agent_cpu:cpu ~agent_sw ~atomic txns)
    batches;
  List.iter (fun (_, txns) -> List.iter (g.pol.on_result g.abi) txns) batches

let end_pass_span g ~span ~began ~msgs batches =
  Obs.Hooks.agent_pass_end ~now:(Kernel.now g.kern) ~began ~id:span
    ~nmsgs:(List.length msgs)
    ~ntxns:(List.fold_left (fun acc (_, txns) -> acc + List.length txns) 0 batches)

let rec finish_pass g ~cpu ~span msgs =
  let abi = g.abi in
  g.pol.schedule abi msgs;
  let batches = Abi.batches abi in
  (match batches with
  | [] -> ()
  | _ -> Abi.charge abi (commit_cost g ~agent_cpu:cpu batches));
  Abi.charge abi g.pass_penalty;
  let charged =
    if sibling_busy g cpu then
      scale_f (Kernel.costs g.kern).Hw.Costs.smt_contention (Abi.charged abi)
    else Abi.charged abi
  in
  let floor =
    match (msgs, batches) with [], [] -> g.idle_gap | _ -> g.min_iteration
  in
  let ns = if charged > floor then charged else floor in
  let after =
    match batches with
    | [] when span = 0 -> fun () -> resume g cpu
    | _ ->
      let began = Kernel.now g.kern in
      fun () ->
        apply_batches g ~cpu batches;
        if span <> 0 then end_pass_span g ~span ~began ~msgs batches;
        resume g cpu
  in
  Task.Run { ns; after }

and resume g cpu =
  match g.mode with
  | Global -> global_behavior g cpu ()
  | Local -> local_behavior g cpu ()

(* --- Global (centralized) agent -------------------------------------------- *)

and global_behavior g cpu () =
  if (not (alive g)) || not (Sim.Idtbl.mem g.sws cpu) then Task.Exit
  else if g.gcpu <> cpu then Task.Block { after = global_behavior g cpu }
  else if g.paused then
    (* A hung agent: occupies its CPU but drains nothing, commits nothing. *)
    Task.Run { ns = g.idle_gap; after = global_behavior g cpu }
  else if Kernel.lower_class_waiting g.kern cpu then begin
    (* Hot handoff: vacate for the CFS/MicroQuanta work waiting here. *)
    match find_handoff_target g ~from:cpu with
    | Some c' ->
      g.gcpu <- c';
      (match Sim.Idtbl.find_opt g.agent_of c' with
      | Some agent -> Kernel.wake g.kern agent
      | None -> ());
      Task.Block { after = global_behavior g cpu }
    | None -> global_pass g cpu
  end
  else global_pass g cpu

and global_pass g cpu =
  let span = begin_pass g ~cpu in
  finish_pass g ~cpu ~span (Abi.drain g.abi (System.default_queue g.enc))

(* --- Local (per-CPU) agents ------------------------------------------------ *)

and local_behavior g cpu () =
  if (not (alive g)) || not (Sim.Idtbl.mem g.sws cpu) then Task.Exit
  else if g.paused then
    Task.Run { ns = g.idle_gap; after = local_behavior g cpu }
  else begin
    let queues = local_queues g cpu in
    let pending = List.exists (fun q -> Squeue.length q > 0) queues in
    let poked = Sim.Idtbl.mem g.poked cpu in
    if poked then Sim.Idtbl.remove g.poked cpu;
    if (not pending) && not poked then Task.Block { after = local_behavior g cpu }
    else begin
      let span = begin_pass g ~cpu in
      finish_pass g ~cpu ~span (List.concat_map (Abi.drain g.abi) queues)
    end
  end

(* --- Attachment ------------------------------------------------------------ *)

let spawn_one g behavior cpu =
  let ncpus = Kernel.ncpus g.kern in
  let sw = Status_word.create () in
  Sim.Idtbl.replace g.sws cpu sw;
  let task =
    Kernel.create_task g.kern ~policy:Task.Rt ~rt_prio:99
      ~affinity:(Cpumask.singleton ~ncpus cpu)
      ~name:(Printf.sprintf "%s-agent-%d" g.pol.name cpu)
      (behavior cpu)
  in
  task.Task.is_agent <- true;
  Hashtbl.replace g.agents cpu task;
  Sim.Idtbl.replace g.agent_of cpu task;
  System.register_agent g.enc task sw

let spawn_agents g behavior =
  List.iter (fun cpu -> spawn_one g behavior cpu) !(g.cpu_list);
  List.iter (fun cpu -> Kernel.start g.kern (Sim.Idtbl.find g.agent_of cpu)) !(g.cpu_list)

(* An agent whose CPU left the enclave: deregister now, die off the event
   loop (the removal may have been triggered from agent context). *)
let retire_agent g cpu =
  match Sim.Idtbl.find_opt g.agent_of cpu with
  | None -> ()
  | Some task ->
    Hashtbl.remove g.agents cpu;
    Sim.Idtbl.remove g.agent_of cpu;
    Sim.Idtbl.remove g.sws cpu;
    Sim.Idtbl.remove g.poked cpu;
    System.unregister_agent g.enc task;
    ignore
      (Sim.Engine.post_in (Kernel.engine g.kern) ~delay:0 (fun () ->
           if task.Task.state <> Task.Dead then Kernel.kill g.kern task))

let wake_agent g cpu =
  match Sim.Idtbl.find_opt g.agent_of cpu with
  | Some a -> Kernel.wake g.kern a
  | None -> ()

let on_resize_global g = function
  | System.Cpu_added cpu ->
    if not (List.mem cpu !(g.cpu_list)) then begin
      g.cpu_list := !(g.cpu_list) @ [ cpu ];
      spawn_one g (fun cpu -> global_behavior g cpu) cpu;
      Kernel.start g.kern (Sim.Idtbl.find g.agent_of cpu)
    end
  | System.Cpu_removed cpu ->
    if List.mem cpu !(g.cpu_list) then begin
      g.cpu_list := List.filter (fun c -> c <> cpu) !(g.cpu_list);
      (if g.gcpu = cpu then
         match !(g.cpu_list) with
         | [] -> ()
         | c' :: _ ->
           g.gcpu <- c';
           wake_agent g c');
      retire_agent g cpu;
      g.pol.on_cpu_removed g.abi cpu
    end

let on_resize_local g = function
  | System.Cpu_added cpu ->
    if not (List.mem cpu !(g.cpu_list)) then begin
      g.cpu_list := !(g.cpu_list) @ [ cpu ];
      spawn_one g (fun cpu -> local_behavior g cpu) cpu;
      Kernel.start g.kern (Sim.Idtbl.find g.agent_of cpu);
      let q = System.create_queue g.enc ~capacity:4096 in
      Sim.Idtbl.replace g.cpu_queues cpu q;
      System.associate_cpu_queue g.enc ~cpu q;
      Abi.wire_wakeup g.abi q ~wake_cpu:cpu;
      Sim.Idtbl.replace g.poked cpu ();
      wake_agent g cpu
    end
  | System.Cpu_removed cpu ->
    if List.mem cpu !(g.cpu_list) then begin
      let was_watcher =
        match !(g.cpu_list) with first :: _ -> first = cpu | [] -> false
      in
      g.cpu_list := List.filter (fun c -> c <> cpu) !(g.cpu_list);
      (match Sim.Idtbl.find_opt g.cpu_queues cpu with
      | Some q ->
        Sim.Idtbl.remove g.cpu_queues cpu;
        g.orphans <- g.orphans @ [ q ]
      | None -> ());
      retire_agent g cpu;
      (match !(g.cpu_list) with
      | [] -> ()
      | head :: _ ->
        (* Re-point wakeups of every queue the departed agent owned (and,
           when the watcher itself left, the default queue) at the new
           drainer. *)
        List.iter
          (fun q ->
            Squeue.clear_aseq_targets q;
            Abi.wire_wakeup g.abi q ~wake_cpu:head)
          g.orphans;
        if was_watcher then begin
          let dq = System.default_queue g.enc in
          Squeue.clear_aseq_targets dq;
          Abi.wire_wakeup g.abi dq ~wake_cpu:head
        end;
        g.pol.on_cpu_removed g.abi cpu;
        Sim.Idtbl.replace g.poked head ();
        wake_agent g head)
    end

let make_group sys enc ~mode ~min_iteration ?(idle_gap = 1_000) pol =
  let kern = System.kernel sys in
  let cpu_list = ref (Cpumask.to_list (System.enclave_cpus enc)) in
  let agents = Hashtbl.create 16 in
  let agent_of = Sim.Idtbl.create () in
  let sws = Sim.Idtbl.create () in
  let cpu_queues = Sim.Idtbl.create () in
  let poked = Sim.Idtbl.create () in
  let topo = Kernel.topo kern in
  {
    sys;
    enc;
    kern;
    pol;
    abi = Abi.context sys enc ~agents:agent_of ~sws ~cpu_queues ~poked ~cpu_list;
    mode;
    cpu_list;
    orphans = [];
    agents;
    agent_of;
    sws;
    cpu_queues;
    siblings =
      Array.init (Hw.Topology.num_cpus topo) (fun c ->
          match Hw.Topology.sibling_of topo c with Some s -> s | None -> -1);
    min_iteration;
    idle_gap = Int.max min_iteration idle_gap;
    gcpu = (match mode with Global -> List.hd !cpu_list | Local -> -1);
    poked;
    iters = 0;
    stopped = false;
    attached = false;
    paused = false;
    pass_penalty = 0;
  }

let check_abi_version (pol : policy) =
  if pol.abi_version <> Abi.version then
    raise (Abi.Version_mismatch { agent = pol.abi_version; runtime = Abi.version })

let attach_global sys enc ?(min_iteration = 200) ?idle_gap pol =
  check_abi_version pol;
  let g = make_group sys enc ~mode:Global ~min_iteration ?idle_gap pol in
  spawn_agents g (fun cpu -> global_behavior g cpu);
  (* The global agent polls the default queue; its aseq tracks it. *)
  Squeue.add_aseq_target (System.default_queue enc) (sw_of g g.gcpu);
  g.attached <- true;
  System.on_resize enc (fun ev ->
      if alive g && g.attached then on_resize_global g ev);
  pol.init g.abi;
  g

let attach_local sys enc pol =
  check_abi_version pol;
  let g = make_group sys enc ~mode:Local ~min_iteration:200 pol in
  spawn_agents g (fun cpu -> local_behavior g cpu);
  List.iter
    (fun cpu ->
      let q = System.create_queue enc ~capacity:4096 in
      Sim.Idtbl.replace g.cpu_queues cpu q;
      System.associate_cpu_queue enc ~cpu q;
      Abi.wire_wakeup g.abi q ~wake_cpu:cpu)
    !(g.cpu_list);
  (* Default-queue traffic wakes the first CPU's agent. *)
  Abi.wire_wakeup g.abi (System.default_queue enc) ~wake_cpu:(List.hd !(g.cpu_list));
  g.attached <- true;
  System.on_resize enc (fun ev ->
      if alive g && g.attached then on_resize_local g ev);
  pol.init g.abi;
  (* Every agent owes an initial pass: after an in-place upgrade the policy
     may have rebuilt runqueues with no message traffic to trigger them. *)
  List.iter
    (fun cpu ->
      Sim.Idtbl.replace g.poked cpu ();
      Kernel.wake g.kern (Sim.Idtbl.find g.agent_of cpu))
    !(g.cpu_list);
  g

let detach g =
  Hashtbl.iter (fun _ task -> System.unregister_agent g.enc task) g.agents;
  g.attached <- false

let stop g =
  if not g.stopped then begin
    g.stopped <- true;
    detach g;
    (* Wake sleepers so they observe the stop and exit. *)
    Hashtbl.iter (fun _ task -> Kernel.wake g.kern task) g.agents
  end

let crash g =
  if not g.stopped then begin
    g.stopped <- true;
    Hashtbl.iter
      (fun _ (task : Task.t) ->
        if task.Task.state <> Task.Dead then Kernel.kill g.kern task)
      g.agents;
    detach g
  end

let global_cpu g = g.gcpu
let iterations g = g.iters
let is_attached g = g.attached

(* --- Fault-injection points ------------------------------------------------- *)

let set_paused g flag =
  if g.paused <> flag then begin
    g.paused <- flag;
    if not flag then
      (* Resuming agents owe a pass: queues may have filled while hung. *)
      Hashtbl.iter
        (fun cpu (task : Task.t) ->
          Sim.Idtbl.replace g.poked cpu ();
          Kernel.wake g.kern task)
        g.agents
  end

let set_pass_penalty g ns = g.pass_penalty <- Int.max 0 ns
