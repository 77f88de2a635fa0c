module Task = Kernel.Task
module Cpumask = Kernel.Cpumask

(* Internal per-group mutable state behind the Abi the policy sees. *)
type ctx = {
  group : group;
  mutable cur_cpu : int;
  mutable charged : int;
  mutable batches : (bool * Txn.t list) list;  (* reverse submit order *)
}

and group = {
  sys : System.t;
  enc : System.enclave;
  kern : Kernel.t;
  pol : policy;
  mode : mode;
  mutable cpu_list : int list;
  mutable orphans : Squeue.t list;
      (* per-CPU queues of removed CPUs, drained by the watcher agent *)
  agents : (int, Task.t) Hashtbl.t;
      (* cpu -> agent task.  A Hashtbl, not an Idtbl: its iteration order
         sets the order in which [stop], [crash] and [set_paused] wake or
         kill the agents, and report digests depend on that order. *)
  sws : Status_word.t Sim.Idtbl.t;  (* cpu -> agent status word *)
  cpu_queues : Squeue.t Sim.Idtbl.t;  (* local mode *)
  min_iteration : int;
  idle_gap : int;  (* polling pause after a pass that did nothing *)
  mutable gcpu : int;  (* global agent's CPU; -1 in local mode *)
  poked : unit Sim.Idtbl.t;  (* cpus owed a pass despite empty queues *)
  mutable iters : int;
  mutable stopped : bool;
  mutable attached : bool;
  mutable the_ctx : ctx option;
  mutable the_abi : Abi.t option;
  mutable paused : bool;  (* fault injection: hung agent process *)
  mutable pass_penalty : int;  (* fault injection: extra ns per pass *)
}

and mode = Global | Local

and policy = {
  name : string;
  abi_version : int;
  init : Abi.t -> unit;
  schedule : Abi.t -> Msg.t list -> unit;
  on_result : Abi.t -> Txn.t -> unit;
  on_cpu_added : Abi.t -> int -> unit;
  on_cpu_removed : Abi.t -> int -> unit;
}

let make_policy ~name ?(abi_version = Abi.version) ?(init = fun _ -> ())
    ~schedule ?(on_result = fun _ _ -> ()) ?(on_cpu_added = fun _ _ -> ())
    ?(on_cpu_removed = fun _ _ -> ()) () =
  { name; abi_version; init; schedule; on_result; on_cpu_added; on_cpu_removed }

let base_pass_cost = 100 (* status-word reads, loop bookkeeping *)
let scan_step_cost = 5 (* one probe of a CPU's idle/current state *)

(* --- The operations behind the Abi ----------------------------------------- *)

let now ctx = Kernel.now ctx.group.kern
let rng ctx = Kernel.rng ctx.group.kern
let charge ctx ns = ctx.charged <- ctx.charged + max 0 ns
let charge_scan ctx n = charge ctx (n * scan_step_cost)

let sw_of g cpu = Sim.Idtbl.find g.sws cpu
let aseq ctx = Status_word.seq (sw_of ctx.group ctx.cur_cpu)

let make_txn ctx ~tid ~target ~with_aseq ?thread_seq () =
  let agent_seq = if with_aseq then Some (aseq ctx) else None in
  System.make_txn ctx.group.sys ~tid ~cpu:target ?agent_seq ?thread_seq ()

let submit ctx ~atomic txns =
  if txns <> [] then ctx.batches <- (atomic, txns) :: ctx.batches

let recall ctx ~target =
  charge ctx (Kernel.costs ctx.group.kern).Hw.Costs.syscall;
  System.recall ctx.group.sys ctx.group.enc ~cpu:target

let enclave_cpu_list ctx = ctx.group.cpu_list

let cpu_is_idle ctx c =
  charge ctx scan_step_cost;
  Kernel.cpu_idle ctx.group.kern c

let curr_on ctx c =
  charge ctx scan_step_cost;
  Kernel.curr ctx.group.kern c

let latched_on ctx c = System.latched ctx.group.sys ~cpu:c
let lower_class_waiting ctx c = Kernel.lower_class_waiting ctx.group.kern c
let managed_threads ctx = System.managed_threads ctx.group.enc

let wire_wakeup g q ~wake_cpu =
  let costs = Kernel.costs g.kern in
  let delay = costs.Hw.Costs.msg_produce + costs.Hw.Costs.agent_wakeup in
  Squeue.add_aseq_target q (sw_of g wake_cpu);
  Squeue.set_wakeup q
    (Some
       (fun () ->
         ignore
           (Sim.Engine.post_in (Kernel.engine g.kern) ~delay (fun () ->
                (* The wakeup also owes the agent a pass even if its standard
                   queues are empty — the message may sit on a policy-created
                   extra queue the runtime does not know about. *)
                Sim.Idtbl.replace g.poked wake_cpu ();
                match Hashtbl.find_opt g.agents wake_cpu with
                | Some agent -> Kernel.wake g.kern agent
                | None -> ()))))

let create_queue ctx ~capacity ~wake_cpu =
  charge ctx (Kernel.costs ctx.group.kern).Hw.Costs.syscall;
  let q = System.create_queue ctx.group.enc ~capacity in
  (match wake_cpu with Some c -> wire_wakeup ctx.group q ~wake_cpu:c | None -> ());
  q

let associate_queue ctx task q =
  charge ctx (Kernel.costs ctx.group.kern).Hw.Costs.syscall;
  System.associate_queue ctx.group.enc task q

let queue_of_cpu ctx c = Sim.Idtbl.find_opt ctx.group.cpu_queues c

let poke ctx target =
  let g = ctx.group in
  charge ctx (Kernel.costs g.kern).Hw.Costs.syscall;
  Sim.Idtbl.replace g.poked target ();
  match Hashtbl.find_opt g.agents target with
  | Some agent -> Kernel.wake g.kern agent
  | None -> ()

let drain_list ctx q =
  let tnow = now ctx in
  let consume = (Kernel.costs ctx.group.kern).Hw.Costs.msg_consume in
  let rec go acc =
    match Squeue.consume q ~now:tnow with
    | Some msg ->
      charge ctx consume;
      go (msg :: acc)
    | None -> List.rev acc
  in
  go []

let drain ctx q = drain_list ctx q

(* --- Pass execution -------------------------------------------------------- *)

let get_ctx g =
  match g.the_ctx with
  | Some ctx -> ctx
  | None ->
    let ctx = { group = g; cur_cpu = g.gcpu; charged = 0; batches = [] } in
    g.the_ctx <- Some ctx;
    ctx

(* The one Abi handle a group's policy ever sees: a closure table over the
   group's mutable pass state.  Built lazily, like the ctx it wraps. *)
let get_abi g =
  match g.the_abi with
  | Some abi -> abi
  | None ->
    let ctx = get_ctx g in
    let abi =
      Abi.make ~version:Abi.version
        {
          Abi.op_cpu = (fun () -> ctx.cur_cpu);
          op_now = (fun () -> now ctx);
          op_rng = (fun () -> rng ctx);
          op_charge = (fun ns -> charge ctx ns);
          op_charge_scan = (fun n -> charge_scan ctx n);
          op_aseq = (fun () -> aseq ctx);
          op_make_txn =
            (fun ~tid ~target ~with_aseq ~thread_seq ->
              make_txn ctx ~tid ~target ~with_aseq ?thread_seq ());
          op_submit = (fun ~atomic txns -> submit ctx ~atomic txns);
          op_recall = (fun ~target -> recall ctx ~target);
          op_create_queue =
            (fun ~capacity ~wake_cpu -> create_queue ctx ~capacity ~wake_cpu);
          op_associate_queue = (fun task q -> associate_queue ctx task q);
          op_queue_of_cpu = (fun c -> queue_of_cpu ctx c);
          op_poke = (fun c -> poke ctx c);
          op_drain = (fun q -> drain ctx q);
          op_enclave_cpu_list = (fun () -> enclave_cpu_list ctx);
          op_cpu_is_idle = (fun c -> cpu_is_idle ctx c);
          op_curr_on = (fun c -> curr_on ctx c);
          op_latched_on = (fun c -> latched_on ctx c);
          op_lower_class_waiting = (fun c -> lower_class_waiting ctx c);
          op_managed_threads = (fun () -> managed_threads ctx);
          op_status_word =
            (fun task ->
              Option.map Status_word.read (System.status_word g.sys task));
          op_thread_seq = (fun task -> System.thread_seq g.sys task);
          op_task_by_tid = (fun tid -> Kernel.task_by_tid g.kern tid);
          op_topology = (fun () -> Kernel.topo g.kern);
          op_core_class =
            (fun c -> Hw.Topology.class_of (Kernel.topo g.kern) c);
          op_bpf_install =
            (fun p ->
              charge ctx (Kernel.costs g.kern).Hw.Costs.bpf_install;
              System.bpf_install g.sys g.enc p);
          op_bpf_remove =
            (fun hook ->
              charge ctx (Kernel.costs g.kern).Hw.Costs.bpf_install;
              System.bpf_remove g.enc hook);
          op_bpf_map_update =
            (fun ~map ~idx v ->
              charge ctx (Kernel.costs g.kern).Hw.Costs.bpf_map_op;
              System.bpf_map_update g.enc ~map ~idx v);
          op_bpf_map_get =
            (fun ~map ~idx ->
              charge ctx (Kernel.costs g.kern).Hw.Costs.bpf_map_op;
              System.bpf_map_get g.enc ~map ~idx);
        }
    in
    g.the_abi <- Some abi;
    abi

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
  match Hw.Topology.sibling_of (Kernel.topo g.kern) cpu with
  | Some s -> Kernel.curr g.kern s <> None
  | None -> false

(* One scheduling pass: drain [queues], run the policy, then occupy the CPU
   for the charged interval; commits validate and apply when it ends, so
   messages arriving meanwhile produce ESTALE (§3.2). *)
let run_pass g ~cpu ~queues ~after_apply =
  let ctx = get_ctx g in
  ctx.cur_cpu <- cpu;
  ctx.charged <- base_pass_cost;
  ctx.batches <- [];
  g.iters <- g.iters + 1;
  let pass_start = Kernel.now g.kern in
  let pass_span =
    if Obs.Hooks.enabled () then
      Obs.Hooks.agent_pass_begin ~now:pass_start ~cpu
        ~eid:(System.enclave_id g.enc)
    else 0
  in
  let msgs = List.concat_map (fun q -> drain_list ctx q) queues in
  g.pol.schedule (get_abi g) msgs;
  let batches = List.rev ctx.batches in
  ctx.charged <- ctx.charged + commit_cost g ~agent_cpu:cpu batches;
  if g.pass_penalty > 0 then ctx.charged <- ctx.charged + g.pass_penalty;
  let c = Kernel.costs g.kern in
  let charged =
    if sibling_busy g cpu then scale_f c.Hw.Costs.smt_contention ctx.charged
    else ctx.charged
  in
  let idle_pass = msgs = [] && batches = [] in
  let floor = if idle_pass then g.idle_gap else g.min_iteration in
  let delta = max floor charged in
  Task.Run
    {
      ns = delta;
      after =
        (fun () ->
          let agent_sw = Some (sw_of g cpu) in
          List.iter
            (fun (atomic, txns) ->
              System.commit g.sys g.enc ~agent_cpu:cpu ~agent_sw ~atomic txns)
            batches;
          List.iter
            (fun (_, txns) ->
              List.iter (fun txn -> g.pol.on_result (get_abi g) txn) txns)
            batches;
          if pass_span <> 0 then
            Obs.Hooks.agent_pass_end ~now:(Kernel.now g.kern) ~began:pass_start
              ~id:pass_span ~nmsgs:(List.length msgs)
              ~ntxns:
                (List.fold_left (fun acc (_, txns) -> acc + List.length txns) 0
                   batches);
          after_apply ());
    }

let alive g = (not g.stopped) && System.enclave_alive g.enc

(* --- Global (centralized) agent -------------------------------------------- *)

let find_handoff_target g ~from =
  let ok c =
    c <> from && Kernel.cpu_idle g.kern c && not (Kernel.lower_class_waiting g.kern c)
  in
  List.find_opt ok g.cpu_list

let rec global_behavior g cpu () =
  if (not (alive g)) || not (Hashtbl.mem g.agents cpu) then Task.Exit
  else if g.gcpu <> cpu then Task.Block { after = global_behavior g cpu }
  else if g.paused then
    (* A hung agent: occupies its CPU but drains nothing, commits nothing. *)
    Task.Run { ns = g.idle_gap; after = global_behavior g cpu }
  else if Kernel.lower_class_waiting g.kern cpu then begin
    (* Hot handoff: vacate for the CFS/MicroQuanta work waiting here. *)
    match find_handoff_target g ~from:cpu with
    | Some c' ->
      g.gcpu <- c';
      (match Hashtbl.find_opt g.agents c' with
      | Some agent -> Kernel.wake g.kern agent
      | None -> ());
      Task.Block { after = global_behavior g cpu }
    | None -> global_pass g cpu
  end
  else global_pass g cpu

and global_pass g cpu =
  run_pass g ~cpu
    ~queues:[ System.default_queue g.enc ]
    ~after_apply:(fun () -> global_behavior g cpu ())

(* --- Local (per-CPU) agents ------------------------------------------------ *)

let local_queues g cpu =
  let own =
    match Sim.Idtbl.find_opt g.cpu_queues cpu with Some q -> [ q ] | None -> []
  in
  (* The first CPU's agent also watches the enclave default queue, where
     newly managed threads announce themselves before the policy associates
     them to a per-CPU queue — plus any queues orphaned by CPU removal. *)
  match g.cpu_list with
  | first :: _ when first = cpu ->
    (System.default_queue g.enc :: own) @ g.orphans
  | _ -> own

let rec local_behavior g cpu () =
  if (not (alive g)) || not (Hashtbl.mem g.agents cpu) then Task.Exit
  else if g.paused then
    Task.Run { ns = g.idle_gap; after = local_behavior g cpu }
  else begin
    let queues = local_queues g cpu in
    let pending = List.exists (fun q -> Squeue.length q > 0) queues in
    let poked = Sim.Idtbl.mem g.poked cpu in
    if poked then Sim.Idtbl.remove g.poked cpu;
    if (not pending) && not poked then Task.Block { after = local_behavior g cpu }
    else run_pass g ~cpu ~queues ~after_apply:(fun () -> local_behavior g cpu ())
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
  System.register_agent g.enc task sw

let spawn_agents g behavior =
  List.iter (fun cpu -> spawn_one g behavior cpu) g.cpu_list;
  List.iter (fun cpu -> Kernel.start g.kern (Hashtbl.find g.agents cpu)) g.cpu_list

(* An agent whose CPU left the enclave: deregister now, die off the event
   loop (the removal may have been triggered from agent context). *)
let retire_agent g cpu =
  match Hashtbl.find_opt g.agents cpu with
  | None -> ()
  | Some task ->
    Hashtbl.remove g.agents cpu;
    Sim.Idtbl.remove g.sws cpu;
    Sim.Idtbl.remove g.poked cpu;
    System.unregister_agent g.enc task;
    ignore
      (Sim.Engine.post_in (Kernel.engine g.kern) ~delay:0 (fun () ->
           if task.Task.state <> Task.Dead then Kernel.kill g.kern task))

let wake_agent g cpu =
  match Hashtbl.find_opt g.agents cpu with
  | Some a -> Kernel.wake g.kern a
  | None -> ()

let on_resize_global g = function
  | System.Cpu_added cpu ->
    if not (List.mem cpu g.cpu_list) then begin
      g.cpu_list <- g.cpu_list @ [ cpu ];
      spawn_one g (fun cpu -> global_behavior g cpu) cpu;
      Kernel.start g.kern (Hashtbl.find g.agents cpu);
      g.pol.on_cpu_added (get_abi g) cpu
    end
  | System.Cpu_removed cpu ->
    if List.mem cpu g.cpu_list then begin
      g.cpu_list <- List.filter (fun c -> c <> cpu) g.cpu_list;
      (if g.gcpu = cpu then
         match g.cpu_list with
         | [] -> ()
         | c' :: _ ->
           g.gcpu <- c';
           wake_agent g c');
      retire_agent g cpu;
      g.pol.on_cpu_removed (get_abi g) cpu
    end

let on_resize_local g = function
  | System.Cpu_added cpu ->
    if not (List.mem cpu g.cpu_list) then begin
      g.cpu_list <- g.cpu_list @ [ cpu ];
      spawn_one g (fun cpu -> local_behavior g cpu) cpu;
      Kernel.start g.kern (Hashtbl.find g.agents cpu);
      let q = System.create_queue g.enc ~capacity:4096 in
      Sim.Idtbl.replace g.cpu_queues cpu q;
      System.associate_cpu_queue g.enc ~cpu q;
      wire_wakeup g q ~wake_cpu:cpu;
      g.pol.on_cpu_added (get_abi g) cpu;
      Sim.Idtbl.replace g.poked cpu ();
      wake_agent g cpu
    end
  | System.Cpu_removed cpu ->
    if List.mem cpu g.cpu_list then begin
      let was_watcher =
        match g.cpu_list with first :: _ -> first = cpu | [] -> false
      in
      g.cpu_list <- List.filter (fun c -> c <> cpu) g.cpu_list;
      (match Sim.Idtbl.find_opt g.cpu_queues cpu with
      | Some q ->
        Sim.Idtbl.remove g.cpu_queues cpu;
        g.orphans <- g.orphans @ [ q ]
      | None -> ());
      retire_agent g cpu;
      (match g.cpu_list with
      | [] -> ()
      | head :: _ ->
        (* Re-point wakeups of every queue the departed agent owned (and,
           when the watcher itself left, the default queue) at the new
           drainer. *)
        List.iter
          (fun q ->
            Squeue.clear_aseq_targets q;
            wire_wakeup g q ~wake_cpu:head)
          g.orphans;
        if was_watcher then begin
          let dq = System.default_queue g.enc in
          Squeue.clear_aseq_targets dq;
          wire_wakeup g dq ~wake_cpu:head
        end;
        g.pol.on_cpu_removed (get_abi g) cpu;
        Sim.Idtbl.replace g.poked head ();
        wake_agent g head)
    end

let make_group sys enc ~mode ~min_iteration ?(idle_gap = 1_000) pol =
  let kern = System.kernel sys in
  let cpu_list = Cpumask.to_list (System.enclave_cpus enc) in
  {
    sys;
    enc;
    kern;
    pol;
    mode;
    cpu_list;
    orphans = [];
    agents = Hashtbl.create 16;
    sws = Sim.Idtbl.create ();
    cpu_queues = Sim.Idtbl.create ();
    min_iteration;
    idle_gap = max min_iteration idle_gap;
    gcpu = (match mode with Global -> List.hd cpu_list | Local -> -1);
    poked = Sim.Idtbl.create ();
    iters = 0;
    stopped = false;
    attached = false;
    the_ctx = None;
    the_abi = None;
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
  pol.init (get_abi g);
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
      wire_wakeup g q ~wake_cpu:cpu)
    g.cpu_list;
  (* Default-queue traffic wakes the first CPU's agent. *)
  wire_wakeup g (System.default_queue enc) ~wake_cpu:(List.hd g.cpu_list);
  g.attached <- true;
  System.on_resize enc (fun ev ->
      if alive g && g.attached then on_resize_local g ev);
  let ctx = get_ctx g in
  ctx.cur_cpu <- List.hd g.cpu_list;
  pol.init (get_abi g);
  (* Every agent owes an initial pass: after an in-place upgrade the policy
     may have rebuilt runqueues with no message traffic to trigger them. *)
  List.iter
    (fun cpu ->
      Sim.Idtbl.replace g.poked cpu ();
      Kernel.wake g.kern (Hashtbl.find g.agents cpu))
    g.cpu_list;
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

let paused g = g.paused
let set_pass_penalty g ns = g.pass_penalty <- max 0 ns
let pass_penalty g = g.pass_penalty
