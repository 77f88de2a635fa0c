module Task = Task
module Cpumask = Cpumask
module Class_intf = Class_intf
module Cfs = Cfs
module Rt = Rt
module Microquanta = Microquanta

type stats = {
  mutable ctx_switches : int;
  mutable ipis : int;
  mutable wakeups : int;
  mutable reschedules : int;
}

type cpu_state = {
  cid : int;
  mutable curr : Task.t option;
  mutable seg : Sim.Engine.handle;  (* end-of-segment event; [nil_handle] = none *)
  mutable last_account : int;  (* last time curr's runtime was charged *)
  mutable dispatch_time : int;  (* when curr was last dispatched *)
  mutable switching : bool;  (* a context switch is in flight *)
  mutable resched_pending : bool;
  mutable switch_extra : int;  (* pending IPI-handler cost *)
  mutable tick_debt : int;  (* interrupt time stolen from the running task *)
  mutable ticks_enabled : bool;
  mutable idle_since : int;
  mutable idle_total : int;
}

type t = {
  machine : Hw.Machines.t;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  core_sched : bool;
  cpus : cpu_state array;
  mutable classes : Class_intf.cls list;  (* priority order *)
  by_policy : Class_intf.cls option array;  (* indexed by Task.policy_rank *)
  mutable scan_classes : Class_intf.cls list;
      (* classes with [tracks_queued = false]: their runnable counts are not
         folded into [queued] and must be asked individually *)
  queued : int array;
      (* per-CPU runnable count aggregated over tracking classes, maintained
         through [env.note_queued] so idle checks are O(1) *)
  tasks : Task.t Sim.Idtbl.t;  (* tids are handed out densely from [next_tid] *)
  mutable next_tid : int;
  mutable tick_listeners : (int -> unit) array;
  mutable n_tick_listeners : int;
  stats : stats;
  exec_speed : float array;
      (* per-CPU work retired per wall ns (the core class's
         Hw.Costs.class_speed); 1.0 everywhere on uniform machines *)
  uniform_speed : bool;
      (* every CPU at speed 1.0: wall time IS work time, and accounting
         stays on the exact integer path (byte-identity for all uniform
         presets) *)
  ctx_switch_cost : int array;  (* per-CPU class-scaled Costs.ctx_switch *)
  cfs_ctx_switch_cost : int array;  (* per-CPU class-scaled Costs.cfs_ctx_switch *)
}

let engine t = t.engine
let topo t = t.machine.Hw.Machines.topo
let costs t = t.machine.Hw.Machines.costs
let rng t = t.rng
let machine t = t.machine
let now t = Sim.Engine.now t.engine
let ncpus t = Hw.Topology.num_cpus (topo t)
let full_mask t = Cpumask.create_full ~ncpus:(ncpus t)
let stats t = t.stats
let curr t cpu = t.cpus.(cpu).curr

(* Wall<->work conversion through the CPU's class speed.  [Task.remaining]
   is denominated in work ns (what the segment asked to compute); the event
   queue runs in wall ns.  On a speed-1.0 CPU the two are the same integer
   — no float touches the uniform path.  On a slower core, a segment of
   [w] work occupies [ceil (w / speed)] wall ns, and [wall] ns of running
   retires [floor (wall * speed)] work; floor(ceil(w/s)*s) >= w, so an
   uninterrupted segment always completes its work. *)
let wall_of_work t ~cpu work =
  let s = t.exec_speed.(cpu) in
  if s = 1.0 then work
  else int_of_float (Float.ceil (float_of_int work /. s))

let work_of_wall t ~cpu wall =
  let s = t.exec_speed.(cpu) in
  if s = 1.0 then wall
  else int_of_float (Float.floor (float_of_int wall *. s))

let exec_speed t cpu = t.exec_speed.(cpu)

let find_class t policy =
  match t.by_policy.(Task.policy_rank policy) with
  | Some c -> c
  | None -> invalid_arg "Kernel.find_class: class not installed"

let class_of t (task : Task.t) = find_class t task.policy

(* Anything queued on [cpu]?  The aggregate counter covers every tracking
   class; only non-tracking classes (ghOSt) are asked individually, and each
   answers in O(1). *)
let rec any_scanned_queued cpu = function
  | [] -> false
  | (c : Class_intf.cls) :: rest ->
    c.nr_runnable ~cpu > 0 || any_scanned_queued cpu rest

let any_queued t cpu = t.queued.(cpu) > 0 || any_scanned_queued cpu t.scan_classes

let cpu_idle t cpu = t.cpus.(cpu).curr = None && not (any_queued t cpu)

let idle_cpus t =
  List.filter (cpu_idle t) (Hw.Topology.cpus (topo t))

(* How long the current thread on [cpu] has been running; 0 when idle. *)
let since_dispatch t cpu =
  let cs = t.cpus.(cpu) in
  match cs.curr with None -> 0 | Some _ -> now t - cs.dispatch_time

(* Fold [ns] of extra cost (e.g. a fastpath program run plus latch) into
   the next context switch on [cpu]. *)
let add_switch_cost t cpu ns =
  let cs = t.cpus.(cpu) in
  cs.switch_extra <- cs.switch_extra + ns

let idle_total t cpu =
  let cs = t.cpus.(cpu) in
  cs.idle_total + (if cs.curr = None then now t - cs.idle_since else 0)

(* Top-level rather than a local closure over [t] and [cpu], which would
   allocate on every call: every global agent pass and handoff probe. *)
let class_waiting t policy cpu =
  match t.by_policy.(Task.policy_rank policy) with
  | Some (c : Class_intf.cls) -> c.nr_runnable ~cpu > 0
  | None -> false

let lower_class_waiting t cpu =
  class_waiting t Task.Cfs cpu || class_waiting t Task.Microquanta cpu

let on_tick t fn =
  let n = t.n_tick_listeners in
  if n = Array.length t.tick_listeners then begin
    let grown = Array.make (Int.max 8 (2 * n)) (fun (_ : int) -> ()) in
    Array.blit t.tick_listeners 0 grown 0 n;
    t.tick_listeners <- grown
  end;
  t.tick_listeners.(n) <- fn;
  t.n_tick_listeners <- n + 1

(* --- Core scheduling (§4.5 in-kernel baseline) --------------------------- *)

let cookie_compatible (a : Task.t) (b : Task.t) = a.cookie = b.cookie

(* Linux core scheduling does a core-wide pick: when the waiting task is far
   enough behind in fairness, it runs anyway and the incompatible sibling is
   forced idle (the dispatch path kicks it).  Without this pressure valve an
   unlucky cookie starves behind a compatible-but-unfair pairing. *)
let core_fairness_margin = 1_200_000.0

(* The pick filter under core scheduling; without it every task passes. *)
let cookie_filter t cpu (task : Task.t) =
  match Hw.Topology.sibling_of (topo t) cpu with
  | None -> true
  | Some s -> (
    match t.cpus.(s).curr with
    | None -> true
    | Some st ->
      cookie_compatible st task
      || (st.policy = Task.Cfs && task.policy = Task.Cfs
         && task.vruntime +. core_fairness_margin < st.vruntime))

(* The classes' picks, then their steals, in priority order.  Top-level, so
   a pick allocates no closure, and without core scheduling the filter is
   the static [Class_intf.no_filter]. *)
let rec pick_from classes ~cpu ~filter =
  match classes with
  | [] -> None
  | (cls : Class_intf.cls) :: rest -> (
    match cls.pick ~cpu ~filter with
    | Some _ as x -> x
    | None -> pick_from rest ~cpu ~filter)

let rec steal_from classes ~cpu ~filter =
  match classes with
  | [] -> None
  | (cls : Class_intf.cls) :: rest -> (
    match cls.steal ~cpu ~filter with
    | Some _ as x -> x
    | None -> steal_from rest ~cpu ~filter)

(* --- Reschedule plumbing -------------------------------------------------- *)

let rec resched t cpu =
  let cs = t.cpus.(cpu) in
  if not cs.resched_pending then begin
    cs.resched_pending <- true;
    t.stats.reschedules <- t.stats.reschedules + 1;
    ignore
      (Sim.Engine.post_in t.engine ~delay:0 (fun () ->
           if cs.resched_pending then schedule t cpu))
  end

and account t cs (task : Task.t) =
  let tnow = now t in
  let wall = tnow - cs.last_account in
  if wall > 0 then begin
    cs.last_account <- tnow;
    (* Interrupt time (tick_debt) ate into the window: the task made that
       much less progress. *)
    let stolen = Int.min wall cs.tick_debt in
    cs.tick_debt <- cs.tick_debt - stolen;
    let ran = wall - stolen in
    if ran > 0 then begin
      (* sum_exec and class fairness stay in wall time (CPU occupancy);
         only the work ledger scales through the core class's speed. *)
      task.sum_exec <- task.sum_exec + ran;
      task.remaining <- Int.max 0 (task.remaining - work_of_wall t ~cpu:cs.cid ran);
      (class_of t task).update ~cpu:cs.cid task ~ran
    end
  end

and stop_curr t cs (task : Task.t) =
  account t cs task;
  if cs.seg != Sim.Engine.nil_handle then begin
    Sim.Engine.cancel t.engine cs.seg;
    cs.seg <- Sim.Engine.nil_handle
  end;
  task.state <- Task.Runnable;
  task.runnable_since <- now t;
  task.nr_preemptions <- task.nr_preemptions + 1;
  if Obs.Hooks.enabled () then Obs.Hooks.preempt ~now:(now t) ~cpu:cs.cid ~tid:task.tid;
  cs.curr <- None;
  let cls = class_of t task in
  if Cpumask.mem task.affinity cs.cid then cls.put_prev ~cpu:cs.cid task
  else begin
    (* Affinity changed under it: treat as a fresh placement. *)
    let cpu' = cls.select_cpu task in
    cls.enqueue ~cpu:cpu' ~is_new:false task;
    preempt_check t cpu' task
  end

and preempt_check t cpu (task : Task.t) =
  match t.cpus.(cpu).curr with
  | None -> resched t cpu
  | Some c ->
    let r_new = Task.policy_rank task.policy in
    let r_cur = Task.policy_rank c.policy in
    if r_new < r_cur then resched t cpu
    else if r_new = r_cur && (class_of t task).wakeup_preempt ~curr:c task then
      resched t cpu

and schedule t cpu =
  let cs = t.cpus.(cpu) in
  cs.resched_pending <- false;
  if cs.switching then cs.resched_pending <- true
  else begin
    let prev = cs.curr in
    (match prev with
    | Some task when task.state = Task.Running -> stop_curr t cs task
    | Some _ -> cs.curr <- None
    | None -> ());
    pick_and_dispatch t cs ~prev
  end

and pick_and_dispatch t cs ~prev =
  let cpu = cs.cid in
  let filter =
    if t.core_sched then cookie_filter t cpu else Class_intf.no_filter
  in
  let candidate =
    match pick_from t.classes ~cpu ~filter with
    | Some _ as c -> c
    | None -> steal_from t.classes ~cpu ~filter
  in
  match candidate with
  | None -> go_idle t cs ~prev
  | Some next -> dispatch t cs next ~prev

and go_idle t cs ~prev =
  (* [prev = None] with idle_since = now means the current event just
     blocked/exited the task (advance cleared curr before rescheduling):
     that is a fresh transition to idle too. *)
  if Obs.Hooks.enabled () && (prev <> None || cs.idle_since = now t) then
    Obs.Hooks.idle ~now:(now t) ~cpu:cs.cid;
  cs.curr <- None;
  if prev <> None then cs.idle_since <- now t;
  if t.core_sched then begin
    (* Our curr changed to idle: the sibling's filtered-out tasks may now be
       eligible. *)
    match Hw.Topology.sibling_of (topo t) cs.cid with
    | Some s when any_queued t s -> resched t s
    | Some _ | None -> ()
  end

and dispatch t cs (next : Task.t) ~prev =
  let tnow = now t in
  if prev = None && cs.curr = None then cs.idle_total <- cs.idle_total + (tnow - cs.idle_since);
  next.state <- Task.Running;
  let prev_cpu = next.cpu in
  let prev_cpu_differs = prev_cpu <> cs.cid && prev_cpu >= 0 in
  if next.cpu <> cs.cid then next.nr_migrations <- next.nr_migrations + 1;
  next.cpu <- cs.cid;
  next.on_rq <- false;
  cs.curr <- Some next;
  let resumed = match prev with Some p when p == next -> true | _ -> false in
  if resumed then begin
    cs.last_account <- tnow;
    cs.dispatch_time <- tnow;
    begin_segment t cs next
  end
  else begin
    next.nr_switches <- next.nr_switches + 1;
    t.stats.ctx_switches <- t.stats.ctx_switches + 1;
    if Obs.Hooks.enabled () then
      Obs.Hooks.dispatch ~now:tnow ~cpu:cs.cid ~tid:next.tid ~name:next.name
        ~migrated:prev_cpu_differs;
    let base =
      if next.is_agent || next.policy = Task.Ghost then t.ctx_switch_cost.(cs.cid)
      else t.cfs_ctx_switch_cost.(cs.cid)
    in
    (* Crossing core classes lands on a cold microarchitecture: charge the
       migration surcharge on top of the (class-scaled) switch cost.  Both
       are zero deltas on uniform machines. *)
    let surcharge = (costs t).Hw.Costs.migration_class_extra in
    let migration_extra =
      if
        prev_cpu_differs && surcharge <> 0
        && Hw.Topology.class_of (topo t) prev_cpu
           <> Hw.Topology.class_of (topo t) cs.cid
      then surcharge
      else 0
    in
    let cost = base + migration_extra + cs.switch_extra in
    cs.switch_extra <- 0;
    cs.switching <- true;
    ignore
      (Sim.Engine.post_in t.engine ~delay:cost (fun () ->
           cs.switching <- false;
           cs.last_account <- now t;
           cs.dispatch_time <- now t;
           if cs.resched_pending then schedule t cs.cid
           else begin_segment t cs next));
    core_sched_kick t cs next
  end

and core_sched_kick t cs (next : Task.t) =
  if t.core_sched then begin
    match Hw.Topology.sibling_of (topo t) cs.cid with
    | Some s -> (
      match t.cpus.(s).curr with
      | Some st when not (cookie_compatible st next) -> resched t s
      | Some _ -> ()
      | None -> if any_queued t s then resched t s)
    | None -> ()
  end

and begin_segment t cs (task : Task.t) =
  cs.last_account <- now t;
  if task.remaining > 0 then
    cs.seg <-
      Sim.Engine.post_in t.engine
        ~delay:(wall_of_work t ~cpu:cs.cid task.remaining)
        (fun () -> seg_end t cs task)
  else advance t cs task

and seg_end t cs (task : Task.t) =
  cs.seg <- Sim.Engine.nil_handle;
  account t cs task;
  if task.remaining > 0 then
    (* Interrupts stole part of the segment: keep running the remainder. *)
    cs.seg <-
      Sim.Engine.post_in t.engine
        ~delay:(wall_of_work t ~cpu:cs.cid task.remaining)
        (fun () -> seg_end t cs task)
  else advance t cs task

and advance t cs (task : Task.t) =
  match task.cont () with
  | Task.Run { ns; after } ->
    task.cont <- after;
    task.remaining <- Int.max 1 ns;
    cs.seg <-
      Sim.Engine.post_in t.engine
        ~delay:(wall_of_work t ~cpu:cs.cid task.remaining)
        (fun () -> seg_end t cs task)
  | Task.Block { after } ->
    task.cont <- after;
    task.state <- Task.Blocked;
    if Obs.Hooks.enabled () then Obs.Hooks.block ~now:(now t) ~cpu:cs.cid ~tid:task.tid;
    cs.curr <- None;
    cs.idle_since <- now t;
    (class_of t task).on_block ~cpu:cs.cid task;
    schedule t cs.cid
  | Task.Yield { after } ->
    task.cont <- after;
    task.state <- Task.Runnable;
    task.runnable_since <- now t;
    if Obs.Hooks.enabled () then Obs.Hooks.yield ~now:(now t) ~cpu:cs.cid ~tid:task.tid;
    cs.curr <- None;
    cs.idle_since <- now t;
    (class_of t task).on_yield ~cpu:cs.cid task;
    schedule t cs.cid
  | Task.Exit ->
    task.state <- Task.Dead;
    if Obs.Hooks.enabled () then Obs.Hooks.texit ~now:(now t) ~cpu:cs.cid ~tid:task.tid;
    cs.curr <- None;
    cs.idle_since <- now t;
    (class_of t task).on_dead ~cpu:cs.cid task;
    Sim.Idtbl.remove t.tasks task.tid;
    schedule t cs.cid

(* --- Task lifecycle ------------------------------------------------------- *)

let make_runnable t (task : Task.t) ~is_new =
  task.state <- Task.Runnable;
  task.runnable_since <- now t;
  let cls = class_of t task in
  let cpu = cls.select_cpu task in
  if Obs.Hooks.enabled () then Obs.Hooks.wake ~now:(now t) ~tid:task.tid ~target_cpu:cpu;
  cls.enqueue ~cpu ~is_new task;
  preempt_check t cpu task

let create_task t ?(policy = Task.Cfs) ?(nice = 0) ?(rt_prio = 0) ?(cookie = 0)
    ?affinity ~name cont =
  let affinity = match affinity with Some m -> m | None -> full_mask t in
  if Cpumask.is_empty affinity then invalid_arg "Kernel.create_task: empty affinity";
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let task = Task.make ~tid ~name ~policy ~nice ~affinity cont in
  task.rt_prio <- rt_prio;
  task.cookie <- cookie;
  Sim.Idtbl.replace t.tasks tid task;
  task

let start t (task : Task.t) =
  match task.state with
  | Task.Created -> make_runnable t task ~is_new:true
  | Task.Runnable | Task.Running | Task.Blocked | Task.Dead ->
    invalid_arg "Kernel.start: task already started"

let wake t (task : Task.t) =
  match task.state with
  | Task.Blocked ->
    t.stats.wakeups <- t.stats.wakeups + 1;
    make_runnable t task ~is_new:false
  | Task.Created | Task.Runnable | Task.Running | Task.Dead -> ()

let kill t (task : Task.t) =
  (match task.state with
  | Task.Dead -> ()
  | Task.Running ->
    let cs = t.cpus.(task.cpu) in
    account t cs task;
    if cs.seg != Sim.Engine.nil_handle then begin
      Sim.Engine.cancel t.engine cs.seg;
      cs.seg <- Sim.Engine.nil_handle
    end;
    cs.curr <- None;
    cs.idle_since <- now t;
    task.state <- Task.Dead;
    (class_of t task).on_dead ~cpu:cs.cid task;
    schedule t cs.cid
  | Task.Runnable ->
    if task.on_rq then (class_of t task).dequeue task;
    task.state <- Task.Dead;
    (class_of t task).on_dead ~cpu:task.cpu task
  | Task.Created | Task.Blocked ->
    task.state <- Task.Dead;
    (class_of t task).on_dead ~cpu:(Int.max task.cpu 0) task);
  Sim.Idtbl.remove t.tasks task.tid

let set_affinity t (task : Task.t) mask =
  if Cpumask.is_empty mask then invalid_arg "Kernel.set_affinity: empty mask";
  task.affinity <- mask;
  (class_of t task).on_affinity task;
  match task.state with
  | Task.Running when not (Cpumask.mem mask task.cpu) -> resched t task.cpu
  | Task.Runnable when task.on_rq && not (Cpumask.mem mask task.cpu) ->
    let cls = class_of t task in
    cls.dequeue task;
    let cpu = cls.select_cpu task in
    cls.enqueue ~cpu ~is_new:false task;
    preempt_check t cpu task
  | Task.Running | Task.Runnable | Task.Created | Task.Blocked | Task.Dead -> ()

let set_policy t (task : Task.t) policy =
  if task.policy <> policy then begin
    (* Detach from the old class: dequeue is safe on unqueued tasks and lets
       ghOSt drop a latched-but-not-running thread. *)
    (class_of t task).dequeue task;
    task.policy <- policy;
    let cls = class_of t task in
    cls.attach ~cpu:(Int.max task.cpu 0) task;
    match task.state with
    | Task.Runnable -> make_runnable t task ~is_new:true
    | Task.Running -> resched t task.cpu
    | Task.Created | Task.Blocked | Task.Dead -> ()
  end

let task_by_tid t tid = Sim.Idtbl.find_opt t.tasks tid
let tasks t = List.rev (Sim.Idtbl.fold (fun _ task acc -> task :: acc) t.tasks [])

let send_ipi t ~target ~wire ~handle fn =
  t.stats.ipis <- t.stats.ipis + 1;
  ignore
    (Sim.Engine.post_in t.engine ~delay:wire (fun () ->
         fn ();
         let cs = t.cpus.(target) in
         cs.switch_extra <- Int.max cs.switch_extra handle;
         resched t target))

(* --- Ticks ---------------------------------------------------------------- *)

let start_ticks t =
  let period = (costs t).Hw.Costs.tick_period in
  Array.iter
    (fun cs ->
      let rec tick () =
        if cs.ticks_enabled then begin
          (match cs.curr with
          | Some task
            when task.state = Task.Running && (not cs.switching) && cs.seg != Sim.Engine.nil_handle ->
            account t cs task;
            (* The interrupt itself steals CPU time from the task (a guest
               pays a VM-exit here, §5). *)
            cs.tick_debt <- cs.tick_debt + (costs t).Hw.Costs.tick_interrupt;
            (class_of t task).tick ~cpu:cs.cid task
              ~since_dispatch:(now t - cs.dispatch_time)
          | Some _ -> ()
          | None ->
            (* An idle CPU with queued work retries its pick: under core
               scheduling a cookie-filtered task becomes eligible once the
               fairness valve opens or the sibling's task changes. *)
            if any_queued t cs.cid then resched t cs.cid);
          if Obs.Hooks.enabled () then
            Obs.Hooks.tick ~now:(now t) ~cpu:cs.cid;
          for i = 0 to t.n_tick_listeners - 1 do
            t.tick_listeners.(i) cs.cid
          done
        end;
        ignore (Sim.Engine.post_in t.engine ~delay:period tick)
      in
      (* Stagger ticks across CPUs like real kernels do. *)
      ignore (Sim.Engine.post_in t.engine ~delay:(period + (cs.cid * 997)) tick))
    t.cpus

(* --- Construction --------------------------------------------------------- *)

let class_env_of t : Class_intf.env =
  {
    engine = t.engine;
    topo = topo t;
    costs = costs t;
    ncpus = ncpus t;
    core_sched = t.core_sched;
    curr = (fun cpu -> t.cpus.(cpu).curr);
    cpu_idle = (fun cpu -> cpu_idle t cpu);
    resched = (fun cpu -> resched t cpu);
    note_queued = (fun ~cpu d -> t.queued.(cpu) <- t.queued.(cpu) + d);
  }

let install_class t (cls : Class_intf.cls) =
  t.classes <- t.classes @ [ cls ];
  t.by_policy.(Task.policy_rank cls.policy) <- Some cls;
  if not cls.tracks_queued then t.scan_classes <- t.scan_classes @ [ cls ]

let create ?(core_sched = false) ?(seed = 42) ?engine machine =
  let topo = machine.Hw.Machines.topo in
  let mcosts = machine.Hw.Machines.costs in
  let ncpus = Hw.Topology.num_cpus topo in
  (* Per-CPU class parameters, resolved once: execution speed and the
     class-scaled switch costs.  On a uniform machine the scale is 1.0
     everywhere and [scale_i 1.0 x = x] exactly, so the precomputed costs
     equal the raw Costs fields and accounting never leaves integers. *)
  let exec_speed =
    Array.init ncpus (fun cpu ->
        Hw.Costs.class_speed_of mcosts (Hw.Topology.class_of topo cpu))
  in
  let switch_cost_of base cpu =
    let scale =
      Hw.Costs.class_switch_scale_of mcosts (Hw.Topology.class_of topo cpu)
    in
    if scale = 1.0 then base else Hw.Costs.scale_i scale base
  in
  let t =
    {
      machine;
      engine =
        (match engine with Some e -> e | None -> Sim.Engine.create ());
      rng = Sim.Rng.create seed;
      core_sched;
      cpus =
        Array.init ncpus (fun cid ->
            {
              cid;
              curr = None;
              seg = Sim.Engine.nil_handle;
              last_account = 0;
              dispatch_time = 0;
              switching = false;
              resched_pending = false;
              switch_extra = 0;
              tick_debt = 0;
              ticks_enabled = true;
              idle_since = 0;
              idle_total = 0;
            });
      classes = [];
      by_policy = Array.make 4 None;  (* one slot per Task.policy_rank *)
      scan_classes = [];
      queued = Array.make ncpus 0;
      tasks = Sim.Idtbl.create ();
      next_tid = 1;
      tick_listeners = [||];
      n_tick_listeners = 0;
      stats = { ctx_switches = 0; ipis = 0; wakeups = 0; reschedules = 0 };
      exec_speed;
      uniform_speed = Array.for_all (fun s -> s = 1.0) exec_speed;
      ctx_switch_cost =
        Array.init ncpus (switch_cost_of mcosts.Hw.Costs.ctx_switch);
      cfs_ctx_switch_cost =
        Array.init ncpus (switch_cost_of mcosts.Hw.Costs.cfs_ctx_switch);
    }
  in
  let env = class_env_of t in
  let rt = Rt.create env in
  let mq = Microquanta.create env in
  let cfs = Cfs.create env in
  List.iter (install_class t) [ Rt.cls rt; Microquanta.cls mq; Cfs.cls cfs ];
  start_ticks t;
  t

let set_ticks_enabled t ~cpu flag = t.cpus.(cpu).ticks_enabled <- flag

let run_until t time = Sim.Engine.run_until t.engine time
let run_for t delta = Sim.Engine.run_until t.engine (now t + delta)
