type t = {
  env : Class_intf.env;
  rqs : Task.t list array;
  nr : int array;
  mutable throttled : Task.t list;
}

let create env =
  {
    env;
    rqs = Array.make env.Class_intf.ncpus [];
    nr = Array.make env.Class_intf.ncpus 0;
    throttled = [];
  }

let enqueue_rq t ~cpu (task : Task.t) =
  task.cpu <- cpu;
  task.on_rq <- true;
  t.rqs.(cpu) <- t.rqs.(cpu) @ [ task ];
  t.nr.(cpu) <- t.nr.(cpu) + 1;
  t.env.Class_intf.note_queued ~cpu 1

let dequeue t (task : Task.t) =
  if task.on_rq && task.cpu >= 0 && task.cpu < t.env.Class_intf.ncpus then begin
    let cpu = task.cpu in
    if List.memq task t.rqs.(cpu) then begin
      t.rqs.(cpu) <- List.filter (fun x -> x != task) t.rqs.(cpu);
      t.nr.(cpu) <- t.nr.(cpu) - 1;
      t.env.Class_intf.note_queued ~cpu (-1)
    end
  end;
  task.on_rq <- false

(* Refresh the budget at the next period boundary.  If the task is still
   runnable and waiting (throttled), put it back on a runqueue and trigger a
   reschedule; MicroQuanta preempts CFS, so it runs promptly — after the
   blackout. *)
let schedule_refresh t (task : Task.t) =
  let now = Sim.Engine.now t.env.Class_intf.engine in
  let boundary = ((now / task.mq_period) + 1) * task.mq_period in
  ignore
    (Sim.Engine.post t.env.engine ~time:boundary (fun () ->
         task.mq_budget <- task.mq_quanta;
         task.mq_last_period <- boundary / task.mq_period;
         if task.mq_throttled then begin
           task.mq_throttled <- false;
           t.throttled <- List.filter (fun x -> x != task) t.throttled;
           if Task.is_runnable task && not task.on_rq && task.state = Task.Runnable
           then begin
             let cpu = task.cpu in
             enqueue_rq t ~cpu task;
             t.env.resched cpu
           end
         end))

let throttle t (task : Task.t) =
  if not task.mq_throttled then begin
    task.mq_throttled <- true;
    t.throttled <- task :: t.throttled;
    schedule_refresh t task
  end

let enqueue t ~cpu ~is_new:_ (task : Task.t) =
  if task.mq_throttled then
    (* Woken while throttled: stays off the runqueue until refresh. *)
    task.cpu <- cpu
  else enqueue_rq t ~cpu task

let rec first_ready ~filter = function
  | [] -> None
  | (task : Task.t) :: rest ->
    if filter task && not task.mq_throttled then Some task
    else first_ready ~filter rest

let pick t ~cpu ~filter =
  if t.nr.(cpu) = 0 then None
  else begin
    match first_ready ~filter t.rqs.(cpu) with
    | Some task as found ->
      dequeue t task;
      found
    | None -> None
  end

(* The budget replenishes at every period boundary (no carryover): a task is
   guaranteed at most [quanta] per period, and throttling lasts only until
   the next boundary — the 0.1 ms blackout of §4.3. *)
let refresh_if_new_period t (task : Task.t) =
  let period_idx = Sim.Engine.now t.env.Class_intf.engine / task.mq_period in
  if (not task.mq_throttled) && period_idx > task.mq_last_period then begin
    task.mq_last_period <- period_idx;
    task.mq_budget <- task.mq_quanta
  end

let update t ~cpu (task : Task.t) ~ran =
  ignore cpu;
  refresh_if_new_period t task;
  task.mq_budget <- task.mq_budget - ran;
  if task.mq_budget <= 0 then begin
    throttle t task;
    t.env.resched task.cpu
  end

let tick t ~cpu (task : Task.t) ~since_dispatch =
  ignore since_dispatch;
  (* Budget is charged by [update] at every accounting point; the tick only
     needs to force the accounting to happen. *)
  if task.mq_budget <= 0 then t.env.resched cpu

let select_cpu t (task : Task.t) =
  let prev = if task.cpu >= 0 then task.cpu else 0 in
  let order = prev :: Hw.Topology.cpus t.env.Class_intf.topo in
  Class_intf.first_idle_allowed t.env ~affinity:task.affinity order
    ~fallback:
      (if Cpumask.mem task.affinity prev then prev
       else begin
         match Cpumask.to_list task.affinity with
         | c :: _ -> c
         | [] -> invalid_arg "Microquanta.select_cpu: empty affinity"
       end)

(* Push balancing (like RT push/pull): a preempted MicroQuanta task moves to
   an idle allowed CPU instead of stacking behind whoever displaced it. *)
let put_prev t ~cpu (task : Task.t) =
  if task.mq_throttled then ()
  else begin
    let target = select_cpu t task in
    let target = if Cpumask.mem task.affinity target then target else cpu in
    enqueue_rq t ~cpu:target task;
    if target <> cpu then t.env.resched target
  end

let cls t : Class_intf.cls =
  {
    name = "microquanta";
    policy = Task.Microquanta;
    tracks_queued = true;
    enqueue = (fun ~cpu ~is_new task -> enqueue t ~cpu ~is_new task);
    dequeue = (fun task -> dequeue t task);
    pick = (fun ~cpu ~filter -> pick t ~cpu ~filter);
    put_prev = (fun ~cpu task -> put_prev t ~cpu task);
    steal = (fun ~cpu:_ ~filter:_ -> None);
    update = (fun ~cpu task ~ran -> update t ~cpu task ~ran);
    tick = (fun ~cpu task ~since_dispatch -> tick t ~cpu task ~since_dispatch);
    select_cpu = (fun task -> select_cpu t task);
    wakeup_preempt = (fun ~curr:_ _ -> false);
    nr_runnable = (fun ~cpu -> t.nr.(cpu));
    attach =
      (fun ~cpu:_ task ->
        task.Task.mq_budget <- task.Task.mq_quanta;
        task.Task.mq_throttled <- false);
    on_block = (fun ~cpu:_ _ -> ());
    on_yield = (fun ~cpu task -> put_prev t ~cpu task);
    on_dead = (fun ~cpu:_ _ -> ());
    on_affinity = (fun _ -> ());
  }
