type t = { env : Class_intf.env; rqs : Task.t list array; nr : int array }

(* The per-CPU queue is a list in FIFO order; priorities resolve at pick
   time.  Queues hold at most a handful of tasks (agents, daemons), so a
   linear scan is fine — but the queued count is cached (and mirrored to the
   kernel through [note_queued]) so idle checks never walk the list. *)

let create env =
  {
    env;
    rqs = Array.make env.Class_intf.ncpus [];
    nr = Array.make env.Class_intf.ncpus 0;
  }

let enqueue t ~cpu ~is_new:_ (task : Task.t) =
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

(* First task (FIFO order) of the highest priority present. *)
let rec best ~filter acc = function
  | [] -> acc
  | (task : Task.t) :: rest ->
    if not (filter task) then best ~filter acc rest
    else begin
      match acc with
      | Some (b : Task.t) when b.rt_prio >= task.rt_prio -> best ~filter acc rest
      | Some _ | None -> best ~filter (Some task) rest
    end

let pick t ~cpu ~filter =
  if t.nr.(cpu) = 0 then None
  else begin
    match best ~filter None t.rqs.(cpu) with
    | Some task as found ->
      dequeue t task;
      found
    | None -> None
  end

let select_cpu (task : Task.t) =
  let prev = if task.cpu >= 0 then task.cpu else 0 in
  if Cpumask.mem task.affinity prev then prev
  else begin
    match Cpumask.to_list task.affinity with
    | c :: _ -> c
    | [] -> invalid_arg "Rt.select_cpu: empty affinity"
  end

let cls t : Class_intf.cls =
  {
    name = "rt";
    policy = Task.Rt;
    tracks_queued = true;
    enqueue = (fun ~cpu ~is_new task -> enqueue t ~cpu ~is_new task);
    dequeue = (fun task -> dequeue t task);
    pick = (fun ~cpu ~filter -> pick t ~cpu ~filter);
    put_prev = (fun ~cpu task -> enqueue t ~cpu ~is_new:false task);
    steal = (fun ~cpu:_ ~filter:_ -> None);
    update = (fun ~cpu:_ _ ~ran:_ -> ());
    tick = (fun ~cpu:_ _ ~since_dispatch:_ -> ());
    select_cpu = (fun task -> select_cpu task);
    wakeup_preempt = (fun ~curr task -> task.rt_prio > curr.rt_prio);
    nr_runnable = (fun ~cpu -> t.nr.(cpu));
    attach = (fun ~cpu:_ _ -> ());
    on_block = (fun ~cpu:_ _ -> ());
    on_yield = (fun ~cpu task -> enqueue t ~cpu ~is_new:false task);
    on_dead = (fun ~cpu:_ _ -> ());
    on_affinity = (fun _ -> ());
  }
