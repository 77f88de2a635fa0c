module Topology = Hw.Topology

module TaskOrd = struct
  type t = Task.t

  (* The order of polymorphic [compare] on [(vruntime, tid)], NaN and
     signed zeros included, without the tuples or the C call. *)
  let compare (a : t) (b : t) =
    let c = Float.compare a.vruntime b.vruntime in
    if c <> 0 then c else Int.compare a.tid b.tid
end

module Tree = Set.Make (TaskOrd)

type rq = {
  mutable tree : Tree.t;
  mutable min_vruntime : float;
  mutable weight : int;
  mutable nr : int;  (* cached Tree.cardinal, kept exact by insert/remove *)
  ccx : int;  (* Topology.ccx_of this runqueue's CPU *)
}

type t = {
  env : Class_intf.env;
  rqs : rq array;
  ccx_cpus : int list array;  (* Topology.cpus_of_ccx, built once per kernel *)
  ccx_nr : int array;
      (* per CCX, the sum of [nr] over its CPUs' runqueues, changed beside
         every [nr] change: an idle CPU whose CCX holds nothing elsewhere
         steals without walking the CCX *)
}

let nice0_weight = 1024

let weight_table =
  [|
    88761; 71755; 56483; 46273; 36291; 29154; 23254; 18705; 14949; 11916;
    9548; 7620; 6100; 4904; 3906; 3121; 2501; 1991; 1586; 1277; 1024; 820;
    655; 526; 423; 335; 272; 215; 172; 137; 110; 87; 70; 56; 45; 36; 29; 23;
    18; 15;
  |]

let weight_of_nice nice =
  if nice < -20 || nice > 19 then invalid_arg "Cfs.weight_of_nice: nice out of range";
  weight_table.(nice + 20)

let sched_latency = 6_000_000
let min_granularity = 750_000
let wakeup_granularity = 1_000_000
let balance_period = 4_000_000

let task_weight (task : Task.t) = weight_of_nice task.nice

let rq_of t (task : Task.t) = t.rqs.(task.cpu)

let refresh_min t cpu =
  let rq = t.rqs.(cpu) in
  let leftmost =
    match Tree.min_elt_opt rq.tree with
    | Some task -> Some task.Task.vruntime
    | None -> None
  in
  let curr_v =
    match t.env.curr cpu with
    | Some task when task.Task.policy = Task.Cfs -> Some task.Task.vruntime
    | Some _ | None -> None
  in
  let candidate =
    match (leftmost, curr_v) with
    | Some a, Some b -> Some (Float.min a b)
    | (Some _ as v), None | None, (Some _ as v) -> v
    | None, None -> None
  in
  match candidate with
  | Some v when v > rq.min_vruntime -> rq.min_vruntime <- v
  | Some _ | None -> ()

let insert t cpu (task : Task.t) =
  let rq = t.rqs.(cpu) in
  task.cpu <- cpu;
  task.on_rq <- true;
  let tree = Tree.add task rq.tree in
  if tree != rq.tree then begin
    rq.tree <- tree;
    rq.weight <- rq.weight + task_weight task;
    rq.nr <- rq.nr + 1;
    t.ccx_nr.(rq.ccx) <- t.ccx_nr.(rq.ccx) + 1;
    t.env.Class_intf.note_queued ~cpu 1
  end

let remove t (task : Task.t) =
  if task.on_rq && task.cpu >= 0 && task.cpu < t.env.Class_intf.ncpus then begin
    let rq = rq_of t task in
    if Tree.mem task rq.tree then begin
      rq.tree <- Tree.remove task rq.tree;
      rq.weight <- rq.weight - task_weight task;
      rq.nr <- rq.nr - 1;
      t.ccx_nr.(rq.ccx) <- t.ccx_nr.(rq.ccx) - 1;
      t.env.Class_intf.note_queued ~cpu:task.cpu (-1)
    end
  end;
  task.on_rq <- false

let enqueue t ~cpu ~is_new (task : Task.t) =
  let rq = t.rqs.(cpu) in
  if is_new then task.vruntime <- rq.min_vruntime
  else begin
    (* Sleeper credit: place no further back than half a latency period
       before min_vruntime, so long sleepers don't monopolise the CPU. *)
    let floor_v = rq.min_vruntime -. float_of_int (sched_latency / 2) in
    task.vruntime <- Float.max task.vruntime floor_v
  end;
  insert t cpu task

let pick t ~cpu ~filter =
  let rq = t.rqs.(cpu) in
  if rq.nr = 0 then None
  else begin
    match Seq.find filter (Tree.to_seq rq.tree) with
    | Some task as found ->
      remove t task;
      found
    | None -> None
  end

let put_prev t ~cpu (task : Task.t) = insert t cpu task

let update t ~cpu (task : Task.t) ~ran =
  let delta =
    float_of_int ran *. float_of_int nice0_weight /. float_of_int (task_weight task)
  in
  task.vruntime <- task.vruntime +. delta;
  refresh_min t cpu

let timeslice t cpu =
  let nr = t.rqs.(cpu).nr + 1 in
  Int.max (sched_latency / nr) min_granularity

let tick t ~cpu (task : Task.t) ~since_dispatch =
  ignore task;
  if t.rqs.(cpu).nr > 0 && since_dispatch >= timeslice t cpu then
    t.env.resched cpu

let wakeup_preempt (curr : Task.t) (task : Task.t) =
  curr.vruntime -. task.vruntime > float_of_int wakeup_granularity

let scan_order t prev =
  let topo = t.env.topo in
  let sibling = match Topology.sibling_of topo prev with Some s -> [ s ] | None -> [] in
  let ccx = t.ccx_cpus.(Topology.ccx_of topo prev) in
  let socket = Topology.cpus_of_socket topo (Topology.socket_of topo prev) in
  (prev :: sibling) @ ccx @ socket @ Topology.cpus topo

let least_loaded t ~affinity ~from =
  let n = t.env.ncpus in
  let best = ref (-1) and best_load = ref max_int in
  for i = 0 to n - 1 do
    let c = (from + i) mod n in
    if Cpumask.mem affinity c then begin
      let load =
        t.rqs.(c).weight
        + (match t.env.curr c with Some _ -> nice0_weight | None -> 0)
      in
      if load < !best_load then begin
        best := c;
        best_load := load
      end
    end
  done;
  !best

(* Like select_idle_cpu, the wakeup scan is bounded: real CFS gives up
   after probing a limited window rather than sweeping the whole machine. *)
let idle_scan_limit = 16

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let select_cpu t (task : Task.t) =
  let affinity = task.affinity in
  let prev = if task.cpu >= 0 && task.cpu < t.env.ncpus then task.cpu else task.tid mod t.env.ncpus in
  let ok c = Cpumask.mem affinity c && t.env.cpu_idle c in
  (* Like select_idle_sibling: prefer a fully idle core (both hyperthreads
     free) before packing onto a busy core's sibling. *)
  let core_idle c =
    match Topology.sibling_of t.env.topo c with
    | Some s -> t.env.cpu_idle s
    | None -> true
  in
  (* Cookie-aware placement under core scheduling: an idle CPU whose busy
     sibling runs the same cookie is as good as a free core. *)
  let sibling_compatible c =
    (not t.env.core_sched)
    ||
    match Topology.sibling_of t.env.topo c with
    | None -> true
    | Some s -> (
      match t.env.curr s with
      | None -> true
      | Some st -> st.Task.cookie = task.cookie)
  in
  let order = take idle_scan_limit (scan_order t prev) in
  match List.find_opt (fun c -> ok c && (core_idle c || sibling_compatible c)) order with
  | Some c -> c
  | None -> (
    match List.find_opt (fun c -> ok c && sibling_compatible c) order with
    | Some c -> c
    | None -> (
    match List.find_opt ok order with
    | Some c -> c
    | None ->
      (* Nothing idle in the window: queue on prev (the fast path's
         behaviour); periodic balancing will even things out at millisecond
         granularity. *)
      if Cpumask.mem affinity prev then prev
      else begin
        let c = least_loaded t ~affinity ~from:prev in
        if c >= 0 then c
        else begin
          match Cpumask.to_list affinity with
          | c :: _ -> c
          | [] -> invalid_arg "Cfs.select_cpu: empty affinity"
        end
      end))

(* Idle balance (newidle): pull the highest-vruntime (least urgent) allowed
   task from a runqueue in the same LLC domain.  Cross-LLC pulls are left to
   the periodic balancer — real CFS's newidle pass rarely crosses the cache
   domain, which is exactly the millisecond-scale reaction the Search
   experiment measures (§4.4).  The walk can only find a task on another
   CPU of the CCX with [nr >= 1], so when the CCX's count is this CPU's
   own it returns at once, as Linux's newidle_balance skips a root domain
   that is not overloaded. *)
let steal t ~cpu ~filter =
  let ccx = t.rqs.(cpu).ccx in
  if t.ccx_nr.(ccx) - t.rqs.(cpu).nr = 0 then None
  else begin
    let allowed (task : Task.t) = Cpumask.mem task.affinity cpu && filter task in
    let try_cpu c =
      if c = cpu then None
      else begin
        let rq = t.rqs.(c) in
        if rq.nr < 1 then None
        else Seq.find allowed (Tree.to_rev_seq rq.tree)
      end
    in
    let rec go = function
      | [] -> None
      | c :: rest -> (
        match try_cpu c with
        | Some task ->
          remove t task;
          task.cpu <- cpu;
          Some task
        | None -> go rest)
    in
    go t.ccx_cpus.(ccx)
  end

(* Millisecond-scale periodic load balancing: move one task from the busiest
   to the idlest runqueue when imbalanced.  This coarse cadence is what the
   Search experiment contrasts with ghOSt's microsecond reaction (§4.4). *)
let balance t =
  let n = t.env.ncpus in
  let busiest = ref (-1) and most = ref 0 in
  let idlest = ref (-1) and least = ref max_int in
  for c = 0 to n - 1 do
    let nr = t.rqs.(c).nr in
    let running = match t.env.curr c with Some _ -> 1 | None -> 0 in
    (* Only CPUs with something queued can donate. *)
    if nr >= 1 && nr + running > !most then begin
      busiest := c;
      most := nr + running
    end;
    if nr + running < !least then begin
      idlest := c;
      least := nr + running
    end
  done;
  (* A single-task imbalance still migrates (and may ping-pong at the next
     period) — that rotation is what gives 3 spinners on 2 CPUs ~2/3 each,
     as real CFS does. *)
  if !busiest >= 0 && !idlest >= 0 && !most - !least >= 1 then begin
    let src = t.rqs.(!busiest) in
    let dst = !idlest in
    let movable (task : Task.t) = Cpumask.mem task.affinity dst in
    match Seq.find movable (Tree.to_rev_seq src.tree) with
    | Some task ->
      remove t task;
      task.nr_migrations <- task.nr_migrations + 1;
      enqueue t ~cpu:dst ~is_new:false task;
      t.env.resched dst
    | None -> ()
  end

(* Under core scheduling, a task queued behind an incompatible sibling can
   ping-pong with the current task forever, force-idling the hyperthread.
   The periodic balancer relocates such tasks to a CPU whose sibling runs a
   compatible cookie (or a fully idle core). *)
let cookie_rebalance t =
  let topo = t.env.Class_intf.topo in
  let compatible_at (task : Task.t) c =
    match Topology.sibling_of topo c with
    | None -> true
    | Some s -> (
      match t.env.curr s with
      | None -> true
      | Some st -> st.Task.cookie = task.cookie)
  in
  let stuck_at (task : Task.t) c = not (compatible_at task c) in
  let moves = ref 0 in
  for c = 0 to t.env.ncpus - 1 do
    if !moves < 16 then begin
      match Tree.min_elt_opt t.rqs.(c).tree with
      | Some task when stuck_at task c -> (
        let dst =
          List.find_opt
            (fun d ->
              d <> c && Cpumask.mem task.affinity d && t.env.cpu_idle d
              && compatible_at task d)
            (Topology.cpus topo)
        in
        match dst with
        | Some d ->
          remove t task;
          task.nr_migrations <- task.nr_migrations + 1;
          enqueue t ~cpu:d ~is_new:false task;
          t.env.resched d;
          incr moves
        | None -> ())
      | Some _ | None -> ()
    end
  done

let create env =
  let t =
    {
      env;
      rqs =
        Array.init env.Class_intf.ncpus (fun cpu ->
            {
              tree = Tree.empty;
              min_vruntime = 0.0;
              weight = 0;
              nr = 0;
              ccx = Topology.ccx_of env.topo cpu;
            });
      ccx_cpus =
        Array.init (Topology.num_ccx env.topo) (Topology.cpus_of_ccx env.topo);
      ccx_nr = Array.make (Topology.num_ccx env.topo) 0;
    }
  in
  let rec tick_balance () =
    balance t;
    if env.Class_intf.core_sched then cookie_rebalance t;
    ignore (Sim.Engine.post_in env.engine ~delay:balance_period tick_balance)
  in
  ignore (Sim.Engine.post_in env.engine ~delay:balance_period tick_balance);
  t

let cls t : Class_intf.cls =
  {
    name = "cfs";
    policy = Task.Cfs;
    tracks_queued = true;
    enqueue = (fun ~cpu ~is_new task -> enqueue t ~cpu ~is_new task);
    dequeue = (fun task -> remove t task);
    pick = (fun ~cpu ~filter -> pick t ~cpu ~filter);
    put_prev = (fun ~cpu task -> put_prev t ~cpu task);
    steal = (fun ~cpu ~filter -> steal t ~cpu ~filter);
    update = (fun ~cpu task ~ran -> update t ~cpu task ~ran);
    tick = (fun ~cpu task ~since_dispatch -> tick t ~cpu task ~since_dispatch);
    select_cpu = (fun task -> select_cpu t task);
    wakeup_preempt = (fun ~curr task -> wakeup_preempt curr task);
    nr_runnable = (fun ~cpu -> t.rqs.(cpu).nr);
    attach =
      (fun ~cpu task ->
        (* Join at the local min_vruntime so the newcomer neither monopolises
           the CPU nor starves. *)
        task.Task.vruntime <- t.rqs.(cpu).min_vruntime);
    on_block = (fun ~cpu _ -> refresh_min t cpu);
    on_yield =
      (fun ~cpu task ->
        (* Yield keeps vruntime, so the task goes to the back among equals. *)
        insert t cpu task);
    on_dead = (fun ~cpu _ -> refresh_min t cpu);
    on_affinity = (fun _ -> ());
  }
