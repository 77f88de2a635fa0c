module Task = Kernel.Task
module Cpumask = Kernel.Cpumask

let log_src = Logs.Src.create "ghost" ~doc:"ghOSt kernel-side events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type destroy_reason = Explicit | Watchdog | Agent_crash

type stats = {
  mutable msgs_posted : int;
  mutable commits : int;
  mutable commit_failures : int;
  mutable estales : int;
  mutable bpf_picks : int;
  mutable bpf_misses : int;
  mutable bpf_fallbacks : int;
  mutable bpf_verifier_rejects : int;
  mutable watchdog_fires : int;
  mutable msg_drops : int;
}

type tstate = {
  task : Task.t;
  sw : Status_word.t;
  mutable queue : Squeue.t;
  mutable latched_on : int option;
  mutable created_sent : bool;
  enclave : enclave;  (* direct pointer: no per-message enclave lookup *)
}

and enclave = {
  eid : int;
  sys : t;
  mutable cpus : Cpumask.t;
  mutable alive : bool;
  mutable reason : destroy_reason option;
  mutable queues : Squeue.t list;
  default_q : Squeue.t;
  cpu_queues : Squeue.t option array;  (* TIMER_TICK routing; None = default *)
  mutable deliver_ticks : bool;
  watchdog_timeout : int option;
  mutable agents : (Task.t * Status_word.t) list;
  mutable on_destroy : (destroy_reason -> unit) list;
  mutable on_resize : (resize -> unit) list;
  bpf_slots : Bpf.Verifier.verified option array;  (* indexed by hook *)
  bpf_maps : int array array;  (* indexed by map id; [||] = undeclared *)
  mutable bpf_cpu_cache : int array;  (* enclave cpus, refreshed on resize *)
  mutable bpf_snap : Bpf.Snapshot.t option;  (* built once after creation *)
  bpf_vm : Bpf.Vm.t;
  mutable msg_drops : int;
  mutable managed_cache : Task.t list option;
      (* sorted [managed_threads] view, invalidated on manage/unmanage *)
  removed_marks : int array;
      (* cpu -> next_txn at the moment the cpu last left the enclave; a
         transaction created before the removal fails ESTALE, one created
         after fails ENOENT *)
}

and resize = Cpu_added of int | Cpu_removed of int

and t = {
  kernel : Kernel.t;
  mutable enclaves : enclave list;
  owner : enclave option array;  (* cpu -> enclave *)
  latched_slots : Task.t option array;
  tstates : tstate Sim.Idtbl.t;  (* tid -> state of a managed thread *)
  mutable next_qid : int;
  mutable next_eid : int;
  mutable next_txn : int;
  stats : stats;
}

let kernel t = t.kernel
let stats t = t.stats
let enclave_alive e = e.alive
let enclave_id e = e.eid
let enclave_cpus e = e.cpus
let enclave_of_cpu t cpu = t.owner.(cpu)
let destroy_reason e = e.reason
let on_destroy e fn = e.on_destroy <- fn :: e.on_destroy
let on_resize e fn = e.on_resize <- fn :: e.on_resize
let default_queue e = e.default_q
let agent_tasks e = List.map fst e.agents
let enclave_msg_drops e = e.msg_drops

let enclave_dropped e =
  List.fold_left (fun acc q -> acc + Squeue.dropped q) 0 e.queues

let tstate_of t (task : Task.t) = Sim.Idtbl.find_opt t.tstates task.tid
let is_managed t task = tstate_of t task <> None

let status_word t task =
  match tstate_of t task with Some ts -> Some ts.sw | None -> None

let thread_seq t task =
  match tstate_of t task with
  | Some ts -> Some (Status_word.seq ts.sw)
  | None -> None

(* A hint store is not a kernel write: no message announces it, so it must
   not publish a new seq (see Status_word). *)
let set_hint t task v =
  match tstate_of t task with
  | Some ts -> Status_word.set_hint ts.sw v
  | None -> ()

let hint t task =
  match tstate_of t task with Some ts -> Status_word.hint ts.sw | None -> 0

let latched t ~cpu = t.latched_slots.(cpu)

(* --- Messages -------------------------------------------------------------- *)

let post_to t e q (msg : Msg.t) =
  t.stats.msgs_posted <- t.stats.msgs_posted + 1;
  if not (Squeue.produce q msg) then begin
    (* Overflow losses used to be invisible unless the caller polled every
       queue; count them at enclave and system level and shout once. *)
    if e.msg_drops = 0 then
      Log.warn (fun m ->
          m "enclave %d: message queue %d overflow at t=%dns, %s(tid=%d) dropped \
             (further drops counted silently)"
            e.eid (Squeue.id q)
            (Kernel.now t.kernel)
            (Msg.kind_to_string msg.Msg.kind) msg.Msg.tid);
    e.msg_drops <- e.msg_drops + 1;
    t.stats.msg_drops <- t.stats.msg_drops + 1
  end

(* Post a message describing a kernel write to [ts]'s status word.  The
   field stores in [write] execute inside the seqcount write section
   (odd/even parity); the message carries the post-write (even) seq. *)
let post_thread_msg ?(write = fun (_ : Status_word.t) -> ()) t e ts kind ~cpu =
  Status_word.begin_write ts.sw;
  write ts.sw;
  let tseq = Status_word.end_write ts.sw in
  let now = Kernel.now t.kernel in
  let produce_cost = (Kernel.costs t.kernel).Hw.Costs.msg_produce in
  let msg =
    {
      Msg.kind;
      tid = ts.task.Task.tid;
      tseq;
      cpu;
      posted_at = now;
      visible_at = now + produce_cost;
    }
  in
  post_to t e ts.queue msg

let cpu_queue e ~cpu =
  match e.cpu_queues.(cpu) with Some q -> q | None -> e.default_q

let post_tick t e ~cpu =
  let now = Kernel.now t.kernel in
  let produce_cost = (Kernel.costs t.kernel).Hw.Costs.msg_produce in
  let msg =
    {
      Msg.kind = Msg.TIMER_TICK;
      tid = -1;
      tseq = 0;
      cpu;
      posted_at = now;
      visible_at = now + produce_cost;
    }
  in
  post_to t e (cpu_queue e ~cpu) msg

(* --- The ghOSt scheduling class ------------------------------------------- *)

let unlatch t cpu =
  match t.latched_slots.(cpu) with
  | None -> None
  | Some task ->
    t.latched_slots.(cpu) <- None;
    (match tstate_of t task with Some ts -> ts.latched_on <- None | None -> ());
    Some task

let enclave_for t cpu =
  match t.owner.(cpu) with Some e when e.alive -> Some e | Some _ | None -> None

let enclave_of_ts _t ts = if ts.enclave.alive then Some ts.enclave else None

(* --- BPF fastpath tier (§3.5) ----------------------------------------------

   Verified programs hang off the enclave in per-hook slots and run over a
   read-only snapshot plus the enclave's shared maps.  The kernel treats a
   program's r0 as a hint: every result is re-validated before any state
   change, so a buggy (but verified) program can only cost cycles, never
   correctness.  Counter semantics: [bpf_picks] = the kernel acted on a
   program result (latch/dispatch/preempt), [bpf_misses] = the result failed
   kernel validation, [bpf_fallbacks] = the program declined, and
   [bpf_verifier_rejects] = install-time rejections. *)

let wakeup_slot = Bpf.Prog.hook_index Bpf.Prog.Wakeup
let tick_slot = Bpf.Prog.hook_index Bpf.Prog.Tick
let pick_slot = Bpf.Prog.hook_index Bpf.Prog.Pick

let make_bpf_snapshot t e =
  let k = t.kernel in
  let in_enclave cpu =
    cpu >= 0 && cpu < Kernel.ncpus k && Cpumask.mem e.cpus cpu
  in
  let ts_of tid =
    match Sim.Idtbl.find_opt t.tstates tid with
    | Some ts when ts.enclave == e -> Some ts
    | Some _ | None -> None
  in
  {
    Bpf.Snapshot.ncpus = (fun () -> Array.length e.bpf_cpu_cache);
    cpu_at =
      (fun i ->
        if i >= 0 && i < Array.length e.bpf_cpu_cache then e.bpf_cpu_cache.(i)
        else -1);
    idle = (fun cpu -> if in_enclave cpu && Kernel.cpu_idle k cpu then 1 else 0);
    latched =
      (fun cpu ->
        if in_enclave cpu then
          match t.latched_slots.(cpu) with
          | Some task -> task.Task.tid
          | None -> -1
        else -1);
    curr =
      (fun cpu ->
        if in_enclave cpu then
          match Kernel.curr k cpu with Some task -> task.Task.tid | None -> -1
        else -1);
    curr_ghost =
      (fun cpu ->
        if in_enclave cpu then
          match Kernel.curr k cpu with
          | Some task -> ( match ts_of task.Task.tid with Some _ -> 1 | None -> 0)
          | None -> 0
        else 0);
    since_dispatch =
      (fun cpu -> if in_enclave cpu then Kernel.since_dispatch k cpu else 0);
    runnable =
      (fun tid ->
        match ts_of tid with
        | Some ts when ts.task.Task.state = Task.Runnable -> 1
        | Some _ | None -> 0);
    thread_seq =
      (fun tid ->
        match ts_of tid with Some ts -> Status_word.seq ts.sw | None -> -1);
    first_idle =
      (fun () ->
        let cache = e.bpf_cpu_cache in
        let n = Array.length cache in
        let rec scan i =
          if i >= n then -1
          else if Kernel.cpu_idle k cache.(i) then cache.(i)
          else scan (i + 1)
        in
        scan 0);
    socket =
      (fun cpu ->
        if in_enclave cpu then Hw.Topology.socket_of (Kernel.topo k) cpu else -1);
    core_class =
      (fun cpu ->
        if in_enclave cpu then Hw.Topology.class_of (Kernel.topo k) cpu else -1);
  }

let bpf_run e slot ~r1 ~r2 =
  match e.bpf_slots.(slot) with
  | None -> None
  | Some v -> (
    match e.bpf_snap with
    | None -> None
    | Some snap -> Some (Bpf.Vm.run e.bpf_vm v ~snap ~maps:e.bpf_maps ~r1 ~r2))

(* Wakeup hook: the program proposes a CPU for the waking thread.  The
   kernel validates the proposal (idle enclave CPU, empty latch slot,
   runnable thread, affinity) and latches directly — exactly the state an
   agent commit would have produced, minus the agent round-trip. *)
let bpf_wakeup t e ts =
  if e.bpf_slots.(wakeup_slot) <> None then begin
    let task = ts.task in
    match bpf_run e wakeup_slot ~r1:task.Task.tid ~r2:task.Task.cpu with
    | None -> ()
    | Some r ->
      if r < 0 then begin
        t.stats.bpf_fallbacks <- t.stats.bpf_fallbacks + 1;
        if Obs.Hooks.enabled () then
          Obs.Hooks.bpf_fallback
            ~now:(Kernel.now t.kernel)
            ~eid:e.eid ~hook:wakeup_slot ~cpu:task.Task.cpu
      end
      else if
        r < Kernel.ncpus t.kernel
        && (match t.owner.(r) with Some o -> o == e | None -> false)
        && Kernel.cpu_idle t.kernel r
        && (match t.latched_slots.(r) with None -> true | Some _ -> false)
        && ts.latched_on = None
        && task.Task.state = Task.Runnable
        && Cpumask.mem task.Task.affinity r
      then begin
        t.latched_slots.(r) <- Some task;
        ts.latched_on <- Some r;
        t.stats.bpf_picks <- t.stats.bpf_picks + 1;
        Kernel.add_switch_cost t.kernel r
          (Kernel.costs t.kernel).Hw.Costs.bpf_pick;
        if Obs.Hooks.enabled () then
          Obs.Hooks.bpf_hit
            ~now:(Kernel.now t.kernel)
            ~eid:e.eid ~hook:wakeup_slot ~cpu:r ~tid:task.Task.tid;
        Kernel.resched t.kernel r
      end
      else begin
        t.stats.bpf_misses <- t.stats.bpf_misses + 1;
        if Obs.Hooks.enabled () then
          Obs.Hooks.bpf_miss
            ~now:(Kernel.now t.kernel)
            ~eid:e.eid ~hook:wakeup_slot ~cpu:task.Task.cpu ~tid:task.Task.tid
      end
  end

(* Tick hook: the program decides whether the current thread's slice is up.
   A result of 1 preempts (the program has requeued the tid into its own
   maps); anything else declines. *)
let bpf_tick t ~cpu (task : Task.t) ~since_dispatch =
  match enclave_for t cpu with
  | None -> ()
  | Some e ->
    if e.bpf_slots.(tick_slot) <> None then begin
      match tstate_of t task with
      | Some ts when ts.enclave == e -> (
        match bpf_run e tick_slot ~r1:task.Task.tid ~r2:since_dispatch with
        | None -> ()
        | Some r ->
          if r = 1 then begin
            t.stats.bpf_picks <- t.stats.bpf_picks + 1;
            Kernel.add_switch_cost t.kernel cpu
              (Kernel.costs t.kernel).Hw.Costs.bpf_pick;
            if Obs.Hooks.enabled () then
              Obs.Hooks.bpf_hit
                ~now:(Kernel.now t.kernel)
                ~eid:e.eid ~hook:tick_slot ~cpu ~tid:task.Task.tid;
            Kernel.resched t.kernel cpu
          end
          else begin
            t.stats.bpf_fallbacks <- t.stats.bpf_fallbacks + 1;
            if Obs.Hooks.enabled () then
              Obs.Hooks.bpf_fallback
                ~now:(Kernel.now t.kernel)
                ~eid:e.eid ~hook:tick_slot ~cpu
          end)
      | Some _ | None -> ()
    end

let class_enqueue t ~cpu ~is_new (task : Task.t) =
  ignore cpu;
  match tstate_of t task with
  | None ->
    (* A Ghost-policy task the system does not manage: should not happen;
       it will be recovered by the fallback paths. *)
    ()
  | Some ts -> (
    match enclave_of_ts t ts with
    | None -> Status_word.set_runnable ts.sw true
    | Some e ->
      let write sw = Status_word.set_runnable sw true in
      (if is_new && not ts.created_sent then begin
         ts.created_sent <- true;
         post_thread_msg ~write t e ts Msg.THREAD_CREATED ~cpu:task.Task.cpu
       end
       else post_thread_msg ~write t e ts Msg.THREAD_WAKEUP ~cpu:task.Task.cpu);
      (* Expedited wakeup path: try to place the thread without waiting for
         the agent to consume the message (§3.5). *)
      bpf_wakeup t e ts)

let class_dequeue t (task : Task.t) =
  match tstate_of t task with
  | Some ts -> (
    match ts.latched_on with
    | Some cpu ->
      t.latched_slots.(cpu) <- None;
      ts.latched_on <- None
    | None -> ())
  | None -> ()

let bpf_ok t cpu (task : Task.t) =
  task.Task.state = Task.Runnable
  && Cpumask.mem task.Task.affinity cpu
  && (match tstate_of t task with
     | Some ts -> ts.latched_on = None
     | None -> false)

let class_pick t ~cpu ~filter =
  match enclave_for t cpu with
  | None -> None
  | Some e -> (
    let take task =
      (* Dispatch publishes no message (the agent latched the thread
         itself), so the stores stay outside a write section. *)
      (match tstate_of t task with
      | Some ts ->
        Status_word.set_on_cpu ts.sw true;
        Status_word.set_cpu ts.sw cpu
      | None -> ());
      Some task
    in
    match t.latched_slots.(cpu) with
    | Some task
      when Task.is_runnable task && Cpumask.mem task.Task.affinity cpu && filter task
      ->
      ignore (unlatch t cpu);
      take task
    | Some task when not (Task.is_runnable task) ->
      ignore (unlatch t cpu);
      None
    | Some _ -> None
    | None ->
      (* Would-be-idle hook: ask the pick program for a tid before letting
         the CPU idle (§3.5).  Stale ring entries (blocked, migrated, or
         already-latched threads) are skipped — the agent still holds every
         thread, so a discarded entry is a missed optimization, never a
         lost thread. *)
      if e.bpf_slots.(pick_slot) = None then None
      else begin
        let rec try_pick attempt =
          if attempt >= 8 then None
          else
            match bpf_run e pick_slot ~r1:cpu ~r2:attempt with
            | None -> None
            | Some r ->
              if r < 0 then begin
                t.stats.bpf_fallbacks <- t.stats.bpf_fallbacks + 1;
                if Obs.Hooks.enabled () then
                  Obs.Hooks.bpf_fallback
                    ~now:(Kernel.now t.kernel)
                    ~eid:e.eid ~hook:pick_slot ~cpu;
                None
              end
              else begin
                match Sim.Idtbl.find_opt t.tstates r with
                | Some ts
                  when ts.enclave == e && bpf_ok t cpu ts.task && filter ts.task
                  ->
                  t.stats.bpf_picks <- t.stats.bpf_picks + 1;
                  Kernel.add_switch_cost t.kernel cpu
                    (Kernel.costs t.kernel).Hw.Costs.bpf_pick;
                  if Obs.Hooks.enabled () then
                    Obs.Hooks.bpf_hit
                      ~now:(Kernel.now t.kernel)
                      ~eid:e.eid ~hook:pick_slot ~cpu ~tid:r;
                  take ts.task
                | Some _ | None ->
                  t.stats.bpf_misses <- t.stats.bpf_misses + 1;
                  if Obs.Hooks.enabled () then
                    Obs.Hooks.bpf_miss
                      ~now:(Kernel.now t.kernel)
                      ~eid:e.eid ~hook:pick_slot ~cpu ~tid:r;
                  try_pick (attempt + 1)
              end
        in
        try_pick 0
      end)

let class_put_prev t ~cpu (task : Task.t) =
  match tstate_of t task with
  | None -> ()
  | Some ts -> (
    match enclave_of_ts t ts with
    | None -> Status_word.set_on_cpu ts.sw false
    | Some e ->
      post_thread_msg t e ts Msg.THREAD_PREEMPTED ~cpu
        ~write:(fun sw -> Status_word.set_on_cpu sw false))

let class_on_block t ~cpu (task : Task.t) =
  match tstate_of t task with
  | None -> ()
  | Some ts -> (
    match enclave_of_ts t ts with
    | None ->
      Status_word.set_on_cpu ts.sw false;
      Status_word.set_runnable ts.sw false
    | Some e ->
      post_thread_msg t e ts Msg.THREAD_BLOCKED ~cpu ~write:(fun sw ->
          Status_word.set_on_cpu sw false;
          Status_word.set_runnable sw false))

let class_on_yield t ~cpu (task : Task.t) =
  match tstate_of t task with
  | None -> ()
  | Some ts -> (
    match enclave_of_ts t ts with
    | None -> Status_word.set_on_cpu ts.sw false
    | Some e ->
      post_thread_msg t e ts Msg.THREAD_YIELD ~cpu ~write:(fun sw ->
          Status_word.set_on_cpu sw false))

let class_on_dead t ~cpu (task : Task.t) =
  match tstate_of t task with
  | None -> ()
  | Some ts ->
    (match ts.latched_on with
    | Some c ->
      t.latched_slots.(c) <- None;
      ts.latched_on <- None
    | None -> ());
    (match enclave_of_ts t ts with
    | None ->
      Status_word.set_on_cpu ts.sw false;
      Status_word.set_runnable ts.sw false
    | Some e ->
      post_thread_msg t e ts Msg.THREAD_DEAD ~cpu ~write:(fun sw ->
          Status_word.set_on_cpu sw false;
          Status_word.set_runnable sw false));
    Sim.Idtbl.remove t.tstates task.Task.tid;
    ts.enclave.managed_cache <- None

let class_on_affinity t (task : Task.t) =
  match tstate_of t task with
  | None -> ()
  | Some ts ->
    (match enclave_of_ts t ts with
    | None -> ()
    | Some e -> post_thread_msg t e ts Msg.THREAD_AFFINITY ~cpu:task.Task.cpu)

let class_update t ~cpu (task : Task.t) ~ran =
  ignore cpu;
  ignore ran;
  match tstate_of t task with
  | Some ts -> Status_word.set_sum_exec ts.sw task.Task.sum_exec
  | None -> ()

let class_select_cpu (task : Task.t) =
  if task.Task.cpu >= 0 && Cpumask.mem task.Task.affinity task.Task.cpu then
    task.Task.cpu
  else begin
    match Cpumask.to_list task.Task.affinity with
    | c :: _ -> c
    | [] -> invalid_arg "ghost select_cpu: empty affinity"
  end

let ghost_cls t : Kernel.Class_intf.cls =
  {
    name = "ghost";
    policy = Task.Ghost;
    tracks_queued = false;
    enqueue = (fun ~cpu ~is_new task -> class_enqueue t ~cpu ~is_new task);
    dequeue = (fun task -> class_dequeue t task);
    pick = (fun ~cpu ~filter -> class_pick t ~cpu ~filter);
    put_prev = (fun ~cpu task -> class_put_prev t ~cpu task);
    steal = (fun ~cpu:_ ~filter:_ -> None);
    update = (fun ~cpu task ~ran -> class_update t ~cpu task ~ran);
    tick = (fun ~cpu task ~since_dispatch -> bpf_tick t ~cpu task ~since_dispatch);
    select_cpu = class_select_cpu;
    wakeup_preempt = (fun ~curr:_ _ -> false);
    nr_runnable =
      (fun ~cpu ->
        match t.latched_slots.(cpu) with
        | Some task when Task.is_runnable task -> 1
        | Some _ | None -> 0);
    attach = (fun ~cpu:_ _ -> ());
    on_block = (fun ~cpu task -> class_on_block t ~cpu task);
    on_yield = (fun ~cpu task -> class_on_yield t ~cpu task);
    on_dead = (fun ~cpu task -> class_on_dead t ~cpu task);
    on_affinity = (fun task -> class_on_affinity t task);
  }

(* --- Enclaves -------------------------------------------------------------- *)

let fresh_queue t ~capacity =
  let q = Squeue.create ~id:t.next_qid ~capacity in
  t.next_qid <- t.next_qid + 1;
  q

let create_queue e ~capacity =
  let q = fresh_queue e.sys ~capacity in
  Obs.Sink.note_queue_owner ~qid:(Squeue.id q) ~eid:e.eid;
  e.queues <- q :: e.queues;
  q

let associate_cpu_queue e ~cpu q =
  if not (Cpumask.mem e.cpus cpu) then
    invalid_arg "associate_cpu_queue: cpu not in enclave";
  e.cpu_queues.(cpu) <- Some q

let associate_queue e (task : Task.t) q =
  match tstate_of e.sys task with
  | None -> invalid_arg "associate_queue: thread not managed"
  | Some ts ->
    if
      ts.queue != q
      && Squeue.exists ts.queue (fun m -> m.Msg.tid = task.Task.tid)
    then Error `Pending_messages
    else begin
      ts.queue <- q;
      Ok ()
    end

let managed_threads e =
  match e.managed_cache with
  | Some threads -> threads
  | None ->
    let threads =
      Sim.Idtbl.fold
        (fun _ ts acc -> if ts.enclave == e then ts.task :: acc else acc)
        e.sys.tstates []
      |> List.rev
    in
    e.managed_cache <- Some threads;
    threads

let manage e (task : Task.t) =
  if not e.alive then invalid_arg "manage: enclave destroyed";
  if is_managed e.sys task then invalid_arg "manage: already managed";
  if task.Task.is_agent then invalid_arg "manage: cannot manage an agent";
  let ts =
    {
      task;
      sw = Status_word.create ();
      queue = e.default_q;
      latched_on = None;
      created_sent = false;
      enclave = e;
    }
  in
  Sim.Idtbl.replace e.sys.tstates task.Task.tid ts;
  e.managed_cache <- None;
  (match task.Task.state with
  | Task.Blocked ->
    (* Runnable/running threads get THREAD_CREATED via the class enqueue;
       sleeping ones are announced immediately. *)
    ts.created_sent <- true;
    post_thread_msg e.sys e ts Msg.THREAD_CREATED ~cpu:task.Task.cpu
  | Task.Created | Task.Runnable | Task.Running | Task.Dead -> ());
  Kernel.set_policy e.sys.kernel task Task.Ghost

let unmanage t (task : Task.t) =
  match tstate_of t task with
  | None -> ()
  | Some ts ->
    (match ts.latched_on with
    | Some cpu ->
      t.latched_slots.(cpu) <- None;
      ts.latched_on <- None
    | None -> ());
    Sim.Idtbl.remove t.tstates task.Task.tid;
    ts.enclave.managed_cache <- None;
    if task.Task.state <> Task.Dead then Kernel.set_policy t.kernel task Task.Cfs

let register_agent e task sw =
  if Obs.Hooks.enabled () then
    Obs.Hooks.agent_attached ~now:(Kernel.now e.sys.kernel) ~eid:e.eid
      ~tid:task.Task.tid;
  e.agents <- (task, sw) :: e.agents

let rec destroy_enclave ?(reason = Explicit) t e =
  if e.alive then begin
    e.alive <- false;
    e.reason <- Some reason;
    Log.info (fun m ->
        m "enclave %d destroyed (%s) at t=%dns: %d threads fall back to CFS"
          e.eid
          (match reason with
          | Explicit -> "explicit"
          | Watchdog -> "watchdog"
          | Agent_crash -> "agent crash")
          (Kernel.now t.kernel)
          (List.length (managed_threads e)));
    if reason = Watchdog then t.stats.watchdog_fires <- t.stats.watchdog_fires + 1;
    if Obs.Hooks.enabled () then begin
      let now = Kernel.now t.kernel in
      if reason = Agent_crash then Obs.Hooks.agent_crash ~now ~eid:e.eid;
      Obs.Hooks.enclave_destroyed ~now ~eid:e.eid
        ~reason:
          (match reason with
          | Explicit -> "explicit"
          | Watchdog -> "watchdog"
          | Agent_crash -> "agent-crash")
    end;
    (* Free the CPUs. *)
    Cpumask.iter (fun cpu -> t.owner.(cpu) <- None) e.cpus;
    (* Unlatch and hand every managed thread back to CFS; they keep running,
       just under the default scheduler (§3.4). *)
    List.iter (fun task -> unmanage t task) (managed_threads e);
    (* Agents die.  Deferred: destroy may be called from agent context. *)
    let agents = agent_tasks e in
    ignore
      (Sim.Engine.post_in (Kernel.engine t.kernel) ~delay:0 (fun () ->
           List.iter
             (fun (a : Task.t) ->
               if a.Task.state <> Task.Dead then Kernel.kill t.kernel a)
             agents));
    e.agents <- [];
    t.enclaves <- List.filter (fun x -> x != e) t.enclaves;
    List.iter (fun fn -> fn reason) e.on_destroy
  end

and unregister_agent e task =
  e.agents <- List.filter (fun (a, _) -> a != task) e.agents;
  if e.agents = [] && e.alive then begin
    (* Grace period for an in-place upgrade to attach (§3.4). *)
    let t = e.sys in
    ignore
      (Sim.Engine.post_in (Kernel.engine t.kernel) ~delay:200_000 (fun () ->
           if e.alive && e.agents = [] && managed_threads e <> [] then
             destroy_enclave ~reason:Agent_crash t e))
  end

let watchdog_check t e timeout =
  let now = Kernel.now t.kernel in
  let starving ts =
    ts.task.Task.state = Task.Runnable
    && ts.latched_on = None
    && now - ts.task.Task.runnable_since > timeout
  in
  (* The lowest-tid starving thread is named.  Only the log line and the
     sink's watchdog-fire instant carry it; no report does. *)
  let victim =
    Sim.Idtbl.fold
      (fun _ ts acc ->
        if acc = None && ts.enclave == e && starving ts then Some ts.task
        else acc)
      t.tstates None
  in
  match victim with
  | Some task ->
    Log.warn (fun m ->
        m "watchdog: %s(%d) runnable but unscheduled for >%dns in enclave %d"
          task.Task.name task.Task.tid timeout e.eid);
    if Obs.Hooks.enabled () then
      Obs.Hooks.watchdog_fire ~now ~eid:e.eid ~tid:task.Task.tid;
    destroy_enclave ~reason:Watchdog t e
  | None -> ()

let create_enclave t ?watchdog_timeout ?(deliver_ticks = false) ~cpus () =
  if Cpumask.is_empty cpus then invalid_arg "create_enclave: no cpus";
  Cpumask.iter
    (fun cpu ->
      match t.owner.(cpu) with
      | Some e when e.alive ->
        invalid_arg (Printf.sprintf "create_enclave: cpu %d already owned" cpu)
      | Some _ | None -> ())
    cpus;
  let eid = t.next_eid in
  t.next_eid <- eid + 1;
  let e =
    {
      eid;
      sys = t;
      cpus;
      alive = true;
      reason = None;
      queues = [];
      default_q = fresh_queue t ~capacity:65536;
      cpu_queues = Array.make (Kernel.ncpus t.kernel) None;
      deliver_ticks;
      watchdog_timeout;
      agents = [];
      on_destroy = [];
      on_resize = [];
      bpf_slots = Array.make Bpf.Prog.nhooks None;
      bpf_maps = Array.make Bpf.Verifier.max_maps [||];
      bpf_cpu_cache = [||];
      bpf_snap = None;
      bpf_vm = Bpf.Vm.create ();
      msg_drops = 0;
      managed_cache = None;
      removed_marks = Array.make (Kernel.ncpus t.kernel) 0;
    }
  in
  e.queues <- [ e.default_q ];
  e.bpf_cpu_cache <- Array.of_list (Cpumask.to_list cpus);
  e.bpf_snap <- Some (make_bpf_snapshot t e);
  Obs.Sink.note_queue_owner ~qid:(Squeue.id e.default_q) ~eid;
  Cpumask.iter (fun cpu -> t.owner.(cpu) <- Some e) cpus;
  t.enclaves <- e :: t.enclaves;
  if Obs.Hooks.enabled () then
    Obs.Hooks.enclave_created ~now:(Kernel.now t.kernel) ~eid
      ~ncpus:(List.length (Cpumask.to_list cpus));
  (match watchdog_timeout with
  | Some timeout ->
    let period = max (timeout / 2) 1_000_000 in
    let rec check () =
      if e.alive then begin
        watchdog_check t e timeout;
        if e.alive then
          ignore (Sim.Engine.post_in (Kernel.engine t.kernel) ~delay:period check)
      end
    in
    ignore (Sim.Engine.post_in (Kernel.engine t.kernel) ~delay:period check)
  | None -> ());
  e

let destroy_queue e q =
  e.queues <- List.filter (fun x -> x != q) e.queues

let set_deliver_ticks e flag = e.deliver_ticks <- flag

(* --- Dynamic resizing ------------------------------------------------------- *)

let post_cpu_msg t e kind ~cpu =
  let now = Kernel.now t.kernel in
  let produce_cost = (Kernel.costs t.kernel).Hw.Costs.msg_produce in
  let msg =
    {
      Msg.kind;
      tid = -1;
      tseq = 0;
      cpu;
      posted_at = now;
      visible_at = now + produce_cost;
    }
  in
  post_to t e e.default_q msg

let note_resize t e ~cpu ~added =
  if Obs.Hooks.enabled () then
    Obs.Hooks.enclave_resized ~now:(Kernel.now t.kernel) ~eid:e.eid ~cpu ~added;
  let ev = if added then Cpu_added cpu else Cpu_removed cpu in
  List.iter (fun fn -> fn ev) (List.rev e.on_resize)

let add_cpu t e cpu =
  if not e.alive then invalid_arg "add_cpu: enclave destroyed";
  if cpu < 0 || cpu >= Kernel.ncpus t.kernel then invalid_arg "add_cpu: bad cpu";
  if Cpumask.mem e.cpus cpu then invalid_arg "add_cpu: cpu already in enclave";
  (match t.owner.(cpu) with
  | Some o when o.alive ->
    invalid_arg (Printf.sprintf "add_cpu: cpu %d already owned" cpu)
  | Some _ | None -> ());
  e.cpus <- Cpumask.add e.cpus cpu;
  e.bpf_cpu_cache <- Array.of_list (Cpumask.to_list e.cpus);
  t.owner.(cpu) <- Some e;
  Log.info (fun m ->
      m "enclave %d: cpu %d added at t=%dns" e.eid cpu (Kernel.now t.kernel));
  post_cpu_msg t e Msg.CPU_AVAILABLE ~cpu;
  note_resize t e ~cpu ~added:true

let remove_cpu t e cpu =
  if not e.alive then invalid_arg "remove_cpu: enclave destroyed";
  if not (Cpumask.mem e.cpus cpu) then
    invalid_arg "remove_cpu: cpu not in enclave";
  if List.length (Cpumask.to_list e.cpus) = 1 then
    invalid_arg "remove_cpu: cannot remove the last cpu";
  (* Transactions already in flight against this CPU fail ESTALE from here
     on; ones created after the removal fail ENOENT. *)
  e.removed_marks.(cpu) <- t.next_txn;
  (* A latched-but-not-yet-running thread goes back to the agent. *)
  (match unlatch t cpu with
  | Some task -> (
    match tstate_of t task with
    | Some ts -> post_thread_msg t e ts Msg.THREAD_PREEMPTED ~cpu
    | None -> ())
  | None -> ());
  e.cpus <- Cpumask.remove e.cpus cpu;
  e.bpf_cpu_cache <- Array.of_list (Cpumask.to_list e.cpus);
  t.owner.(cpu) <- None;
  e.cpu_queues.(cpu) <- None;
  Log.info (fun m ->
      m "enclave %d: cpu %d removed at t=%dns" e.eid cpu (Kernel.now t.kernel));
  post_cpu_msg t e Msg.CPU_TAKEN ~cpu;
  (* Preempt whatever ghost thread is running there: with the owner slot
     cleared the ghost class pick returns nothing, so the kernel kicks the
     thread off-CPU and a THREAD_PREEMPTED message reaches the agent. *)
  Kernel.resched t.kernel cpu;
  note_resize t e ~cpu ~added:false

(* --- Transactions ---------------------------------------------------------- *)

let make_txn t ~tid ~cpu ?agent_seq ?thread_seq () =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  if Obs.Hooks.enabled () then begin
    let eid =
      if cpu >= 0 && cpu < Array.length t.owner then
        match t.owner.(cpu) with Some e -> e.eid | None -> -1
      else -1
    in
    Obs.Hooks.txn_create ~now:(Kernel.now t.kernel) ~txn_id:id ~tid ~target:cpu
      ~eid
  end;
  {
    Txn.txn_id = id;
    tid;
    target_cpu = cpu;
    agent_seq;
    thread_seq;
    status = Txn.Pending;
    decided_at = 0;
  }

let validate t e ~agent_sw (txn : Txn.t) =
  if not e.alive then Some Txn.Enoent
  else if not (Cpumask.mem e.cpus txn.target_cpu) then
    (* A CPU that left the enclave mid-flight: commits racing the removal
       fail ESTALE (retryable); later ones are plain ENOENT. *)
    if
      txn.target_cpu >= 0
      && txn.target_cpu < Array.length e.removed_marks
      && txn.txn_id < e.removed_marks.(txn.target_cpu)
    then Some Txn.Estale
    else Some Txn.Enoent
  else begin
    match Sim.Idtbl.find_opt t.tstates txn.tid with
    | None -> Some Txn.Enoent
    | Some ts ->
      if ts.enclave != e then Some Txn.Enoent
      else if ts.task.Task.state = Task.Dead then Some Txn.Enoent
      else begin
        let stale_agent =
          match (txn.agent_seq, agent_sw) with
          | Some seq, Some sw -> seq < Status_word.seq sw
          | Some _, None | None, _ -> false
        in
        let stale_thread =
          match txn.thread_seq with
          | Some seq -> seq < Status_word.seq ts.sw
          | None -> false
        in
        if stale_agent || stale_thread then Some Txn.Estale
        else if not (Cpumask.mem ts.task.Task.affinity txn.target_cpu) then
          Some Txn.Eaffinity
        else if ts.task.Task.state = Task.Blocked || ts.task.Task.state = Task.Created
        then Some Txn.Enotrunnable
        else if ts.task.Task.state = Task.Running then Some Txn.Ebusy
        else begin
          match ts.latched_on with
          | Some cpu when cpu <> txn.target_cpu -> Some Txn.Ebusy
          | Some _ | None -> None
        end
      end
  end

let apply_latch t e (txn : Txn.t) =
  let ts = Sim.Idtbl.find t.tstates txn.tid in
  let cpu = txn.Txn.target_cpu in
  (* Displace a previously latched thread: it goes back to the agent with a
     THREAD_PREEMPTED message. *)
  (match t.latched_slots.(cpu) with
  | Some old when old.Task.tid <> txn.tid -> (
    ignore (unlatch t cpu);
    match tstate_of t old with
    | Some ots -> post_thread_msg t e ots Msg.THREAD_PREEMPTED ~cpu
    | None -> ())
  | Some _ | None -> ());
  t.latched_slots.(cpu) <- Some ts.task;
  ts.latched_on <- Some cpu

let commit t e ~agent_cpu ~agent_sw ~atomic txns =
  let now = Kernel.now t.kernel in
  let costs = Kernel.costs t.kernel in
  let topo = Kernel.topo t.kernel in
  List.iter
    (fun (txn : Txn.t) ->
      txn.decided_at <- now;
      match validate t e ~agent_sw txn with
      | Some failure -> txn.status <- Txn.Failed failure
      | None -> txn.status <- Txn.Committed)
    txns;
  (if atomic then begin
     match List.find_opt (fun (x : Txn.t) -> x.status <> Txn.Committed) txns with
     | Some _ ->
       List.iter
         (fun (x : Txn.t) ->
           if x.status = Txn.Committed then x.status <- Txn.Failed Txn.Eaborted)
         txns
     | None -> ()
   end);
  let committed = List.filter Txn.committed txns in
  List.iter
    (fun (x : Txn.t) ->
      if Txn.committed x then t.stats.commits <- t.stats.commits + 1
      else begin
        t.stats.commit_failures <- t.stats.commit_failures + 1;
        if x.status = Txn.Failed Txn.Estale then t.stats.estales <- t.stats.estales + 1
      end;
      if Obs.Hooks.enabled () then
        Obs.Hooks.txn_decided ~now ~txn_id:x.txn_id ~tid:x.tid
          ~status:(Txn.status_to_string x.status)
          ~committed:(Txn.committed x))
    txns;
  (* Apply: latch everything, then one batched IPI sweep for remote CPUs. *)
  List.iter (fun txn -> apply_latch t e txn) committed;
  let remote =
    List.filter (fun (x : Txn.t) -> x.target_cpu <> agent_cpu) committed
  in
  let nremote = List.length remote in
  List.iter
    (fun (txn : Txn.t) ->
      let target = txn.Txn.target_cpu in
      if target = agent_cpu then Kernel.resched t.kernel target
      else begin
        let wire =
          costs.Hw.Costs.ipi_wire
          + (if Hw.Topology.same_socket topo agent_cpu target then 0
             else costs.Hw.Costs.ipi_wire_cross_socket)
        in
        let handle =
          costs.Hw.Costs.ipi_handle
          + ((nremote - 1) * costs.Hw.Costs.ipi_handle_group_extra)
        in
        Kernel.send_ipi t.kernel ~target ~wire ~handle (fun () -> ())
      end)
    committed

let recall t e ~cpu =
  if not (Cpumask.mem e.cpus cpu) then invalid_arg "recall: cpu not in enclave";
  unlatch t cpu

(* --- BPF installation (§3.5) ------------------------------------------------ *)

let bpf_reject t e name reason =
  t.stats.bpf_verifier_rejects <- t.stats.bpf_verifier_rejects + 1;
  if Obs.Hooks.enabled () then
    Obs.Hooks.bpf_verifier_reject
      ~now:(Kernel.now t.kernel)
      ~eid:e.eid ~name ~reason;
  Error reason

let bpf_install t e (p : Bpf.Prog.t) =
  if not e.alive then bpf_reject t e p.Bpf.Prog.name "enclave destroyed"
  else
    match Bpf.Verifier.verify p with
    | Error reason -> bpf_reject t e p.Bpf.Prog.name reason
    | Ok v -> (
      (* Maps are shared across the enclave's programs: a redeclaration must
         agree on the size, and existing contents are preserved. *)
      let conflict =
        List.find_opt
          (fun { Bpf.Prog.mid; size } ->
            Array.length e.bpf_maps.(mid) > 0
            && Array.length e.bpf_maps.(mid) <> size)
          p.Bpf.Prog.maps
      in
      match conflict with
      | Some { Bpf.Prog.mid; size } ->
        bpf_reject t e p.Bpf.Prog.name
          (Printf.sprintf "map %d: declared size %d conflicts with existing %d"
             mid size
             (Array.length e.bpf_maps.(mid)))
      | None ->
        List.iter
          (fun { Bpf.Prog.mid; size } ->
            if Array.length e.bpf_maps.(mid) = 0 then
              e.bpf_maps.(mid) <- Array.make size 0)
          p.Bpf.Prog.maps;
        e.bpf_slots.(Bpf.Prog.hook_index p.Bpf.Prog.hook) <- Some v;
        if Obs.Hooks.enabled () then
          Obs.Hooks.bpf_installed
            ~now:(Kernel.now t.kernel)
            ~eid:e.eid
            ~hook:(Bpf.Prog.hook_index p.Bpf.Prog.hook)
            ~name:p.Bpf.Prog.name;
        Ok ())

let bpf_remove e hook =
  let i = Bpf.Prog.hook_index hook in
  match e.bpf_slots.(i) with
  | None -> false
  | Some _ ->
    e.bpf_slots.(i) <- None;
    true

let bpf_installed e hook =
  match e.bpf_slots.(Bpf.Prog.hook_index hook) with
  | Some _ -> true
  | None -> false

let bpf_map_update e ~map ~idx v =
  if map < 0 || map >= Array.length e.bpf_maps then Error "bad map id"
  else
    let arr = e.bpf_maps.(map) in
    if Array.length arr = 0 then Error "map not declared"
    else if idx < 0 || idx >= Array.length arr then Error "index out of bounds"
    else begin
      arr.(idx) <- v;
      Ok ()
    end

let bpf_map_get e ~map ~idx =
  if map < 0 || map >= Array.length e.bpf_maps then None
  else
    let arr = e.bpf_maps.(map) in
    if idx < 0 || idx >= Array.length arr then None else Some arr.(idx)

(* --- Install --------------------------------------------------------------- *)

let install kernel =
  let ncpus = Kernel.ncpus kernel in
  let t =
    {
      kernel;
      enclaves = [];
      owner = Array.make ncpus None;
      latched_slots = Array.make ncpus None;
      tstates = Sim.Idtbl.create ();
      next_qid = 1;
      next_eid = 1;
      next_txn = 1;
      stats =
        {
          msgs_posted = 0;
          commits = 0;
          commit_failures = 0;
          estales = 0;
          bpf_picks = 0;
          bpf_misses = 0;
          bpf_fallbacks = 0;
          bpf_verifier_rejects = 0;
          watchdog_fires = 0;
          msg_drops = 0;
        };
    }
  in
  Kernel.install_class kernel (ghost_cls t);
  Kernel.on_tick kernel (fun cpu ->
      match enclave_for t cpu with
      | Some e when e.deliver_ticks -> post_tick t e ~cpu
      | Some _ | None -> ());
  t
