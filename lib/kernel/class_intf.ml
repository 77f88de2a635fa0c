(** The scheduling-class interface (Linux's [struct sched_class], §2).

    The kernel dispatcher walks classes in priority order:
    RT > MicroQuanta > CFS > ghOSt.  Each class owns its runqueues; the
    dispatcher owns per-CPU current-task state, accounting and context
    switches. *)

type env = {
  engine : Sim.Engine.t;
  topo : Hw.Topology.t;
  costs : Hw.Costs.t;
  ncpus : int;
  core_sched : bool;  (** Core scheduling enabled (cookie-aware placement). *)
  curr : int -> Task.t option;  (** Task currently on a CPU. *)
  cpu_idle : int -> bool;  (** No current task and nothing runnable there. *)
  resched : int -> unit;  (** Request a reschedule of a CPU. *)
  note_queued : cpu:int -> int -> unit;
      (** Report a runnable-count change ([+1]/[-1]) on a CPU's runqueue.
          Classes with [tracks_queued = true] call this at every enqueue and
          dequeue so the kernel can answer {!cpu_idle} from a cached per-CPU
          counter instead of scanning every class. *)
}

type cls = {
  name : string;
  policy : Task.policy;
  tracks_queued : bool;
      (** Whether this class reports every runnable-count change through
          [env.note_queued].  Classes that cannot (ghOSt: latched-thread
          runnability flips without a queue operation) answer
          [nr_runnable] in O(1) and are scanned individually. *)
  enqueue : cpu:int -> is_new:bool -> Task.t -> unit;
      (** Task became runnable; [cpu] was chosen by [select_cpu].  [is_new]
          distinguishes first start from wakeup (ghOSt: THREAD_CREATED vs
          THREAD_WAKEUP). *)
  dequeue : Task.t -> unit;
      (** Remove a runnable, non-running task from its runqueue. *)
  pick : cpu:int -> filter:(Task.t -> bool) -> Task.t option;
      (** Remove and return the best runnable task for [cpu] that satisfies
          [filter] (used by core scheduling).  [None] if none. *)
  put_prev : cpu:int -> Task.t -> unit;
      (** A still-runnable task was involuntarily descheduled (preempted).
          Normal classes requeue it; ghOSt emits THREAD_PREEMPTED. *)
  steal : cpu:int -> filter:(Task.t -> bool) -> Task.t option;
      (** Idle balance: try to pull work from another CPU's runqueue. *)
  update : cpu:int -> Task.t -> ran:int -> unit;
      (** Account [ran] ns of execution (vruntime, MicroQuanta budget...). *)
  tick : cpu:int -> Task.t -> since_dispatch:int -> unit;
      (** Timer tick while this class's task is current. *)
  select_cpu : Task.t -> int;
      (** Wakeup placement; must return a CPU in the task's affinity mask. *)
  wakeup_preempt : curr:Task.t -> Task.t -> bool;
      (** Should a newly woken task preempt the current one (same class)? *)
  nr_runnable : cpu:int -> int;
      (** Queued (runnable, not running) tasks on this CPU's runqueue. *)
  attach : cpu:int -> Task.t -> unit;
      (** A task just joined this class ([sched_setscheduler]): normalise
          class-specific state (CFS: vruntime; MicroQuanta: budget). *)
  on_block : cpu:int -> Task.t -> unit;
  on_yield : cpu:int -> Task.t -> unit;
      (** Yield semantics are class-specific: normal classes requeue at the
          back; ghOSt emits THREAD_YIELD and leaves scheduling to the agent. *)
  on_dead : cpu:int -> Task.t -> unit;
  on_affinity : Task.t -> unit;
}

let no_filter (_ : Task.t) = true

(* Shared helper: pick the first idle allowed CPU scanning a preference
   order, falling back to [fallback]. *)
let first_idle_allowed env ~affinity order ~fallback =
  let ok c = Cpumask.mem affinity c && env.cpu_idle c in
  match List.find_opt ok order with Some c -> c | None -> fallback
