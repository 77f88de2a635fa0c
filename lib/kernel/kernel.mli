(** The simulated kernel: dispatcher, ticks, wakeups, context switches.

    Owns per-CPU current-task state and walks the scheduling classes in
    priority order (RT > MicroQuanta > CFS > ghOSt) on every reschedule.
    Task execution is event-driven: a dispatched task occupies its CPU until
    its current {!Task.action} segment ends or it is preempted.  All costs
    (context switches, syscalls, IPIs) come from the machine's
    {!Hw.Costs.t} and are charged in simulated time. *)

(** Submodules re-exported as the library's public surface. *)

module Task = Task
module Cpumask = Cpumask
module Class_intf = Class_intf
module Cfs = Cfs
module Rt = Rt
module Microquanta = Microquanta
module Trace = Trace

type t

type stats = {
  mutable ctx_switches : int;
  mutable ipis : int;
  mutable wakeups : int;
  mutable reschedules : int;
}

val create : ?core_sched:bool -> ?seed:int -> Hw.Machines.t -> t
(** Build a kernel for the given machine.  [core_sched] enables the
    in-kernel core-scheduling baseline of §4.5 (cookie-compatible tasks only
    on SMT siblings). *)

val engine : t -> Sim.Engine.t
val topo : t -> Hw.Topology.t
val costs : t -> Hw.Costs.t
val rng : t -> Sim.Rng.t
val machine : t -> Hw.Machines.t
val now : t -> int
val ncpus : t -> int
val full_mask : t -> Cpumask.t
val stats : t -> stats

(** {1 Core-class execution scaling}

    [Task.remaining] is denominated in {e work} nanoseconds; the event
    queue runs in {e wall} nanoseconds.  Each CPU retires work at its core
    class's [Hw.Costs.class_speed].  On a speed-1.0 CPU (every CPU of a
    uniform machine) the conversions are the identity on exact integers,
    so uniform machines are byte-identical to the pre-hybrid engine. *)

val exec_speed : t -> int -> float
(** Work retired per wall ns on this CPU (its core class's speed). *)

val wall_of_work : t -> cpu:int -> int -> int
(** Wall ns an uninterrupted segment of that much work occupies on [cpu]
    ([ceil (work / speed)]; the identity at speed 1.0). *)

val work_of_wall : t -> cpu:int -> int -> int
(** Work retired by running that long on [cpu] ([floor (wall * speed)];
    the identity at speed 1.0). *)

(** {1 Task lifecycle} *)

val create_task :
  t ->
  ?policy:Task.policy ->
  ?nice:int ->
  ?rt_prio:int ->
  ?cookie:int ->
  ?affinity:Cpumask.t ->
  name:string ->
  (unit -> Task.action) ->
  Task.t
(** Create a task in [Created] state (defaults: CFS, nice 0, full affinity).
    Call {!start} to make it runnable. *)

val start : t -> Task.t -> unit
(** Make a freshly created task runnable (fork/exec). *)

val wake : t -> Task.t -> unit
(** Wake a blocked task; no-op if it is not blocked. *)

val kill : t -> Task.t -> unit
(** Force a task to exit, whatever its state. *)

val set_affinity : t -> Task.t -> Cpumask.t -> unit
(** [sched_setaffinity]: update the mask and migrate if needed. *)

val set_nice : t -> Task.t -> int -> unit

val set_policy : t -> Task.t -> Task.policy -> unit
(** Move a task to another scheduling class (e.g. ghOSt enclave destruction
    sends all managed threads back to CFS, §3.4). *)

val task_by_tid : t -> int -> Task.t option
(** [None] for any tid no live task has, negative or huge ones included. *)

val tasks : t -> Task.t list
(** Every live task (created and not yet exited or killed), in ascending
    tid order. *)

(** {1 CPU state} *)

val curr : t -> int -> Task.t option
(** Task currently on the CPU ([None] = idle). *)

val cpu_idle : t -> int -> bool
(** Idle and nothing queued on that CPU. *)

val idle_cpus : t -> int list
val idle_total : t -> int -> int
(** Accumulated idle nanoseconds of a CPU. *)

val since_dispatch : t -> int -> int
(** Nanoseconds the current thread has been running on the CPU; 0 if idle. *)

val add_switch_cost : t -> int -> int -> unit
(** [add_switch_cost t cpu ns] folds [ns] of extra cost into the next
    context switch on [cpu] (used to charge fastpath program runs). *)

val resched : t -> int -> unit
(** Request a reschedule of a CPU (posts an immediate event). *)

val send_ipi : t -> target:int -> wire:int -> handle:int -> (unit -> unit) -> unit
(** Deliver an inter-processor interrupt: after [wire] ns the callback runs
    on the target, [handle] ns of handler cost are folded into the ensuing
    context switch, and the target reschedules. *)

val lower_class_waiting : t -> int -> bool
(** True when CFS or MicroQuanta work is queued on the CPU — the signal the
    global agent uses to hot-handoff its CPU (§3.3). *)

(** {1 Class plumbing} *)

val set_ticks_enabled : t -> cpu:int -> bool -> unit
(** Enable/disable the periodic timer tick on a CPU.  A spinning global
    agent does not need ticks on the CPUs it manages, and guest vCPUs pay a
    VM-exit per tick — the §5 tick-less optimization.  Real kernels require
    at most one runnable thread for NO_HZ_FULL; here the caller takes that
    responsibility (CFS preemption on that CPU stops without ticks). *)

val ticks_enabled : t -> cpu:int -> bool

val class_env : t -> Class_intf.env
val install_class : t -> Class_intf.cls -> unit
(** Append a class at the lowest priority (used to install ghOSt). *)

val find_class : t -> Task.policy -> Class_intf.cls
val on_tick : t -> (int -> unit) -> unit
(** Register a per-CPU timer-tick listener (ghOSt's TIMER_TICK source). *)

val set_tracer : t -> Trace.t option -> unit
(** Attach (or detach) a scheduling-event trace ring. *)

val tracer : t -> Trace.t option

(** {1 Running} *)

val run_until : t -> int -> unit
val run_for : t -> int -> unit
