(** The kernel side of ghOSt: scheduling class, enclaves, transaction commit
    path, watchdog (§3).

    One [System.t] is installed per kernel.  The machine is partitioned into
    {e enclaves} at CPU granularity; each enclave runs its own policy via
    attached agents (Fig. 2).  Managed threads run in the lowest-priority
    scheduling class: any CFS/MicroQuanta thread preempts them, generating
    THREAD_PREEMPTED messages (§3.4).  A committed transaction {e latches}
    its thread onto the target CPU's ghOSt slot; the thread runs when the
    class hierarchy reaches ghOSt there. *)

type t

type enclave

type destroy_reason = Explicit | Watchdog | Agent_crash

type stats = {
  mutable msgs_posted : int;
  mutable commits : int;
  mutable commit_failures : int;
  mutable estales : int;
  mutable bpf_picks : int;
      (** Fastpath results the kernel acted on (latch/dispatch/preempt). *)
  mutable bpf_misses : int;
      (** Fastpath results that failed kernel re-validation (stale tid,
          busy cpu, affinity...). *)
  mutable bpf_fallbacks : int;
      (** Program declined (negative result); the agent path handles it. *)
  mutable bpf_verifier_rejects : int;
      (** Programs refused at install time (verifier or map conflict). *)
  mutable watchdog_fires : int;
  mutable msg_drops : int;
      (** Kernel-side messages lost to queue overflow, across all enclaves.
          The first drop per enclave also logs a warning. *)
}

val install : Kernel.t -> t
(** Install the ghOSt scheduling class below CFS.  Call once per kernel. *)

val kernel : t -> Kernel.t
val stats : t -> stats

(** {1 Enclaves} *)

val create_enclave :
  t ->
  ?watchdog_timeout:int ->
  ?deliver_ticks:bool ->
  cpus:Kernel.Cpumask.t ->
  unit ->
  enclave
(** Partition [cpus] into a new enclave.  CPUs must not belong to another
    live enclave.  [watchdog_timeout] destroys the enclave if a runnable
    managed thread goes unscheduled that long (§3.4); [deliver_ticks] routes
    TIMER_TICK messages to the per-CPU queues (default false). *)

val destroy_enclave : ?reason:destroy_reason -> t -> enclave -> unit
(** Kill the enclave's agents and move every managed thread back to CFS; the
    machine keeps running (§3.4). *)

val enclave_alive : enclave -> bool
val enclave_id : enclave -> int
val enclave_cpus : enclave -> Kernel.Cpumask.t

val enclave_dropped : enclave -> int
(** Sum of {!Squeue.dropped} over every queue the enclave owns (includes
    producers other than the kernel post path). *)

val enclave_of_cpu : t -> int -> enclave option
val destroy_reason : enclave -> destroy_reason option
val on_destroy : enclave -> (destroy_reason -> unit) -> unit
(** Register a callback fired when the enclave dies (agent upgrade logic). *)

(** {1 Dynamic resizing (§3.2: CPUs move between enclaves at runtime)} *)

type resize = Cpu_added of int | Cpu_removed of int

val add_cpu : t -> enclave -> int -> unit
(** Grow the enclave by one CPU.  The CPU must not belong to a live enclave.
    Posts a CPU_AVAILABLE message to the enclave's default queue and fires
    {!on_resize} callbacks. *)

val remove_cpu : t -> enclave -> int -> unit
(** Shrink the enclave by one CPU (never the last one).  The CPU's latched
    thread (if any) is returned to the agent with THREAD_PREEMPTED, a running
    ghost thread is preempted off it, TIMER_TICK routing for the CPU is
    dropped, and a CPU_TAKEN message is posted.  Transactions already created
    against the CPU fail their commit with [Estale]; transactions created
    after the removal fail [Enoent]. *)

val on_resize : enclave -> (resize -> unit) -> unit
(** Register a callback fired synchronously after each [add_cpu]/[remove_cpu]
    (the agent layer uses this to spawn/retire per-CPU agents). *)

(** {1 Queues (CREATE_QUEUE / ASSOCIATE_QUEUE / CONFIG_QUEUE_WAKEUP)} *)

val default_queue : enclave -> Squeue.t
val create_queue : enclave -> capacity:int -> Squeue.t

val destroy_queue : enclave -> Squeue.t -> unit
(** DESTROY_QUEUE: drop a queue (threads still associated with it fall back
    to posting into it harmlessly; re-associate them first). *)

val associate_queue : enclave -> Kernel.Task.t -> Squeue.t -> (unit, [ `Pending_messages ]) result
(** Re-route a thread's messages.  Fails if the thread's current queue still
    holds messages about it, exactly as in §3.1. *)

val associate_cpu_queue : enclave -> cpu:int -> Squeue.t -> unit
(** Route CPU events (TIMER_TICK) for [cpu] to the given queue. *)

(** {1 Managed threads} *)

val manage : enclave -> Kernel.Task.t -> unit
(** Move a native thread under ghOSt scheduling (START_GHOST). *)

val unmanage : t -> Kernel.Task.t -> unit
(** Hand the thread back to CFS. *)

val managed_threads : enclave -> Kernel.Task.t list
(** All live threads in the enclave, in ascending tid order — what a
    replacement agent reads to rebuild its state after an in-place upgrade
    (§3.4). *)

val status_word : t -> Kernel.Task.t -> Status_word.t option
val thread_seq : t -> Kernel.Task.t -> int option

val set_hint : t -> Kernel.Task.t -> int -> unit
(** Application-side write of the thread's scheduling hint (a plain store
    into the shared status word; no syscall).  No-op for unmanaged
    threads. *)

val hint : t -> Kernel.Task.t -> int
(** Agent-side read of the hint; 0 when unmanaged or unset. *)

(** {1 Transactions (TXN_CREATE / TXNS_COMMIT / TXNS_RECALL)} *)

val make_txn :
  t -> tid:int -> cpu:int -> ?agent_seq:int -> ?thread_seq:int -> unit -> Txn.t

val commit :
  t ->
  enclave ->
  agent_cpu:int ->
  agent_sw:Status_word.t option ->
  atomic:bool ->
  Txn.t list ->
  unit
(** Validate and apply transactions.  Each transaction's status is set to
    [Committed] or [Failed].  Successful local commits reschedule
    [agent_cpu]; remote ones latch the thread and send a (batched) IPI.
    [atomic] gives all-or-nothing semantics for core scheduling (§4.5). *)

val recall : t -> enclave -> cpu:int -> Kernel.Task.t option
(** TXNS_RECALL: unlatch and return the thread latched on [cpu], if any. *)

val latched : t -> cpu:int -> Kernel.Task.t option

(** {1 BPF fastpath tier (§3.5)}

    Restricted programs ({!Bpf.Prog.t}) installed per hook point.  The kernel
    consults them at wakeup, tick, and before idling a CPU, falling back to
    the agent path whenever a program is absent, declines, or returns a
    result that fails kernel re-validation.  Programs keep serving published
    work during the agent-crash grace window, since they live on the enclave,
    not the agent. *)

val bpf_install : t -> enclave -> Bpf.Prog.t -> (unit, string) result
(** Verify and install a program on its declared hook, creating any maps it
    declares (shared across the enclave's programs; sizes must agree).
    Replaces the previous program on that hook.  On [Error], nothing is
    installed and [bpf_verifier_rejects] is incremented. *)

val bpf_remove : enclave -> Bpf.Prog.hook -> bool
(** Uninstall the program on [hook]; returns whether one was installed.
    Maps persist (other hooks may share them). *)

val bpf_installed : enclave -> Bpf.Prog.hook -> bool

val bpf_map_update : enclave -> map:int -> idx:int -> int -> (unit, string) result
(** Agent-side store into a shared map declared by an installed program. *)

val bpf_map_get : enclave -> map:int -> idx:int -> int option

(** {1 Agents} *)

val register_agent : enclave -> Kernel.Task.t -> Status_word.t -> unit
val unregister_agent : enclave -> Kernel.Task.t -> unit
(** Unregistering the last agent of an enclave that still has managed
    threads triggers [Agent_crash] destruction unless a replacement attaches
    first (§3.4). *)

val agent_tasks : enclave -> Kernel.Task.t list
