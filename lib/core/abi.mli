(** The kernel↔agent ABI (§3.2): everything a policy may see or do.

    Real ghOSt agents observe the kernel through exactly three channels —
    message queues, shared-memory status words, and syscalls — behind a
    single version number that both sides negotiate at attach time.  This
    module is that surface for the simulator: policies receive a {!t} in
    their callbacks and can reach the kernel only through it.

    - Syscall-shaped operations ({!make_txn}, {!submit}, {!recall},
      {!create_queue}, {!associate_queue}, {!poke}) charge their Table-3
      [Hw.Costs] to the agent's busy interval, exactly as the direct agent
      API did.
    - Status words are visible only as {!Status_word.snapshot} values
      produced by the seqcount read protocol: a read racing a kernel write
      returns the pre-write snapshot, so a commit stamped with that seq
      fails ESTALE at validation (§3.2).
    - Topology is a query ({!topology}), not a [Kernel.t] to roam.

    A {!t} is the agent group's pass context, owned by the runtime
    (lib/core): every operation below is a direct call on it.  Policies
    see it abstractly; the constructor and the pass-state accessors in the
    last section are the runtime's alone, and [tools/abi_lint.ml] rejects
    them outside lib/core. *)

val version : int
(** The ABI version this runtime speaks.  [Agent.attach_global] /
    [Agent.attach_local] reject policies built against any other version
    (the paper's upgrade-compatibility check). *)

exception Version_mismatch of { agent : int; runtime : int }
(** Raised at attach time when the policy's [abi_version] differs from the
    runtime's {!version}. *)

type t
(** The handle policy callbacks receive. *)

(** {1 Agent identity and time} *)

val abi_version : t -> int
val cpu : t -> int
(** CPU this agent pass runs on. *)

val now : t -> int

val charge : t -> int -> unit
(** Account [ns] of policy computation to the agent's busy interval. *)

val charge_scan : t -> int -> unit
(** Account [n] CPU-scan steps — the simulated cost of [n] {!cpu_is_idle}
    or {!curr_on} probes — without reading any CPU state.  A policy whose
    loop would probe CPUs whose answers cannot change its decisions (say,
    idle CPUs with nothing queued to place) charges those probes here in
    one call, leaving the simulated clock exactly where probing would. *)

val aseq : t -> int
(** The agent's sequence number as read from its status word (§3.2). *)

(** {1 Transactions} *)

val make_txn :
  t -> tid:int -> target:int -> ?with_aseq:bool -> ?thread_seq:int -> unit -> Txn.t
(** TXN_CREATE.  [with_aseq] stamps the current agent seq for the per-CPU
    staleness check; [thread_seq] stamps a thread seq for the centralized
    check (§3.3). *)

val submit : t -> ?atomic:bool -> Txn.t list -> unit
(** Queue a TXNS_COMMIT group for the end of this pass.  [atomic] groups are
    all-or-nothing (core scheduling, §4.5). *)

val recall : t -> target:int -> Kernel.Task.t option
(** TXNS_RECALL: retract the latched-but-not-run thread on a CPU. *)

(** {1 Message queues} *)

val create_queue : t -> capacity:int -> wake_cpu:int option -> Squeue.t
(** CREATE_QUEUE; [wake_cpu] configures CONFIG_QUEUE_WAKEUP to wake that
    CPU's agent and associates its aseq. *)

val associate_queue :
  t -> Kernel.Task.t -> Squeue.t -> (unit, [ `Pending_messages ]) result

val queue_of_cpu : t -> int -> Squeue.t option
(** The runtime's per-CPU queue (local agent groups only). *)

val poke : t -> int -> unit
(** Wake a sibling agent thread so it runs a scheduling pass even though its
    queue is empty (the agents' userspace futex wakeup). *)

val drain : t -> Squeue.t -> Msg.t list
(** Consume all visible messages from an extra queue (the runtime already
    drains the agent's own queue before [schedule]). *)

(** {1 Enclave and thread queries} *)

val enclave_cpu_list : t -> int list

val idle_cpus : t -> int list
(** Idle CPUs of the enclave, charged one scan step each. *)

val cpu_is_idle : t -> int -> bool
(** Charged one scan step. *)

val curr_on : t -> int -> Kernel.Task.t option
(** Charged one scan step. *)

val latched_on : t -> int -> Kernel.Task.t option
val lower_class_waiting : t -> int -> bool
val managed_threads : t -> Kernel.Task.t list

val status_word : t -> Kernel.Task.t -> Status_word.snapshot option
(** Seqcount snapshot of a managed thread's status word: the pre-write
    state if a kernel write raced this agent pass (the subsequent commit
    then fails ESTALE), never a torn mix. *)

val thread_seq : t -> Kernel.Task.t -> int option
val task_by_tid : t -> int -> Kernel.Task.t option

val topology : t -> Hw.Topology.t
(** The machine topology (enclaves are carved along its boundaries).  A
    plain shared-memory read, charged nothing. *)

val core_class : t -> int -> int
(** Capability class of a CPU's physical core (ABI v3): 0 on every CPU of
    a uniform machine; P/E hybrid machines report the
    {!Hw.Topology.class_of} id, so policies can place deadline work on
    fast cores.  A shared-memory read, charged nothing. *)

(** {1 BPF fastpath (§3.5, ABI v2)}

    Install/remove restricted programs and update their shared maps.  All
    four are charged at sub-syscall Table-3 cost ([Hw.Costs.bpf_install] /
    [bpf_map_op]): installation verifies off the hot path, and map updates
    are shared-memory stores. *)

val bpf_install : t -> Bpf.Prog.t -> (unit, string) result
(** Verify and install a program on its declared hook for this enclave.
    [Error] carries the verifier's rejection reason. *)

val bpf_remove : t -> Bpf.Prog.hook -> bool

val bpf_map_update : t -> map:int -> idx:int -> int -> (unit, string) result

val bpf_map_get : t -> map:int -> idx:int -> int option

(** {1 Runtime side (lib/core only)}

    The agent runtime builds one context per agent group and brackets each
    scheduling pass with it.  The tables are the group's own, shared, not
    copied: the runtime keeps mutating them (agents spawn and retire,
    queues come and go, the enclave's CPU list is replaced on a resize). *)

val context :
  System.t ->
  System.enclave ->
  agents:Kernel.Task.t Sim.Idtbl.t ->
  sws:Status_word.t Sim.Idtbl.t ->
  cpu_queues:Squeue.t Sim.Idtbl.t ->
  poked:unit Sim.Idtbl.t ->
  cpu_list:int list ref ->
  t
(** [agents] and [sws] map a CPU to its agent task and status word,
    [cpu_queues] to its per-CPU queue (local groups), and [poked] marks the
    CPUs owed a pass despite empty queues.  {!cpu} starts at the head of
    [cpu_list]. *)

val scan_step_cost : int
(** Simulated ns of one {!cpu_is_idle} or {!curr_on} probe and of each
    step {!charge_scan} accounts ([Agent.scan_step_cost]). *)

val begin_pass : t -> cpu:int -> unit
(** Start a pass on [cpu]: nothing charged, nothing submitted. *)

val charged : t -> int
(** Simulated ns charged since {!begin_pass}. *)

val batches : t -> (bool * Txn.t list) list
(** The (atomic, txns) groups {!submit}ted since {!begin_pass}, in submit
    order. *)

val wire_wakeup : t -> Squeue.t -> wake_cpu:int -> unit
(** CONFIG_QUEUE_WAKEUP without the syscall charge: a message on the queue
    wakes [wake_cpu]'s agent and owes it a pass, and bumps its aseq. *)
