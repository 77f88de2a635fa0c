(** The userspace agent runtime — the paper's "ghOSt userspace support
    library" (§3, Table 2).

    A {!policy} is what the user writes: a few callbacks over the {!Abi} —
    the narrow, versioned kernel↔agent interface.  Policies cannot reach
    [System.t] or [Kernel.t]; the runtime holds them internally.  The
    runtime provides both scheduling models (Fig. 2):

    - {!attach_local}: one active agent per CPU.  Agents sleep; a message on
      a CPU's queue wakes its agent, which drains, decides and commits a
      transaction for its own CPU, then sleeps again (§3.2, Fig. 3).
    - {!attach_global}: a single spinning global agent scheduling every CPU
      in the enclave; the other per-CPU agents stay inactive.  When CFS work
      waits on the global agent's CPU, the agent hot-hands-off to an
      inactive agent on an idle CPU (§3.3, Fig. 4).

    Time accounting: a policy's [schedule] callback executes logically
    during the agent's busy interval.  Every ABI call charges simulated
    time; submitted transactions are validated and applied when the
    interval ends, so messages arriving meanwhile fail the commit with
    ESTALE exactly as in §3.2. *)

type policy = {
  name : string;
  abi_version : int;
      (** ABI version the policy was built against.  {!attach_global} /
          {!attach_local} raise [Abi.Version_mismatch] unless it equals
          [Abi.version] — the §3.4 upgrade-compatibility gate. *)
  init : Abi.t -> unit;
      (** Runs when the agent group attaches (AGENT_INIT).  Create extra
          queues, enable ticks, and — after an in-place upgrade — rebuild
          state from [Abi.managed_threads]. *)
  schedule : Abi.t -> Msg.t list -> unit;
      (** One scheduling pass over freshly drained messages.  Submit
          transactions with [Abi.submit]; charge policy work with
          [Abi.charge]. *)
  on_result : Abi.t -> Txn.t -> unit;
      (** Called for every submitted transaction after commit, with status
          resolved (Fig. 3/4's failure handling). *)
  on_cpu_removed : Abi.t -> int -> unit;
      (** The enclave shrank (a CPU that joins arrives as a CPU_AVAILABLE
          message instead).  The runtime has retired the CPU's agent and
          re-pointed its queues; the policy re-homes any thread state it
          kept for the CPU (the threads themselves come back with
          THREAD_PREEMPTED messages). *)
}

val make_policy :
  name:string ->
  ?init:(Abi.t -> unit) ->
  schedule:(Abi.t -> Msg.t list -> unit) ->
  ?on_result:(Abi.t -> Txn.t -> unit) ->
  ?on_cpu_removed:(Abi.t -> int -> unit) ->
  unit ->
  policy
(** Build a policy record with no-op defaults for everything but
    [schedule], stamped with the runtime's [Abi.version]. *)

val base_pass_cost : int
(** Simulated ns every scheduling pass costs before the policy charges
    anything (status-word reads, loop bookkeeping). *)

val scan_step_cost : int
(** Simulated ns of one CPU-state probe ([Abi.cpu_is_idle],
    [Abi.curr_on]) and of each step [Abi.charge_scan] accounts. *)

type group
(** The agent threads attached to one enclave. *)

(** {1 Attachment} *)

val attach_global :
  System.t -> System.enclave -> ?min_iteration:int -> ?idle_gap:int -> policy -> group
(** Start a centralized (spinning) agent group.  [min_iteration] is the
    floor on a polling pass (default 200 ns); [idle_gap] the poll pause
    after a pass that saw no messages and committed nothing (default
    1 us — the effective polling granularity of the spinning agent).
    Raises [Abi.Version_mismatch] if the policy speaks a different ABI. *)

val attach_local : System.t -> System.enclave -> policy -> group
(** Start a per-CPU agent group with per-CPU queues and wakeups.
    Raises [Abi.Version_mismatch] if the policy speaks a different ABI. *)

val stop : group -> unit
(** Planned shutdown: agents detach and exit (for in-place upgrades). *)

val crash : group -> unit
(** Simulate an agent-process crash: agents die without handing over.  If no
    replacement attaches within the grace period, the enclave is destroyed
    and its threads fall back to CFS (§3.4). *)

val global_cpu : group -> int
(** CPU the global agent currently spins on (-1 for local groups). *)

val iterations : group -> int
(** Scheduling passes executed so far (all agents). *)

val is_attached : group -> bool

(** {1 Fault-injection points (lib/faults)}

    Plain field writes: both knobs cost one load on the agent hot path when
    unset, so an unarmed system pays nothing for them. *)

val set_paused : group -> bool -> unit
(** Simulate a hung agent process: paused agents keep occupying their CPUs
    but drain no messages and commit nothing, so managed threads starve and
    the watchdog eventually trips (§3.4).  Unpausing pokes every agent so it
    immediately works through the backlog. *)

val set_pass_penalty : group -> int -> unit
(** Charge an extra [ns] to every scheduling pass — a degraded/slow agent
    whose transaction commits apply late (commits are validated when the
    pass's busy interval ends, so delaying the interval delays — and with
    message races, ESTALEs — the commits).  0 disables. *)
