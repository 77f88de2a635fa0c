(** Cost model for kernel and ghOSt primitive operations.

    Calibrated against Table 3 of the paper (Skylake, Linux 4.15):

    {v
    1. Message delivery to local agent            725 ns
    2. Message delivery to global agent           265 ns
    3. Local schedule (1 txn)                     888 ns
    4. Remote schedule: agent overhead            668 ns
    5. Remote schedule: target CPU overhead      1064 ns
    6. Remote schedule: end-to-end latency       1772 ns
    7. Group (10 txns): agent overhead           3964 ns
    8. Group (10 txns): target CPU overhead      1821 ns
    9. Group (10 txns): end-to-end latency       5688 ns
    10. Syscall overhead                           72 ns
    11. pthread minimal context switch            410 ns
    12. CFS context switch                        599 ns
    v}

    The decomposition used by the simulator (documented per field below) adds
    back up to those end-to-end numbers; the Table 3 bench verifies this. *)

type t = {
  syscall : int;  (** Bare syscall entry/exit (line 10). *)
  ctx_switch : int;  (** Minimal context switch, used for agents (line 11). *)
  cfs_ctx_switch : int;  (** CFS context switch incl. accounting (line 12). *)
  msg_produce : int;  (** Enqueue a message into a shared-memory queue. *)
  msg_consume : int;
      (** Dequeue in the agent.  produce + consume = line 2 (265 ns). *)
  agent_wakeup : int;
      (** Marking a blocked agent runnable.  produce + wakeup + ctx_switch +
          consume = line 1 (725 ns). *)
  txn_commit_local : int;
      (** Agent-side work of a local commit excluding the context switch:
          txn_commit_local + ctx_switch = line 3 (888 ns). *)
  txn_group_fixed : int;
  txn_group_per_txn : int;
      (** Agent-side cost of a remote group commit of [n] txns is
          [txn_group_fixed + n * txn_group_per_txn]; n=1 gives line 4
          (668 ns) and n=10 gives line 7 (3964 ns). *)
  ipi_wire : int;  (** In-flight IPI propagation, same socket. *)
  ipi_wire_cross_socket : int;  (** Additional propagation across sockets. *)
  ipi_handle : int;
      (** Target-side IPI handling + reschedule, excluding the context
          switch: ipi_handle + ctx_switch = line 5 (1064 ns). *)
  ipi_handle_group_extra : int;
      (** Extra target-side cost per additional txn in the same group
          (cache-line contention); 10 txns gives line 8 (1821 ns). *)
  smt_contention : float;
      (** Multiplier on agent-op costs when the SMT sibling is busy
          (Fig. 5 annotation 2). *)
  cross_socket_op : float;
      (** Multiplier on commit costs targeting a remote socket (Fig. 5
          annotation 3). *)
  tick_period : int;  (** Kernel timer tick, 1 ms. *)
  tick_interrupt : int;
      (** CPU time stolen from the running task by each timer interrupt
          (0 = free; a guest vCPU pays a VM-exit here, §5's tick-less
          motivation). *)
  bpf_pick : int;
      (** Kernel-side cost of running a BPF fastpath program and acting
          on its result (latch/dispatch), charged into the ensuing
          context switch (§3.5). *)
  bpf_install : int;
      (** Agent-side cost of installing/removing a verified program —
          sub-syscall: the program was verified off the hot path. *)
  bpf_map_op : int;
      (** Agent-side cost of one shared-map read/update — a couple of
          cache-line accesses, well under a syscall. *)
  freq_scale : float;
      (** Global scale for slower machines (e.g. 2.3 GHz Haswell vs 2 GHz
          Skylake have different memory systems; >1 means slower ops). *)
  class_speed : float array;
      (** Execution speed per {!Topology} core class: work retired per
          wall nanosecond.  1.0 is the calibrated reference (P) core; an
          E core at 0.5 takes twice the wall time to retire the same
          work.  Classes beyond the array default to 1.0, so uniform
          machines keep the exact-integer accounting path. *)
  class_switch_scale : float array;
      (** Context-switch cost multiplier per core class (same indexing
          and default as [class_speed]). *)
  migration_class_extra : int;
      (** Extra switch-in cost when a thread migrates between cores of
          {e different} classes — cold predictors and prefetchers on the
          unfamiliar microarchitecture.  0 on uniform machines. *)
}

val skylake : t
(** The Table 3 reference machine. *)

val scaled : float -> t -> t
(** Scale every nanosecond cost by the factor (rounded).  Ratios
    ([class_speed], [class_switch_scale], the multipliers) are copied
    unchanged. *)

val scale_i : float -> int -> int
(** Scale one nanosecond cost (round to nearest). *)

val class_speed_of : t -> int -> float
(** Execution speed of a core class; 1.0 for classes beyond the array. *)

val class_switch_scale_of : t -> int -> float
(** Switch-cost multiplier of a core class; 1.0 beyond the array. *)
