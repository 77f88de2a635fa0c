(** Virtual-machine workload for secure core scheduling (Table 4, §4.5).

    [nvms] VMs with [vcpus] vCPU threads each run a fixed amount of
    compute-bound work (a stand-in for SPECCPU 2006 bwaves).  Each vCPU
    carries its VM's core-scheduling cookie.  The figure of merit is the
    makespan (lower is better) and the throughput rate (work per wall
    second, higher is better) — core scheduling pays for L1TF/MDS isolation
    with forced-idle hyperthreads. *)

type t

val create :
  Kernel.t ->
  ?sizes:int list ->
  nvms:int ->
  vcpus:int ->
  work:int ->
  ?slice:int ->
  ?stagger:int ->
  spawn:(vm:int -> vcpu:int -> cookie:int -> (unit -> Kernel.Task.action) -> Kernel.Task.t) ->
  unit ->
  t
(** VMs boot [stagger] ns apart (default 2 ms); tasks are created inside
    simulation events, so run the kernel to let them appear.  [sizes] gives
    per-VM vCPU counts instead of the uniform [nvms] x [vcpus]; odd sizes
    strand hyperthreads under core scheduling.  bwaves is pure compute, so
    a vCPU never blocks. *)

val tasks : t -> Kernel.Task.t list
val all_done : t -> bool
val makespan : t -> int option
(** Virtual time when the last vCPU finished; [None] while running. *)

val rate : t -> float option
(** Aggregate throughput: total work / makespan (in CPU-seconds per
    second) — the analogue of the SPEC rate score. *)
