(** Declarative experiment harness.

    A scenario is a value: a machine, N enclaves — each with a policy named
    via {!Policies.Registry} spec syntax, a cpumask, workloads and an
    optional fault plan — plus a seed, warmup/measure/cooldown windows and
    an optional controller ticking over the live system (e.g. a load
    watcher moving CPUs between enclaves with {!move_cpu}).  {!run}
    executes it deterministically and returns per-enclave reports.

    Setup order is part of the contract (it fixes task ids and event
    sequence numbers): enclaves in declaration order (policy built,
    enclave created, agents attached, injector armed), then workloads in
    declaration order, then the clock runs. *)

(** Workloads, bound per enclave.  Thread names are ["<prefix><idx>"] —
    registry policies classify by these prefixes (e.g. shinjuku treats
    [batch*] as best-effort). *)
type workload =
  | Openloop of {
      wseed : int;  (** arrival/service RNG seed, separate from the system seed *)
      rate : float;  (** requests per second *)
      service : Sim.Dist.t;
      nworkers : int;
      prefix : string;
    }
  | Batch of { n : int; prefix : string }
      (** CPU-bound best-effort threads (compute forever). *)
  | Spin of { threads : int; thread_ns : int; prefix : string }
      (** Run [thread_ns] then yield, forever — keeps runqueues non-empty. *)
  | Jobs of { n : int; slice_ns : int; total_ns : int; prefix : string }
      (** Finite jobs; the report counts completions and the last finish. *)

type enclave_spec = {
  ename : string;
  policy : string;
  cpus : int list;
  watchdog_timeout : int option;
  min_iteration : int option;
  idle_gap : int option;
  workloads : workload list;
  faults : Faults.Plan.t;
}

val enclave :
  ?watchdog_timeout:int ->
  ?min_iteration:int ->
  ?idle_gap:int ->
  ?faults:Faults.Plan.t ->
  policy:string ->
  cpus:int list ->
  workloads:workload list ->
  string ->
  enclave_spec

(** {1 Live state}

    Controllers observe and steer the running system — through these
    accessors only.  Like policies behind the [Abi], a controller never
    holds the [Kernel.t] or [System.t]: both types stay inside the harness,
    so every steering action is an auditable call below. *)

type live
(** The running system, as handed to a controller's [tick]. *)

type live_enclave
(** One enclave of the running scenario. *)

val now : live -> int
(** Current simulated time. *)

val find : live -> string -> live_enclave
(** By enclave name; raises [Invalid_argument] if absent. *)

val stat : live_enclave -> string -> int option
(** Live policy stat (e.g. ["lc_backlog"]). *)

val openloop : live_enclave -> Workloads.Openloop.t option
(** First open-loop workload of the enclave, for e.g.
    {!Workloads.Openloop.set_rate}. *)

val group : live_enclave -> Ghost.Agent.group
(** The enclave's agent group (e.g. [Agent.global_cpu] for controllers that
    avoid yanking the CPU the global agent spins on). *)

val enclave_cpus : live_enclave -> int list
(** CPUs currently owned by the enclave. *)

val move_cpu : live -> src:string -> dst:string -> int -> unit
(** Dynamic resizing: remove the CPU from [src], add it to [dst]. *)

type controller = { period_ns : int; tick : live -> unit }
(** Runs every [period_ns] from the first period until the end of the
    measurement window. *)

(** {1 Scenarios} *)

type t = {
  name : string;
  machine : Hw.Machines.t;
  seed : int;
  warmup_ns : int;
  measure_ns : int;
  cooldown_ns : int;  (** extra run time so in-flight requests complete *)
  enclaves : enclave_spec list;
  controller : controller option;
}

val make :
  ?seed:int ->
  ?warmup_ns:int ->
  ?cooldown_ns:int ->
  ?controller:controller ->
  machine:Hw.Machines.t ->
  measure_ns:int ->
  enclaves:enclave_spec list ->
  string ->
  t
(** Raises [Invalid_argument] with no enclaves or a negative window. *)

(** {1 Reports} *)

type latency = { p50_ns : int; p90_ns : int; p99_ns : int; p999_ns : int }

type enclave_report = {
  ename : string;
  policy : string;
  offered_qps : float option;  (** open-loop offered rate (final value) *)
  achieved_qps : float option;
  latency : latency option;
  batch_share : float option;
      (** batch CPU share of the enclave's worker CPUs over the window *)
  jobs_completed : int;
  jobs_total : int;
  finished_at : int option;
  stats_at_measure_start : (string * int) list;
  stats_at_measure_end : (string * int) list;
  destroy_reason : string option;
  all_cfs_at_destroy : bool option;
      (** [Some] only if the enclave died: were all managed threads back on
          CFS (or dead) at that instant? *)
  faults : Faults.Report.t;
}

type report = {
  scenario : string;
  seed : int;
  measure_ns : int;
  enclaves : enclave_report list;
}

val run : t -> report

(** {1 Phased execution (cluster harness)}

    {!run} in separable phases, so the cluster subsystem can build many
    machines' scenarios, advance their clocks in lockstep on per-machine
    event lanes, and take the measurement snapshots at the same virtual
    times {!run} would.  [start] performs the full setup in the canonical
    order; the caller then advances the kernel's engine to [warmup_ns], calls
    {!mark_measure_start}, advances to [warmup_ns + measure_ns], calls
    {!mark_measure_end}, runs the cooldown and calls {!finish}.  Running
    {!run} and this sequence produce identical reports. *)

type started

val start : ?engine:Sim.Engine.t -> t -> started
(** [engine] is the kernel's engine ({!Kernel.create}); a cluster passes
    the machine's lane. *)

val live_of : started -> live
val kernel_of : started -> Kernel.t
(** Harness-level escape hatch (the cluster drives each machine's engine
    directly); controllers still only ever see {!live}. *)

val enclave_handle : live_enclave -> Ghost.System.enclave
(** The underlying enclave, for harness-level task spawning (e.g. the
    cluster's serving pools). *)

val mark_measure_start : started -> unit
val mark_measure_end : started -> unit
val finish : started -> report

val enclave_report : report -> string -> enclave_report

val stat_delta : enclave_report -> string -> int option
(** [stats_at_measure_end - stats_at_measure_start] for one stat. *)

val smoke : unit -> (string * report) list
(** Every registered policy, instantiated by name, 1 ms of simulated time
    on a 4-CPU machine. *)
