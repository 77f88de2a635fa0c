(** One machine of the fleet: a started {!Scenario} plus an optional
    serving pool that executes the requests the balancer routes here. *)

type request = { arrival : int; service_ns : int }
(** A routed request: [arrival] is its emission time at the balancer, so
    recorded latency includes the dispatch RPC and machine-side queueing. *)

type serve = { enclave : string; nworkers : int }
(** Pool placement: which enclave (by scenario name) serves, with how many
    worker threads. *)

type t = {
  mid : int;
  started : Scenario.started;
  kernel : Kernel.t;
  mutable pool : request Workloads.Pool.t option;
  recorder : Workloads.Recorder.t;
  mutable served : int;
}

val create :
  engine:Sim.Engine.t ->
  mid:int ->
  warmup_ns:int ->
  horizon_ns:int ->
  fleet:Workloads.Recorder.t ->
  serve:serve option ->
  Scenario.t ->
  t
(** Start the machine's scenario on [engine], its lane of the cluster's
    queue, and, when [serve] is given, its pool.
    Requests arriving within [warmup_ns, horizon_ns) are recorded both
    per-machine and into [fleet]. *)

val engine : t -> Sim.Engine.t
(** The machine's lane. *)

val submit : t -> request -> unit

val depth : t -> int
(** Outstanding requests (queued + in service) — the gossiped signal. *)

val p : t -> float -> int
(** Request-latency percentile in ns; 0 when nothing was recorded. *)
