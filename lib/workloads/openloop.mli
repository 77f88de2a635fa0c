(** Open-loop request generator over a worker-thread pool.

    Models the RocksDB serving setup of §4.2: requests arrive in an open
    loop (Poisson) with service times drawn from a distribution; each
    request is handed to an idle worker thread, which is woken, runs the
    request's CPU time (preemptible by whatever scheduler manages it), and
    parks again.  When all workers are busy the request waits in a FIFO.
    End-to-end latency = completion - arrival, the quantity on Fig. 6's
    y-axis. *)

type t

val create :
  Kernel.t ->
  seed:int ->
  rate:float ->
  service:Sim.Dist.t ->
  nworkers:int ->
  spawn:(idx:int -> (unit -> Kernel.Task.action) -> Kernel.Task.t) ->
  t
(** [spawn] creates (and starts or registers) each worker thread from its
    behaviour — the caller decides the scheduling class (CFS vs ghOSt
    enclave), affinity and naming.  Raises [Invalid_argument] unless
    [rate] is finite and positive. *)

val start : t -> until:int -> unit
(** Generate arrivals from now until the given virtual time. *)

val set_record_after : t -> int -> unit
(** Ignore requests arriving before this time (warm-up). *)

val rate : t -> float

val set_rate : t -> float -> unit
(** Change the offered load mid-run (phased load experiments).  Takes
    effect from the next inter-arrival draw.  The rate must be finite and
    positive, as for {!create}. *)

val set_on_complete : t -> (now:int -> arrival:int -> unit) option -> unit
(** Extra per-completion callback (after warm-up filtering) — lets a harness
    bucket latencies by completion time, e.g. to plot the p99 spike around
    an injected fault. *)

val recorder : t -> Recorder.t
val offered : t -> int
(** Requests generated. *)

val workers : t -> Kernel.Task.t list
