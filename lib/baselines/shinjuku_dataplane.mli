(** The original Shinjuku system (NSDI '19), as compared against in §4.2.

    A specialized data plane: one spinning dispatcher thread on a dedicated
    physical core and N spinning worker threads pinned to N hyperthreads.
    Requests live in a central FIFO; the dispatcher hands them to idle
    workers (a cache-line ping, sub-microsecond) and preempts workers at a
    30 us quantum using Dune's posted interrupts (cheap, ~2 us).  The
    spinning threads own their CPUs outright — nothing else can run there
    (Fig. 6c) — and requests are migrated between workers without kernel
    scheduling, which is why its overhead per request is lower than
    ghOSt's.  Implemented directly on the event engine: there is no kernel
    in this system by construction. *)

type t

val create :
  Sim.Engine.t ->
  seed:int ->
  nworkers:int ->
  ?timeslice:int ->
  unit ->
  t
(** [timeslice] defaults to 30 us.  A dispatch costs 600 ns and a
    preemption 2 us. *)

val start : t -> rate:float -> service:Sim.Dist.t -> until:int -> unit
val set_record_after : t -> int -> unit
val recorder : t -> Workloads.Recorder.t
val offered : t -> int
val cpus_occupied : t -> int
(** CPUs the data plane spins on (workers + dispatcher core). *)
