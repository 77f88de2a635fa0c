(** Fig. 6: comparison to custom centralized schedulers (§4.2).

    A RocksDB-like dispersive workload (99.5% of requests 4 us, 0.5% 10 ms,
    30 us preemption timeslice) served on one socket of the Xeon E5 machine
    by three systems:

    - {b Shinjuku}: the original data plane (spinning dispatcher + 20
      spinning pinned workers; nothing else can use those CPUs);
    - {b ghOSt-Shinjuku}: the same policy as a ghOSt global agent over a
      200-thread worker pool (Shenango-style idle-cycle donation when a
      batch app is co-located);
    - {b CFS-Shinjuku}: the non-preemptive worker pool under CFS.

    [run ~with_batch:true] adds the co-located batch app of Fig. 6b/c and
    reports its CPU share. *)

type system = Shinjuku | Ghost_shinjuku | Cfs_shinjuku

type point = {
  system : system;
  offered_kqps : float;
  achieved_kqps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  batch_share : float;
}

val run :
  rates:float list ->
  with_batch:bool ->
  warmup_ns:int ->
  measure_ns:int ->
  seed:int ->
  point list

val run_ghost_faulted :
  measure_ns:int -> seed:int -> plan:Faults.Plan.t -> point * Faults.Report.t
(** One ghOSt-Shinjuku point with a fault plan armed against its enclave
    (replacement for [Upgrade] events is a fresh Shinjuku agent), at
    240 kq/s — just below saturation, where a disturbance shows — after a
    200 ms warmup. *)

val print : title:string -> point list -> unit

val rocksdb_service : Sim.Dist.t
(** 99.5% x 4 us GET+processing, 0.5% x 10 ms scans. *)

val default_rates : float list
