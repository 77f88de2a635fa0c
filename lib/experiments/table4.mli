(** Table 4: secure VM core scheduling (§4.5).

    32 vCPUs (8 VMs x 4) of compute-bound bwaves-like work on 25 physical
    cores / 50 CPUs, under three policies: plain CFS (fast but no
    protection), in-kernel core scheduling (cookie-filtered CFS), and the
    ghOSt secure-VM policy (atomic per-core group commits).  Reported like
    the paper: a throughput rate (higher is better) and total time (lower
    is better).  Core scheduling should cost ~5% vs CFS, with ghOSt close
    to the in-kernel implementation.  The ghOSt run also checks the
    security invariant: sibling hyperthreads never run different VMs. *)

type row = {
  label : string;
  rate : float;  (** Aggregate work/s (the SPEC-rate analogue). *)
  total_s : float;  (** Makespan in (virtual) seconds. *)
  violations : int;  (** Cross-VM SMT co-residency samples observed. *)
}

val run : work_ns:int -> seed:int -> row list
(** [work_ns] is per-vCPU work. *)

val print : row list -> unit
