(** §3.4 resilience: agent failure under load must not strand threads.

    A centralized FIFO agent schedules a batch of finite jobs; mid-run the
    agent either crashes outright or goes stuck (scheduling passes stop
    draining messages).  The paper's claim: the kernel notices — grace
    period for a crash, watchdog for a stuck agent — destroys the enclave,
    and every in-flight thread falls back to CFS and completes.  No wedged
    machine, no lost work. *)

type scenario =
  | Crash  (** Agent process dies; no replacement attaches. *)
  | Stuck  (** Agent spins without scheduling; the watchdog must fire. *)

type result = {
  scenario : scenario;
  report : Faults.Report.t;
  destroy_reason : string option;
  all_cfs_at_destroy : bool;
      (** Every live job was already back under CFS when the destroy
          callbacks ran. *)
  completed : int;
  total_jobs : int;
  all_completed : bool;
  finished_at : int option;  (** Sim time the last job completed. *)
}

val run : ?plan:Faults.Plan.t -> seed:int -> scenario:scenario -> unit -> result
(** 8 jobs of 20 ms CPU each on a 4-CPU enclave, watchdog timeout 10 ms;
    the scenario's own plan injects its fault 20 ms in.  [plan] replaces
    that plan (the harness behind [ghost_bench_cli faults resilience
    --plan ...]). *)

val print : result -> unit
