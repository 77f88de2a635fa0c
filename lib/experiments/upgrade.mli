(** Fig. 9-style in-place agent upgrade under load (§3.4).

    A Shinjuku-policy global agent serves an open-loop load; mid-run the
    agent is stopped and a replacement attaches after a configurable handoff
    gap, rebuilding its runqueue from [managed_threads].  We plot windowed
    p99 latency against an undisturbed run of the same seed: the paper's
    claim is a bounded, barely perceptible spike — latency returns to the
    undisturbed level once the replacement has caught up.

    The same harness runs {e any} fault plan against the serving stack
    ([?plan]), which is what `ghost_bench_cli faults upgrade --plan ...`
    uses; the windows are read around the plan's first event. *)

type window = {
  w_start : int;  (** Window start, absolute sim ns. *)
  completions : int;
  p99 : int;  (** p99 end-to-end latency of completions in the window, ns. *)
}

type result = {
  upgrade_at : int;  (** The plan's first event, absolute sim ns. *)
  window_ns : int;
  baseline : window list;  (** Undisturbed run (armed with the empty plan). *)
  faulted : window list;
  report : Faults.Report.t;
  baseline_p99_us : float;  (** Whole-measure p99 of the undisturbed run. *)
  spike_p99_us : float;  (** Peak windowed p99 after the fault. *)
  spike_width_ms : float;
      (** Fault time → first window back within 10% of the undisturbed
          run's same-window p99 (measure-end if never). *)
  degraded : int;
      (** Faulted-run completions in the spike window above the undisturbed
          run's whole-run p99. *)
  recovered_ratio : float;
      (** Post-recovery p99 / undisturbed same-interval p99. *)
  recovered : bool;  (** [recovered_ratio <= 1.10] and {!attached}. *)
}

val attached : Faults.Report.t -> bool
(** A replacement agent attached and the enclave was not destroyed. *)

val run : ?plan:Faults.Plan.t -> seed:int -> measure_ns:int -> unit -> result
(** 400 kq/s exponential 10 us service on 8 worker CPUs, a 50 ms warm-up,
    10 ms windows.  The default plan upgrades the agent with a 100 us gap
    a third of the way into the measure.  Raises [Invalid_argument] before
    simulating anything if the plan's first event falls outside the
    measured window, or the plan has none. *)

val print : result -> unit

(** {1 Rejected upgrade}

    The same handoff, but the replacement policy claims an ABI version the
    runtime doesn't speak ({!Ghost.Abi.version} + 1).  Attachment must raise
    {!Ghost.Abi.Version_mismatch}, leaving the enclave agent-less so the
    grace period demotes its threads to CFS — a failed upgrade degrades to
    the agent-crash story instead of running a protocol-incompatible
    agent. *)

type rejected = {
  rej_report : Faults.Report.t;
  rej_abi : int;  (** The (unsupported) ABI version the replacement claimed. *)
  rejected_ok : bool;
      (** Attach refused, no replacement recorded, enclave destroyed with
          reason [agent-crash]. *)
}

val run_rejected : seed:int -> measure_ns:int -> upgrade_offset:int -> rejected
(** 400 kq/s, a 50 ms warm-up, the upgrade [upgrade_offset] into the
    measure with a 100 us gap. *)

val print_rejected : rejected -> unit
