(** Tick-less scheduling for guest workloads (§5).

    A VM's vCPUs pay a VM-exit on every host timer tick.  With a spinning
    global agent the ticks carry no information — the agent preempts and
    rebalances on its own — so ghOSt can disable them on managed CPUs.
    This experiment serves a µs-scale guest workload and reports the jitter
    the ticks inject, with CFS (which cannot disable ticks under load, as
    NO_HZ_FULL requires a single runnable thread) alongside. *)

type row = {
  label : string;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  throughput_kqps : float;
}

val run : duration_ns:int -> seed:int -> row list
(** Each host timer tick costs the guest a 5 us VM exit. *)

val print : row list -> unit
