(** Fig. 8: Google Search on a 256-CPU AMD Rome machine, CFS vs ghOSt
    (§4.4), plus the paper's ablations.

    Throughput (QPS) and p99 latency per query type (A, B, C) over the run,
    reported both as whole-run aggregates and per-second normalized series.
    The ghOSt policy is the centralized least-runtime-first scheduler with
    NUMA- and CCX-aware placement; ablations disable those optimizations
    (the paper credits them with 27% and 10% of throughput). *)

type mode = Cfs | Ghost of Policies.Search_policy.config

type result = {
  label : string;
  qps : (Workloads.Search.qtype * float) list;
  p99_us : (Workloads.Search.qtype * float) list;
  p50_us : (Workloads.Search.qtype * float) list;
  series : (Workloads.Search.qtype * (int * int * int) list) list;
      (** (second, completions, p99 ns) per window. *)
  ccx_moves : int;
}

val run : duration_ns:int -> warmup_ns:int -> seed:int -> mode -> result

val default_modes : unit -> (string * mode) list
(** cfs, ghost, ghost-no-ccx, ghost-no-numa. *)

val print_summary : result list -> unit
val print_series : result -> unit
