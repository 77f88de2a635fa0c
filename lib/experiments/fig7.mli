(** Fig. 7: Google Snap tail latencies, MicroQuanta vs ghOSt (§4.3).

    Round-trip percentiles for 64 B and 64 kB message flows served by Snap
    worker threads, scheduled either by the MicroQuanta soft-real-time class
    (0.9 ms quanta / 1 ms period, with its blackout windows) or by the ghOSt
    centralized Snap policy (strict priority of workers over antagonists,
    relocation instead of blackouts).  Quiet mode runs only the networking
    load plus periodic daemons; loaded mode adds 40 antagonist threads. *)

type sched = Microquanta | Ghost_snap

type row = {
  sched : sched;
  size : Workloads.Snapnet.size;
  percentiles : (float * int) list;  (** (pct, latency ns) *)
}

val run : loaded:bool -> duration_ns:int -> warmup_ns:int -> seed:int -> row list

val print : title:string -> row list -> unit
