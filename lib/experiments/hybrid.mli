(** Hybrid P/E frame-time experiment: bit-identical 60 Hz frame + batch
    traffic on [Hw.Machines.hybrid_1s], scheduled by the class-blind
    fifo-percpu policy and by the hybrid-aware EDF policy.  The registry's
    [hybrid] verdict checks the offered-traffic identity across the two
    runs and the >= 2x frame-time p99 separation. *)

type row = {
  label : string;
  offered : int;
  offered_work : int;
  completed : int;
  frame_p50_us : float;
  frame_p99_us : float;
  miss_rate : float;  (** recorded frames past the 60 Hz deadline *)
  batch_completed : int;
}

val run : duration_ns:int -> seed:int -> row list
(** Two rows: fifo-percpu first, hybrid-edf second. *)

val print : row list -> unit
