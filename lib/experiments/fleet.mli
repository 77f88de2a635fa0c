(** Fleet capstone: fleet controller vs. static round-robin on a
    four-machine cluster where one machine is mostly claimed by a batch
    tenant.  Same seed, bit-identical offered traffic — the delta is
    purely the routing, and the controller should win on fleet p99. *)

type side = {
  label : string;
  served : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  slow_share : float;  (** fraction of served requests on the straggler *)
  rebalances : int;
}

type result = { dynamic : side; static_ : side }

val run : seed:int -> measure_ns:int -> result
(** 50 ms warmup, 120 kq/s offered against ~230 kq/s aggregate capacity:
    round-robin's quarter share oversubscribes the straggler's ~20 kq/s. *)

val print : result -> unit
