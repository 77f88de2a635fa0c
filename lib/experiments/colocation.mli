(** Multi-tenant colocation with dynamic enclave resizing.

    A shinjuku serving enclave and a search batch enclave partition one
    machine; the offered serving load surges mid-run.  The dynamic variant
    runs a load watcher that lends batch CPUs to the serving enclave while
    its runqueue backs up and returns them afterwards; the static variant
    keeps the initial partition.  Same seed, identical arrival process —
    the delta is purely the resizing. *)

type side = {
  label : string;
  achieved_kqps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  batch_share : float;  (** of the batch enclave's nominal worker CPUs *)
  moves : int;  (** CPUs lent serving-ward over the run *)
}

type result = { dynamic : side; static_ : side }

val run : seed:int -> warmup_ns:int -> measure_ns:int -> result
(** 60 kq/s low, 200 kq/s surge, which sits right at the static
    partition's capacity: the surge starts 100 ms into the measure and
    lasts 100 ms. *)

val print : result -> unit
