(** Load-step evaluation of the self-tuning [adaptive] policy.

    One serving enclave runs latency-critical RocksDB-style workers plus
    batch threads under the adaptive policy while the offered load steps
    low - surge - low.  The identical arrival process is replayed against
    the frozen-knob variant ([adaptive?frozen=true]); the delta is purely
    the feedback controller retuning timeslice and idle-CPU donation from
    its own Obs metrics. *)

type side = {
  label : string;
  achieved_kqps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  tightens : int;  (** controller moves toward tight knobs *)
  relaxes : int;  (** controller moves back toward relaxed knobs *)
  final_slice_us : float;  (** effective LC timeslice at measure end *)
}

type result = { adaptive : side; static_ : side }

val run : seed:int -> warmup_ns:int -> measure_ns:int -> result
(** 60 kq/s low, 200 kq/s surge: the surge starts 100 ms into the measure
    and lasts 100 ms. *)

val print : result -> unit
