(** Log-bucketed latency histogram (HDR-histogram style).

    Records non-negative integer values (nanoseconds in this code base) into
    logarithmic buckets with 32 sub-buckets per power of two, giving a
    worst-case relative error of ~3% on percentile reads while using a few KB
    regardless of range.  Exact count, sum, min and max are kept on the
    side. *)

type t
(** A mutable histogram. *)

val create : unit -> t
(** A fresh, empty histogram. *)

val record : t -> int -> unit
(** [record h v] adds one sample.  Negative values are clamped to 0. *)

val count : t -> int
(** Total number of recorded samples. *)

val sum : t -> int
(** Exact sum of recorded samples. *)

val mean : t -> float
(** Mean of recorded samples; 0 when empty. *)

val max_value : t -> int
(** Largest recorded sample; 0 when empty. *)

val percentile : t -> float -> int
(** [percentile h p] with [p] in [\[0, 100\]]: smallest bucket-representative
    value [v] such that at least [p]% of samples are [<= v].  0 when empty. *)

val reset : t -> unit
(** Forget all samples. *)
