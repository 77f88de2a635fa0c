(** MicroQuanta: Google's soft real-time scheduling class (§4.3).

    Each MicroQuanta task is guaranteed at most [mq_quanta] ns of CPU per
    [mq_period] ns (defaults 0.9 ms / 1 ms).  While it has budget it runs
    above CFS; when the budget is exhausted the task is throttled until the
    next period boundary — the "networking blackouts of up to 0.1 ms" the
    paper describes, and the tail-latency weakness ghOSt's Snap policy
    avoids. *)

type t

val create : Class_intf.env -> t
val cls : t -> Class_intf.cls
