(** Simplified Completely Fair Scheduler.

    Implements the parts of CFS the paper's evaluation depends on: weighted
    vruntime fairness with the standard nice-to-weight table, wakeup
    placement preferring idle CPUs close in the cache hierarchy, wakeup
    preemption, timeslice enforcement via ticks, idle balance (work
    stealing), and millisecond-granularity periodic load balancing — the
    property that makes CFS react slowly compared to a spinning global agent
    (§4.4). *)

type t

(** A runqueue's order: vruntime by [Float.compare], then tid.  It is the
    order of polymorphic [compare] on [(vruntime, tid)]. *)
module TaskOrd : Set.OrderedType with type t = Task.t

val create : Class_intf.env -> t
(** Create and start the periodic load balancer. *)

val cls : t -> Class_intf.cls

val weight_of_nice : int -> int
(** The kernel's [sched_prio_to_weight] table; nice must be in [-20, 19]. *)

val sched_latency : int
(** Target scheduling period, ns (6 ms). *)

val min_granularity : int
(** Minimum timeslice, ns (0.75 ms). *)
