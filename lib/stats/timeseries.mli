(** Windowed time-series collector.

    Buckets samples into fixed-width windows of virtual time; each window
    keeps a full {!Histogram.t} plus an event counter, which is what the
    Search experiment (Fig. 8) needs: per-second QPS and per-second p99. *)

type t

val create : window:int -> t
(** [create ~window] buckets by [window] nanoseconds. *)

val record : t -> time:int -> int -> unit
(** Add a latency sample at virtual [time]. *)

val incr : t -> time:int -> unit
(** Count an event at virtual [time] without a latency sample. *)

val windows : t -> (int * int * Histogram.t) list
(** [(window_start, event_count, histogram)] for each non-empty window, in
    time order.  [event_count] includes both [record] and [incr] events. *)
