(** The discrete-event simulation engine.

    An engine owns a virtual clock (integer nanoseconds) and a view of an
    event queue.  Events fire in timestamp order; ties fire in posting
    order.  All simulation state changes happen inside event callbacks,
    making every run fully deterministic for a given seed.

    Engines made by {!lane} share one queue, which pops in lowest (time,
    lane, push order).  A view shares the queue — {!next_time} and
    {!pending} see every lane — but not the clock.  Only the lane loop
    ({!Lanes}) may drive a shared queue: {!run_until} on one view would
    fire the other lanes' events without stamping their clocks. *)

type t
(** A simulation engine instance. *)

type handle = Eventq.handle
(** Handle on a posted event, usable with {!cancel}. *)

val create : unit -> t
(** A fresh engine with the clock at 0 and no pending events: lane 0 of a
    queue of its own. *)

val lane : t -> int -> t
(** [lane root i] is lane [i]'s view of [root]'s queue, its clock starting
    at [now root].  Its posts carry [i] above the push count in their
    sequence numbers ({!Eventq.push_tagged}).  Raises [Invalid_argument] if
    [i] is negative or above {!Eventq.max_lane}. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val post : t -> time:int -> (unit -> unit) -> handle
(** [post e ~time fn] schedules [fn] at absolute [time].  Posting in the
    past is a programming error and raises [Invalid_argument]. *)

val post_in : t -> delay:int -> (unit -> unit) -> handle
(** [post_in e ~delay fn] schedules [fn] at [now e + delay].  Negative
    delays raise [Invalid_argument]. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; no-op if it already fired. *)

val pending : t -> int
(** Number of live pending events in the queue, on every lane. *)

val next_time : t -> int
(** Timestamp of the earliest live pending event in the queue, on every
    lane; [max_int] when none.  Allocation-free. *)

val nil_handle : handle
(** Inert, permanently-cancelled handle; compare with [==].  Use it to
    initialise a [handle] slot for a timer that may not be armed, avoiding
    a [handle option] box on re-arm-heavy hot paths ({!cancel} on it is a
    no-op). *)

val events_fired : t -> int
(** Events fired on this view since creation (the numerator of the
    engine's events/sec throughput metric). *)

val run_until : t -> int -> unit
(** [run_until e t] fires all events with timestamp [<= t], then sets the
    clock to [t]. *)

val run : t -> unit
(** Fire events until the queue drains.  The clock ends at the last fired
    event's time. *)

val step : t -> bool
(** Fire the single earliest event.  [false] when the queue is empty. *)

(** {2 Lane loop} What {!Lanes} drives a shared queue with. *)

val pop_until : t -> int -> handle
(** [pop_until e bound] removes the earliest live event of [e]'s queue,
    whichever lane posted it, if its time is [<= bound]; {!nil_handle},
    leaving the queue untouched, when none is due.  No clock moves: the
    caller {!stamp}s the owning lane ({!Eventq.lane_of}), then runs [fn]. *)

val stamp : t -> handle -> unit
(** Set the clock to the event's time and count it as fired. *)

val advance : t -> int -> unit
(** Move the clock forward to the given time (no-op backwards). *)
