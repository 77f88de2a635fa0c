(** The discrete-event simulation engine.

    An engine owns a virtual clock (integer nanoseconds) and an event queue.
    Events fire in timestamp order; ties fire in posting order.  All
    simulation state changes happen inside event callbacks, making every run
    fully deterministic for a given seed. *)

type t
(** A simulation engine instance. *)

type handle = Eventq.handle
(** Handle on a posted event, usable with {!cancel}. *)

val create : unit -> t
(** A fresh engine with the clock at 0 and no pending events. *)

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
(** Number of live pending events. *)

val next_time : t -> int
(** Timestamp of the earliest live pending event, [max_int] when none.
    Allocation-free (unlike peeking through an [option]).  The cluster lane
    merge reads it only to refresh one lane's cached head time: at window
    entry, at the end of the lane's batch, and after a cancelled head left
    the cache stale. *)

val nil_handle : handle
(** Inert, permanently-cancelled handle; compare with [==].  Use it to
    initialise a [handle] slot for a timer that may not be armed, avoiding
    a [handle option] box on re-arm-heavy hot paths ({!cancel} on it is a
    no-op). *)

val events_fired : t -> int
(** Total events fired since creation (the numerator of the engine's
    events/sec throughput metric). *)

val run_until : t -> int -> unit
(** [run_until e t] fires all events with timestamp [<= t], then sets the
    clock to [t]. *)

val run : ?max_events:int -> t -> unit
(** Fire events until the queue drains (or [max_events] fired).  The clock
    ends at the last fired event's time. *)

val step : t -> bool
(** Fire the single earliest event.  [false] when the queue is empty. *)

val take_until : t -> int -> handle
(** [take_until e bound] removes the earliest live event if its time is
    [<= bound], advances the clock to that time and counts it as fired,
    then returns its handle: the caller runs the handle's [fn] next.  Returns
    {!nil_handle}, leaving the queue untouched, when no event is due by
    [bound].  One queue pass per event; the cluster lane merge drains on
    it so it can set its global clock before the callback runs. *)
