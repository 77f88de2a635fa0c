(** Cancellable priority queue of timed events.

    A two-tier scheduler clock: a hierarchical timer wheel ({!Wheel}) for the
    dense short-horizon traffic, with the seed binary heap ({!Heapq}) as an
    overflow tier for far-future (or past-posted) events.  Pop order is the
    exact [(time, sequence)] order of a single global heap — the sequence
    number makes same-time events fire in insertion order, which the whole
    simulator relies on for reproducibility.  Cancellation is lazy with
    automatic compaction once cancelled cells outnumber live ones. *)

type t
(** The event queue. *)

type handle = Heapq.cell
(** A handle on a scheduled event, usable to cancel it. *)

val nil_handle : handle
(** {!Heapq.nil}: an inert, pre-cancelled handle (compare with [==]).
    Initialise re-armed timer slots with it instead of [None] so arming
    does not box a [Some] per event. *)

val create : unit -> t
(** A fresh, empty queue. *)

val is_empty : t -> bool
(** [is_empty q] is true iff no live (non-cancelled) event remains. *)

val live_count : t -> int
(** Number of scheduled events that have not been cancelled. *)

val push : t -> time:int -> (unit -> unit) -> handle
(** [push q ~time fn] schedules [fn] to fire at [time]. *)

val lane_shift : int
(** 40: a sequence number's low bits count pushes, the bits above hold a
    lane id from [0] to {!max_lane} ([2^22 - 1]). *)

val max_lane : int

val push_tagged : t -> tag:int -> time:int -> (unit -> unit) -> handle
(** {!push} with sequence number [tag lor n], [n] the queue's push count,
    [tag] a lane id shifted by {!lane_shift}: same-time events pop in
    lowest (lane, push order).  Raises [Failure] rather than let [n] reach
    the lane bits. *)

val lane_of : handle -> int
(** The lane id a cell was pushed with ([0] for {!push}). *)

val cancel : t -> handle -> unit
(** Cancel the event; a no-op if it already fired or was cancelled. *)

val is_cancelled : handle -> bool
(** Whether [cancel] was called on this handle. *)

val pop_cell_until : t -> horizon:int -> Heapq.cell
(** Remove and return the earliest live event's cell, marked as fired, if
    its time is at most [horizon]; otherwise leave the queue untouched and
    return {!Heapq.nil} (compare with [==]).  The allocation-free pop the
    engine and lane loops run on ({!Engine.pop_until}): read [time]/[fn]
    straight off the cell.  While the overflow heap holds no live event it
    is a single {!Wheel.pop_until}. *)

val pop_cell : t -> Heapq.cell
(** {!pop_cell_until} with no horizon: {!Heapq.nil} only when empty. *)

val pop : t -> (int * (unit -> unit)) option
(** Remove and return the earliest live event as [(time, fn)], skipping
    cancelled entries.  [None] when the queue has no live event.
    Allocates; prefer {!pop_cell} on hot paths. *)

val peek_time : t -> int option
(** Timestamp of the earliest live event without removing it. *)

val next_time : t -> int
(** {!peek_time} without the [option]: [max_int] when no live event remains.
    Allocation-free — behind {!Engine.next_time}. *)
