(** Deterministic interleaving of N event lanes on one shared queue.

    The engine layer of the cluster subsystem: each simulated machine runs
    on its own lane, an {!Engine.lane} view of one event queue, which pops
    in lowest [(time, lane_id, per-lane push order)] — bit-reproducible at
    a fixed seed, and the order N per-lane queues merged by lane id would
    fire.  The loop pops the queue, stamps the firing lane's clock, and
    runs the event.  A view shares the queue (so {!Engine.next_time} and
    {!Engine.pending} see every lane) but not the clock, so only this loop
    may drive the queue.

    {b Merge invariant}: no lane clock is ever ahead of the global fire
    time, so cross-lane posts at [>= now] can never land in a destination
    lane's past.  Cross-lane posts must go through {!post}/{!post_in};
    same-lane posts may hit the lane's engine directly.  Posts made
    outside {!run_until} (setup code) may hit any engine directly. *)

type t

val create : ?on_lane_switch:(int -> unit) -> int -> t
(** [create n]: a queue and its [n] lanes, every clock at 0.
    [on_lane_switch i] fires whenever the next event to run is on a
    different lane than the last one — the hook the cluster harness uses
    to scope trace output to machine [i].  Raises [Invalid_argument] if
    [n < 1]. *)

val lanes : t -> int
(** Number of lanes. *)

val engine : t -> int -> Engine.t
(** Lane [i]'s engine (for same-lane posting, setup and inspection). *)

val now : t -> int
(** The global clock: inside a callback, the firing event's time;
    otherwise the time of the last event fired, or the last {!run_until}
    horizon if later. *)

val events_fired : t -> int
(** Events fired through {!run_until} since creation. *)

val post : t -> lane:int -> time:int -> (unit -> unit) -> Engine.handle
(** Cross-lane post: schedule [fn] at absolute [time] in [lane].  Must be
    used for any post from one lane's callback into another lane, whose
    own clock may be stale.  Raises [Invalid_argument] if [time] is
    before {!now}. *)

val post_in : t -> lane:int -> delay:int -> (unit -> unit) -> Engine.handle
(** [post_in t ~lane ~delay fn] is [post] at [now t + delay]. *)

val run_until : t -> int -> unit
(** Fire every event across all lanes with timestamp [<= horizon] in
    lowest-[(time, lane_id, seq)] order, then move every lane clock (and
    the global clock) up to [horizon]. *)
