(** Deterministic merge of N independent event lanes.

    The engine layer of the cluster subsystem: each simulated machine runs
    on its own {!Engine} (wheel + overflow heap), and the merge advances
    lanes in lowest-[(time, lane_id, seq)] order — bit-reproducible at a
    fixed seed, with no contention on a single global queue.  The merge
    picks the winning lane from a dense array of cached per-lane head
    times (lower bounds), not by peeking every lane's queue.  The winner
    fires events back-to-back, one bounded pop each, until its head
    reaches the runner-up lane's cached head or the earliest cross-lane
    post made meanwhile, so a scan costs N int reads per burst.

    The cached heads are refreshed at {!run_until} entry, lowered by
    {!post}, and rewritten for the drained lane at the end of its batch.
    A head cancelled from outside its lane's batch leaves its cache too
    low; the winner's pop then finds nothing, and the merge refreshes
    that lane and scans again.

    {b Merge invariant}: every lane clock stays [<=] the global fire time
    until {!run_until}'s final alignment pass, so cross-lane posts at
    [>= now] can never land in a destination lane's past.

    Cross-lane posts must go through {!post}/{!post_in}; same-lane posts
    may hit the lane's engine directly.  Posts made outside {!run_until}
    (setup code) may hit any engine directly. *)

type t

val create : ?on_lane_switch:(int -> unit) -> Engine.t array -> t
(** Merge the given engines (index = lane id).  All lane clocks should
    start equal (normally 0).  [on_lane_switch i] fires whenever the merge
    starts draining a different lane — the hook the cluster harness uses to
    scope trace output to machine [i].  Raises [Invalid_argument] on an
    empty array. *)

val lanes : t -> int
(** Number of lanes. *)

val engine : t -> int -> Engine.t
(** The lane's engine (for same-lane posting and inspection). *)

val now : t -> int
(** The global clock: inside a callback, the firing event's time;
    otherwise the time of the last event fired through the merge, or the
    last {!run_until} horizon if later. *)

val events_fired : t -> int
(** Events fired through {!run_until} since creation. *)

val post : t -> lane:int -> time:int -> (unit -> unit) -> Engine.handle
(** Cross-lane post: schedule [fn] at absolute [time] in [lane].  Must be
    used for any post made from one lane's callback into another lane —
    it lowers the destination's cached head and the current batch's
    limit.  Raises [Invalid_argument] if [time] is before {!now}. *)

val post_in : t -> lane:int -> delay:int -> (unit -> unit) -> Engine.handle
(** [post_in t ~lane ~delay fn] is [post] at [now t + delay]. *)

val run_until : t -> int -> unit
(** Fire every event across all lanes with timestamp [<= horizon] in
    lowest-[(time, lane_id, seq)] order, then align every lane clock (and
    the global clock) to [horizon]. *)
