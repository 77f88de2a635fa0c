(* Deterministic interleaving of N event lanes on one shared queue.

   Every lane is an {!Engine.lane} view of one queue, and posts carry the
   lane id above the push count in their sequence numbers, so the queue
   itself pops in lowest [(time, lane_id, per-lane push order)]: the order
   a merge of N per-lane queues by lane id fires, with nothing to merge.
   A same-time cross-post into a lower lane sorts ahead of the posting
   lane's undrained events at that time.

   The loop stamps the firing lane's clock and the global clock before
   each callback.  {b Merge invariant}: no lane clock is ever ahead of the
   global fire time, so a cross-lane post at a time [>= now t] never lands
   in a lane's past.  Cross-lane posts MUST go through {!post}/{!post_in}:
   the destination's own clock may be stale, so only the global clock can
   check them.  Same-lane posts may use the lane's engine directly. *)

type t = {
  views : Engine.t array;  (* views.(i) is lane i; views.(0) created the queue *)
  mutable now : int;  (* time of the event firing or last fired *)
  mutable fired : int;  (* events fired through the loop *)
  mutable current : int;  (* lane of the last event fired; -1 before the first *)
  on_lane_switch : int -> unit;
}

let create ?(on_lane_switch = ignore) n =
  if n <= 0 then invalid_arg "Lanes.create: no lanes";
  let root = Engine.create () in
  {
    views = Array.init n (fun i -> if i = 0 then root else Engine.lane root i);
    now = 0;
    fired = 0;
    current = -1;
    on_lane_switch;
  }

let lanes t = Array.length t.views
let engine t i = t.views.(i)
let now t = t.now
let events_fired t = t.fired

let post t ~lane ~time fn =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Lanes.post: time %d is before global now %d" time t.now);
  Engine.post t.views.(lane) ~time fn

let post_in t ~lane ~delay fn =
  if delay < 0 then invalid_arg "Lanes.post_in: negative delay";
  post t ~lane ~time:(t.now + delay) fn

let rec drain t horizon =
  let c = Engine.pop_until t.views.(0) horizon in
  if c != Engine.nil_handle then begin
    let i = Eventq.lane_of c in
    Engine.stamp t.views.(i) c;
    t.now <- c.Heapq.time;
    t.fired <- t.fired + 1;
    if i <> t.current then begin
      t.current <- i;
      t.on_lane_switch i
    end;
    c.Heapq.fn ();
    drain t horizon
  end

let run_until t horizon =
  drain t horizon;
  (* Nothing is left at or before [horizon]: only clocks move. *)
  Array.iter (fun v -> Engine.advance v horizon) t.views;
  if horizon > t.now then t.now <- horizon
