(* Deterministic merge of N independent event lanes.

   Each lane is a full {!Engine} — its own clock, wheel and overflow heap —
   so per-machine simulation never contends on one global queue.  The merge
   advances whichever lane holds the globally earliest event, ordering
   events by lowest [(time, lane_id, seq)]: ties in time fire the lowest
   lane first, and within a lane the engine's own [(time, seq)] order
   applies.  At a fixed seed the interleaving is bit-reproducible.

   Three facts make the merge cheap and correct:

   - {b Merge invariant}: every lane clock is always [<=] the global fire
     time, so a cross-lane post at a time [>= now t] can never land in a
     destination lane's past ([Engine.post] would raise).  The global clock
     is set to an event's time before its callback runs; lane clocks only
     catch up to the window edge in {!run_until}'s final alignment pass.

   - {b Cached heads}: [heads.(i)] is a lower bound on lane [i]'s earliest
     event time, so picking the winner reads one dense int array instead
     of peeking N queues.  Every bound is refreshed at {!run_until} entry
     (setup code posts straight into engines), {!post} lowers its
     destination's bound, and the drained lane's bound is rewritten once at
     the end of its batch.  Only a head cancelled from outside its own
     batch leaves a bound stale-low; the winner's bounded pop then finds
     nothing, and the merge refreshes that one lane and scans again.

   - {b Batching}: the winning lane [i] fires events back-to-back, one
     bounded pop each, while its head stays strictly below both the
     runner-up bound across the other lanes and the earliest cross-post
     made since the scan: [limit] is [min horizon (runner - 1)], lowered to
     [time - 1] by each {!post}.  Strictly: on any tie the merge rescans,
     and the scan resolves it to the lowest lane id.  Cross-lane posts MUST
     go through {!post}/{!post_in} (which maintain both bounds); same-lane
     posts may use the lane's engine directly, since the draining lane's
     own pops see them. *)

type t = {
  engines : Engine.t array;
  heads : int array;  (* lower bound on each lane's earliest event time *)
  mutable now : int;  (* time of the event firing or last fired *)
  mutable limit : int;  (* latest time the draining lane may still fire *)
  mutable fired : int;  (* events fired through the merge *)
  mutable current : int;  (* lane currently draining; -1 before the first *)
  on_lane_switch : int -> unit;
}

let create ?(on_lane_switch = ignore) engines =
  if Array.length engines = 0 then invalid_arg "Lanes.create: no lanes";
  {
    engines;
    heads = Array.map Engine.next_time engines;
    now = 0;
    limit = max_int;
    fired = 0;
    current = -1;
    on_lane_switch;
  }

let lanes t = Array.length t.engines
let engine t i = t.engines.(i)
let now t = t.now
let events_fired t = t.fired

let post t ~lane ~time fn =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Lanes.post: time %d is before global now %d" time t.now);
  if time < t.heads.(lane) then t.heads.(lane) <- time;
  if time <= t.limit then t.limit <- time - 1;
  Engine.post t.engines.(lane) ~time fn

let post_in t ~lane ~delay fn =
  if delay < 0 then invalid_arg "Lanes.post_in: negative delay";
  post t ~lane ~time:(t.now + delay) fn

(* Fire lane [i]'s earliest event if it is due by [bound]. *)
let fire t i bound =
  let c = Engine.take_until t.engines.(i) bound in
  if c == Engine.nil_handle then false
  else begin
    t.now <- c.Heapq.time;
    t.fired <- t.fired + 1;
    if i <> t.current then begin
      t.current <- i;
      t.on_lane_switch i
    end;
    c.Heapq.fn ();
    true
  end

(* One batch: pick the lane with the lowest cached head, fire its run,
   return false when no event remains at or before [horizon]. *)
let batch t ~horizon =
  let heads = t.heads in
  let best = ref (-1) and best_t = ref max_int and runner = ref max_int in
  for i = 0 to Array.length heads - 1 do
    let h = heads.(i) in
    if h < !best_t then begin
      runner := !best_t;
      best_t := h;
      best := i
    end
    else if h < !runner then runner := h
  done;
  if !best < 0 || !best_t > horizon then false
  else begin
    let i = !best in
    t.limit <- Int.min horizon (!runner - 1);
    (* Every other lane's head is [>= runner], so any head up to [limit] is
       the global minimum; on a tie ([limit < best_t]) only a live head at
       exactly [best_t] is.  A miss means a cancelled head left the bound
       stale: the rewrite below corrects it and the caller rescans. *)
    if fire t i (Int.max !best_t t.limit) then
      while fire t i t.limit do
        ()
      done;
    heads.(i) <- Engine.next_time t.engines.(i);
    true
  end

let run_until t horizon =
  Array.iteri (fun i e -> t.heads.(i) <- Engine.next_time e) t.engines;
  while batch t ~horizon do
    ()
  done;
  (* End-of-window alignment: every queue is drained past [horizon], so
     this only advances clocks, preserving the merge invariant for the
     next window. *)
  Array.iter (fun e -> Engine.run_until e horizon) t.engines;
  if horizon > t.now then t.now <- horizon
