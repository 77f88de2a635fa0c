(* Cancellable priority queue of timed events: a two-tier scheduler clock.

   The dense short-horizon traffic (per-CPU ticks, quantum expiry, message
   and IPI delivery — almost everything a simulation posts lands within a
   few tick periods of now) goes to a hierarchical timer {!Wheel} with O(1)
   amortized push/cancel/pop.  Far-future events — and, for standalone
   users, events posted before the wheel's base — overflow into the seed
   binary {!Heapq}.  A cell never migrates between tiers; its [in_heap]
   flag routes cancellation bookkeeping.

   Pop order is exact (time, seq): both tiers order cells identically, and
   the pop path compares their heads, so the merge is bit-identical to a
   single global heap.  Fired cells are marked cancelled (as the seed
   implementation did) so a handle kept after its event ran is inert.

   Sequence numbers are lane-major, [lane lsl lane_shift lor push count],
   so one queue carries several {!Engine} lanes in the order separate
   per-lane queues merged by lane id would fire them. *)

type handle = Heapq.cell

let nil_handle : handle = Heapq.nil

type t = {
  wheel : Wheel.t;
  heap : Heapq.t;
  mutable next_seq : int;
}

let create () = { wheel = Wheel.create (); heap = Heapq.create (); next_seq = 0 }

let live_count q = Wheel.live q.wheel + Heapq.live_count q.heap
let is_empty q = live_count q = 0

let lane_shift = 40
let max_lane = max_int lsr lane_shift
let lane_of (cell : handle) = cell.Heapq.seq lsr lane_shift

let push_tagged q ~tag ~time fn =
  let n = q.next_seq in
  if n lsr lane_shift <> 0 then
    failwith "Eventq.push: the push counter would spill into the lane bits";
  let cell = { Heapq.time; seq = tag lor n; fn; flags = 0 } in
  q.next_seq <- n + 1;
  if Wheel.accepts q.wheel ~time then Wheel.add q.wheel cell
  else begin
    Heapq.set_in_heap cell;
    Heapq.add q.heap cell
  end;
  cell

let push q ~time fn = push_tagged q ~tag:0 ~time fn

let cancel q (cell : handle) =
  if not (Heapq.cancelled cell) then begin
    Heapq.set_cancelled cell;
    if Heapq.in_heap cell then Heapq.note_cancel q.heap
    else Wheel.note_cancel q.wheel
  end

let is_cancelled (cell : handle) = Heapq.cancelled cell

(* Remove and return the earliest live cell marked as fired ({!Heapq.nil}
   when empty).  Sentinel-based: the whole path — two tier peeks, the merge
   compare, the removal — allocates nothing, where the [option] API below
   pays a [Some (time, fn)] per event. *)
let pop_cell q =
  let w = Wheel.peek_cell q.wheel in
  let h = Heapq.peek_live_cell q.heap in
  if w != Heapq.nil && (h == Heapq.nil || Heapq.earlier w h) then begin
    Wheel.take_peeked q.wheel;
    Heapq.set_cancelled w;
    w
  end
  else if h != Heapq.nil then begin
    let cell = Heapq.pop_live_cell q.heap in
    (* Keep the wheel's base near the clock so short-delay pushes file at
       level 0; safe because this cell was the global minimum. *)
    Wheel.advance q.wheel cell.Heapq.time;
    Heapq.set_cancelled cell;
    cell
  end
  else Heapq.nil

(* [pop_cell] that leaves the queue untouched (and returns {!Heapq.nil})
   when the earliest live event is after [horizon] — one peek pass serves
   both the "anything left before the horizon?" test and the pop, where
   [peek_time]-then-[pop] would normalise the wheel twice per event. *)
let pop_cell_until q ~horizon =
  let w = Wheel.peek_cell q.wheel in
  let h = Heapq.peek_live_cell q.heap in
  if w != Heapq.nil && (h == Heapq.nil || Heapq.earlier w h) then
    if w.Heapq.time > horizon then Heapq.nil
    else begin
      Wheel.take_peeked q.wheel;
      Heapq.set_cancelled w;
      w
    end
  else if h != Heapq.nil && h.Heapq.time <= horizon then begin
    let cell = Heapq.pop_live_cell q.heap in
    Wheel.advance q.wheel cell.Heapq.time;
    Heapq.set_cancelled cell;
    cell
  end
  else Heapq.nil

let pop q =
  let c = pop_cell q in
  if c == Heapq.nil then None else Some (c.Heapq.time, c.Heapq.fn)

let peek_time q =
  let w = Wheel.peek_cell q.wheel in
  let h = Heapq.peek_live_cell q.heap in
  if w == Heapq.nil then (if h == Heapq.nil then None else Some h.Heapq.time)
  else if h == Heapq.nil || Heapq.earlier w h then Some w.Heapq.time
  else Some h.Heapq.time

(* [peek_time] without the [option]: [max_int] when empty, without
   allocating. *)
let next_time q =
  let w = Wheel.peek_cell q.wheel in
  let h = Heapq.peek_live_cell q.heap in
  if w == Heapq.nil then (if h == Heapq.nil then max_int else h.Heapq.time)
  else if h == Heapq.nil || Heapq.earlier w h then w.Heapq.time
  else h.Heapq.time
