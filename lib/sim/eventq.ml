(* Cancellable priority queue of timed events: a two-tier scheduler clock.

   The dense short-horizon traffic (per-CPU ticks, quantum expiry, message
   and IPI delivery — almost everything a simulation posts lands within a
   few tick periods of now) goes to a hierarchical timer {!Wheel} with O(1)
   amortized push/cancel/pop.  Far-future events — and, for standalone
   users, events posted before the wheel's base — overflow into the seed
   binary {!Heapq}.  A cell never migrates between tiers; its [in_heap]
   flag routes cancellation bookkeeping.

   Pop order is exact (time, seq): both tiers order cells identically, and
   while the heap holds a live cell the pop compares the two heads, so the
   merge is bit-identical to a single global heap.  Fired cells are marked
   cancelled (as the seed implementation did) so a handle kept after its
   event ran is inert.

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

(* Remove and return the earliest live cell marked as fired, or
   {!Heapq.nil}, leaving the queue untouched, when none is due by
   [horizon].  Sentinel-based: the path allocates nothing.  With no live
   cell in the overflow heap, the common case, it is one wheel call; only
   otherwise are the two tiers' heads compared. *)
let pop_cell_until q ~horizon =
  if Heapq.live_count q.heap = 0 then Wheel.pop_until q.wheel horizon
  else begin
    let h = Heapq.peek_live_cell q.heap in
    let w = Wheel.peek_cell q.wheel in
    if w != Heapq.nil && Heapq.earlier w h then Wheel.pop_until q.wheel horizon
    else if h.Heapq.time > horizon then Heapq.nil
    else begin
      ignore (Heapq.pop_live_cell q.heap);
      (* Keep the wheel's base near the clock so short-delay pushes file at
         level 0; safe because this cell was the global minimum. *)
      Wheel.advance q.wheel h.Heapq.time;
      Heapq.set_cancelled h;
      h
    end
  end

let pop_cell q = pop_cell_until q ~horizon:max_int

let pop q =
  let c = pop_cell q in
  if c == Heapq.nil then None else Some (c.Heapq.time, c.Heapq.fn)

(* Time of the earliest live event, [max_int] when none; allocates
   nothing. *)
let next_time q =
  let w = Wheel.peek_cell q.wheel in
  let h = Heapq.peek_live_cell q.heap in
  if w == Heapq.nil then (if h == Heapq.nil then max_int else h.Heapq.time)
  else if h == Heapq.nil || Heapq.earlier w h then w.Heapq.time
  else h.Heapq.time

let peek_time q = if is_empty q then None else Some (next_time q)
