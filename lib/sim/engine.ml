type handle = Eventq.handle

(* A lane's view of a queue: [tag] is its lane id shifted above the push
   count ({!Eventq.push_tagged}); a standalone engine is lane 0. *)
type t = { mutable clock : int; events : Eventq.t; tag : int; mutable fired : int }

let create () = { clock = 0; events = Eventq.create (); tag = 0; fired = 0 }

let lane root i =
  if i < 0 || i > Eventq.max_lane then
    invalid_arg
      (Printf.sprintf "Engine.lane: lane id %d does not fit the %d lane bits" i
         (Sys.int_size - 1 - Eventq.lane_shift));
  { root with tag = i lsl Eventq.lane_shift; fired = 0 }

let now e = e.clock
let events_fired e = e.fired

let post e ~time fn =
  if time < e.clock then
    invalid_arg
      (Printf.sprintf "Engine.post: time %d is before now %d" time e.clock);
  Eventq.push_tagged e.events ~tag:e.tag ~time fn

let post_in e ~delay fn =
  if delay < 0 then invalid_arg "Engine.post_in: negative delay";
  Eventq.push_tagged e.events ~tag:e.tag ~time:(e.clock + delay) fn

let cancel e h = Eventq.cancel e.events h
let pending e = Eventq.live_count e.events
let next_time e = Eventq.next_time e.events

(* Inert pre-fired handle: cancel is a no-op, comparison is by [==].  Lets
   callers keep a [handle] slot (rather than a [handle option]) for a timer
   that may not be armed — no [Some] box per re-arm on hot paths. *)
let nil_handle : handle = Heapq.nil

(* [pop_cell_until] folds the bound check into the pop, one queue pass per
   event, and the sentinel protocol keeps it allocation-free.  The lane
   loop stamps the popped event's own lane, not [e]. *)
let[@inline] pop_until e bound = Eventq.pop_cell_until e.events ~horizon:bound

let[@inline] stamp e (c : handle) =
  e.clock <- c.Heapq.time;
  e.fired <- e.fired + 1

let advance e time = if time > e.clock then e.clock <- time

let[@inline] take_until e bound =
  let c = pop_until e bound in
  if c != Heapq.nil then stamp e c;
  c

let step e =
  let c = take_until e max_int in
  if c == Heapq.nil then false
  else begin
    c.Heapq.fn ();
    true
  end

let run_until e horizon =
  let rec loop () =
    let c = take_until e horizon in
    if c != Heapq.nil then begin
      c.Heapq.fn ();
      loop ()
    end
  in
  loop ();
  advance e horizon

let run e = while step e do () done
