type handle = Eventq.handle

type t = { mutable clock : int; events : Eventq.t; mutable fired : int }

let create () = { clock = 0; events = Eventq.create (); fired = 0 }
let now e = e.clock
let events_fired e = e.fired

let post e ~time fn =
  if time < e.clock then
    invalid_arg
      (Printf.sprintf "Engine.post: time %d is before now %d" time e.clock);
  Eventq.push e.events ~time fn

let post_in e ~delay fn =
  if delay < 0 then invalid_arg "Engine.post_in: negative delay";
  Eventq.push e.events ~time:(e.clock + delay) fn

let cancel e h = Eventq.cancel e.events h
let pending e = Eventq.live_count e.events
let next_time e = Eventq.next_time e.events

(* Inert pre-fired handle: cancel is a no-op, comparison is by [==].  Lets
   callers keep a [handle] slot (rather than a [handle option]) for a timer
   that may not be armed — no [Some] box per re-arm on hot paths. *)
let nil_handle : handle = Heapq.nil

(* Remove the earliest event due by [bound] and account it as fired; the
   caller runs [fn].  One pass per event: [pop_cell_until] folds the bound
   check into the pop, where peek-then-pop normalised the queue twice, and
   the sentinel protocol keeps it allocation-free.  Taking apart from
   firing lets the lane merge set its global clock between the two. *)
let[@inline] take_until e bound =
  let c = Eventq.pop_cell_until e.events ~horizon:bound in
  if c != Heapq.nil then begin
    e.clock <- c.Heapq.time;
    e.fired <- e.fired + 1
  end;
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
  if horizon > e.clock then e.clock <- horizon

let run ?max_events e =
  match max_events with
  | None -> while step e do () done
  | Some n ->
    let fired = ref 0 in
    while !fired < n && step e do
      incr fired
    done
