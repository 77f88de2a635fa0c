(* Tests for the simulation substrate: event queue, engine, RNG and
   distributions. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Eventq ----------------------------------------------------------------- *)

let test_eventq_order () =
  let q = Sim.Eventq.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (Sim.Eventq.push q ~time:30 (note "c"));
  ignore (Sim.Eventq.push q ~time:10 (note "a"));
  ignore (Sim.Eventq.push q ~time:20 (note "b"));
  let rec drain () =
    match Sim.Eventq.pop q with
    | Some (_, fn) ->
      fn ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ] (List.rev !fired)

let test_eventq_fifo_ties () =
  let q = Sim.Eventq.create () in
  let fired = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Eventq.push q ~time:5 (fun () -> fired := i :: !fired))
  done;
  let rec drain () =
    match Sim.Eventq.pop q with
    | Some (_, fn) ->
      fn ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "insertion order on equal timestamps"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !fired)

let test_eventq_cancel () =
  let q = Sim.Eventq.create () in
  let fired = ref 0 in
  let h1 = Sim.Eventq.push q ~time:1 (fun () -> incr fired) in
  ignore (Sim.Eventq.push q ~time:2 (fun () -> incr fired));
  check_int "live before cancel" 2 (Sim.Eventq.live_count q);
  Sim.Eventq.cancel q h1;
  check_bool "handle marked" true (Sim.Eventq.is_cancelled h1);
  check_int "live after cancel" 1 (Sim.Eventq.live_count q);
  let rec drain () =
    match Sim.Eventq.pop q with
    | Some (_, fn) ->
      fn ();
      drain ()
    | None -> ()
  in
  drain ();
  check_int "only live event fired" 1 !fired;
  check_bool "empty at end" true (Sim.Eventq.is_empty q)

let test_eventq_peek_skips_cancelled () =
  let q = Sim.Eventq.create () in
  let h = Sim.Eventq.push q ~time:1 ignore in
  ignore (Sim.Eventq.push q ~time:7 ignore);
  Sim.Eventq.cancel q h;
  Alcotest.(check (option int)) "peek skips dead" (Some 7) (Sim.Eventq.peek_time q)

let test_eventq_many =
  QCheck.Test.make ~name:"eventq pops in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Sim.Eventq.create () in
      List.iter (fun time -> ignore (Sim.Eventq.push q ~time ignore)) times;
      let rec drain last =
        match Sim.Eventq.pop q with
        | Some (time, _) -> time >= last && drain time
        | None -> true
      in
      drain 0)

(* Model check for the two-tier wheel+heap queue: push/cancel/pop traces run
   against a naive sorted-list reference, demanding bit-identical pop order
   — (time, lane, seq) ties included, which (time, lane, uid) encodes since
   both assign sequence numbers in push order.  Pushes never go into the
   past (engine semantics). *)
type model = {
  q : Sim.Eventq.t;
  mutable entries : (int * int * int * Sim.Eventq.handle) list;
      (* pending (time, lane, uid, handle), ascending by (time, lane, uid) *)
  mutable next_uid : int;
  mutable now : int;
  mutable last_fired : int;
}

let model_create () =
  { q = Sim.Eventq.create (); entries = []; next_uid = 0; now = 0; last_fired = -1 }

let model_push ?(lane = 0) m time =
  let uid = m.next_uid in
  m.next_uid <- uid + 1;
  let h =
    Sim.Eventq.push_tagged m.q ~tag:(lane lsl Sim.Eventq.lane_shift) ~time
      (fun () -> m.last_fired <- uid)
  in
  let entry = (time, lane, uid, h) in
  let rec go = function
    | [] -> [ entry ]
    | ((t, l, u, _) :: _) as rest when compare (time, lane, uid) (t, l, u) < 0 ->
      entry :: rest
    | x :: rest -> x :: go rest
  in
  m.entries <- go m.entries

let model_pop m =
  match (Sim.Eventq.pop m.q, m.entries) with
  | None, [] -> ()
  | Some (time, fn), (mt, _, muid, _) :: rest ->
    m.entries <- rest;
    m.now <- time;
    fn ();
    if time <> mt || m.last_fired <> muid then
      Alcotest.failf "pop mismatch: queue (%d, uid %d) vs model (%d, uid %d)"
        time m.last_fired mt muid
  | Some (time, _), [] -> Alcotest.failf "queue fired (%d) but model empty" time
  | None, (mt, _, _, _) :: _ -> Alcotest.failf "queue empty but model has (%d)" mt

(* A pop through [pop_cell_until], the only pop the engine and the lane
   loop run.  Past the horizon it must return nil and leave the queue as it
   was: the same live count and the same head.  Returns whether it fired. *)
let model_pop_until m horizon =
  let live = Sim.Eventq.live_count m.q in
  let c = Sim.Eventq.pop_cell_until m.q ~horizon in
  match m.entries with
  | (mt, _, muid, _) :: rest when mt <= horizon ->
    if c == Sim.Eventq.nil_handle then
      Alcotest.failf "refused the head (%d) at horizon %d" mt horizon;
    check_bool "fired cell marked" true (Sim.Eventq.is_cancelled c);
    m.entries <- rest;
    m.now <- c.Sim.Heapq.time;
    c.Sim.Heapq.fn ();
    if c.Sim.Heapq.time <> mt || m.last_fired <> muid then
      Alcotest.failf "pop_until mismatch: queue (%d, uid %d) vs model (%d, uid %d)"
        c.Sim.Heapq.time m.last_fired mt muid;
    true
  | entries ->
    if c != Sim.Eventq.nil_handle then
      Alcotest.failf "fired %d past horizon %d" c.Sim.Heapq.time horizon;
    check_int "refusal keeps the live count" live (Sim.Eventq.live_count m.q);
    check_int "refusal keeps the head"
      (match entries with (mt, _, _, _) :: _ -> mt | [] -> max_int)
      (Sim.Eventq.next_time m.q);
    false

let model_cancel_random m rng =
  match m.entries with
  | [] -> ()
  | entries ->
    let _, _, uid, h = List.nth entries (Sim.Rng.int rng (List.length entries)) in
    Sim.Eventq.cancel m.q h;
    m.entries <- List.filter (fun (_, _, u, _) -> u <> uid) entries

let model_drain m =
  while m.entries <> [] || not (Sim.Eventq.is_empty m.q) do
    model_pop m
  done;
  check_bool "drained" true (Sim.Eventq.is_empty m.q)

(* Random traffic whose delays span level-0 buckets, mid levels, and the
   far-future overflow heap. *)
let run_eventq_model ~seed ~ops ~p_pop ~p_cancel () =
  let rng = Sim.Rng.create seed in
  let m = model_create () in
  let delay () =
    match Sim.Rng.int rng 10 with
    | 0 | 1 -> 0
    | 2 | 3 | 4 | 5 -> Sim.Rng.int rng 16_000 (* level-0/1 buckets *)
    | 6 | 7 -> Sim.Rng.int rng 10_000_000 (* mid levels *)
    | 8 -> Sim.Rng.int rng 30_000_000_000 (* high levels *)
    | _ -> Sim.Rng.int rng 30_000_000_000_000 (* past the wheel: heap tier *)
  in
  for _ = 1 to ops do
    let r = Sim.Rng.float rng 1.0 in
    if r < p_pop then model_pop m
    else if r < p_pop +. p_cancel then model_cancel_random m rng
    else model_push m (m.now + delay ())
  done;
  model_drain m

let test_eventq_model () =
  run_eventq_model ~seed:42 ~ops:12_000 ~p_pop:0.35 ~p_cancel:0.15 ()

let test_eventq_model_cancel_heavy () =
  run_eventq_model ~seed:1337 ~ops:12_000 ~p_pop:0.2 ~p_cancel:0.45 ()

(* Dense level-0 slots.  A level-0 slot spans 1024 ns and sorts its cells
   when it starts draining; past 48 cells that first sort is not an
   insertion sort.  Bursts of 49-148 cells at one time, from nine lanes as
   a fleet's setup files them, popped part-way and topped up at the same
   time, keep slots far past that size. *)
let test_eventq_model_dense_bursts () =
  let rng = Sim.Rng.create 7 in
  let m = model_create () in
  for _ = 1 to 30 do
    let time = m.now + if Sim.Rng.int rng 2 = 0 then 0 else Sim.Rng.int rng 2048 in
    for _ = 1 to 49 + Sim.Rng.int rng 100 do
      model_push ~lane:(Sim.Rng.int rng 9) m time
    done;
    for _ = 1 to Sim.Rng.int rng 120 do
      model_pop m
    done
  done;
  model_drain m

(* Pushes into a slot that is draining, at keys below cells it has not
   drained yet: each round spreads 60-119 cells from lanes 4-8 over
   [now+200, now+1000) and, between pops, pushes at [now, now+64) from any
   lane, or at [now] itself from a lane below the popped one — a
   same-time cross-post into a lower lane. *)
let test_eventq_model_drain_pushes () =
  let rng = Sim.Rng.create 11 in
  let m = model_create () in
  let last_lane = ref 0 in
  for _ = 1 to 40 do
    let base = m.now in
    for _ = 1 to 60 + Sim.Rng.int rng 60 do
      model_push ~lane:(4 + Sim.Rng.int rng 5) m (base + 200 + Sim.Rng.int rng 800)
    done;
    for _ = 1 to 20 + Sim.Rng.int rng 20 do
      (match m.entries with (_, l, _, _) :: _ -> last_lane := l | [] -> ());
      model_pop m;
      for _ = 1 to Sim.Rng.int rng 4 do
        if !last_lane > 0 && Sim.Rng.int rng 2 = 0 then
          model_push ~lane:(Sim.Rng.int rng !last_lane) m m.now
        else model_push ~lane:(Sim.Rng.int rng 9) m (m.now + Sim.Rng.int rng 64)
      done
    done
  done;
  model_drain m

(* Compaction in the middle of a drain.  Each round stores 300 cells over
   about one slot (the wheel compacts only at 256 stored cells or more),
   pops a few so the first slot is sorted and part-drained, appends to it,
   then cancels until dead cells pass half the stored ones, which runs
   [Wheel.compact] while the appended cells are still unsorted. *)
let test_eventq_model_compact_mid_drain () =
  let rng = Sim.Rng.create 13 in
  let m = model_create () in
  for _ = 1 to 20 do
    let base = m.now in
    for _ = 1 to 300 do
      model_push ~lane:(Sim.Rng.int rng 9) m (base + Sim.Rng.int rng 1024)
    done;
    for _ = 1 to 10 do
      model_pop m
    done;
    for _ = 1 to 20 do
      model_push ~lane:(Sim.Rng.int rng 9) m (m.now + Sim.Rng.int rng 512)
    done;
    for _ = 1 to 250 do
      model_cancel_random m rng
    done;
    for _ = 1 to 30 do
      model_pop m
    done
  done;
  model_drain m

(* Serve-central-shaped delays: same-time, 0.5-4 us, 8-64 us, >= 1 ms, and
   a few past the wheel's horizon. *)
let short_delay rng =
  match Sim.Rng.int rng 100 with
  | p when p < 16 -> 0
  | p when p < 92 -> 500 + Sim.Rng.int rng 3_500
  | p when p < 98 -> 8_000 + Sim.Rng.int rng 56_000
  | p when p < 99 -> 1_000_000 + Sim.Rng.int rng 50_000_000
  | _ -> Sim.Rng.int rng 30_000_000_000_000

(* Pops through [pop_cell_until] at random horizons, some below the head.
   After each refusal, pushes land between the last fired time and the
   refused head: below the slot the refusal looked at, where a pop that
   started from that slot would miss them. *)
let run_pop_until_model ~seed ~ops () =
  let rng = Sim.Rng.create seed in
  let m = model_create () in
  for _ = 1 to ops do
    match Sim.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let horizon = m.now + short_delay rng in
      if not (model_pop_until m horizon) then begin
        match m.entries with
        | (head, _, _, _) :: _ when head > m.now ->
          for _ = 1 to 1 + Sim.Rng.int rng 3 do
            model_push ~lane:(Sim.Rng.int rng 9) m
              (m.now + Sim.Rng.int rng (head - m.now))
          done
        | _ -> ()
      end
    | 4 -> model_cancel_random m rng
    | _ -> model_push ~lane:(Sim.Rng.int rng 9) m (m.now + short_delay rng)
  done;
  while model_pop_until m max_int do () done;
  check_bool "drained" true (Sim.Eventq.is_empty m.q)

let test_eventq_pop_until_model () =
  List.iter (fun seed -> run_pop_until_model ~seed ~ops:20_000 ()) [ 17; 1009 ]

(* Cancel every cell left in the slot being drained, the cell at the drain
   cursor included.  Each round spreads 40 cells over the next few 1024 ns
   slots, pops into the first, cancels the rest of it, then pops on and
   pushes back into the emptied slot's window. *)
let test_eventq_pop_until_cancel_slot () =
  let rng = Sim.Rng.create 23 in
  let m = model_create () in
  let same_slot a b = a lsr 10 = b lsr 10 in
  for _ = 1 to 60 do
    let base = m.now in
    for _ = 1 to 40 do
      model_push ~lane:(Sim.Rng.int rng 9) m (base + Sim.Rng.int rng 4096)
    done;
    for _ = 1 to 1 + Sim.Rng.int rng 4 do
      ignore (model_pop_until m (m.now + Sim.Rng.int rng 1024))
    done;
    let drained = m.now in
    List.iter
      (fun (t, _, _, h) -> if same_slot t drained then Sim.Eventq.cancel m.q h)
      m.entries;
    m.entries <- List.filter (fun (t, _, _, _) -> not (same_slot t drained)) m.entries;
    for _ = 1 to 3 do
      ignore (model_pop_until m (m.now + Sim.Rng.int rng 2048))
    done;
    for _ = 1 to 5 do
      let time = drained + Sim.Rng.int rng 1024 in
      if time >= m.now then model_push ~lane:(Sim.Rng.int rng 9) m time
    done
  done;
  while model_pop_until m max_int do () done;
  check_bool "drained" true (Sim.Eventq.is_empty m.q)

(* A fired event's closure must be collectable once its slot drains: the
   queue may not keep the cell alive in a drained position. *)
let[@inline never] push_finalised q finalised ~time =
  let block = ref 0 in
  Gc.finalise (fun _ -> finalised := true) block;
  ignore (Sim.Eventq.push q ~time (fun () -> incr block))

let[@inline never] fire_next q =
  let c = Sim.Eventq.pop_cell_until q ~horizon:max_int in
  c.Sim.Heapq.fn ()

let test_eventq_fired_closure_released () =
  let q = Sim.Eventq.create () in
  let finalised = ref false in
  push_finalised q finalised ~time:100;
  ignore (Sim.Eventq.push q ~time:200 ignore);
  ignore (Sim.Eventq.push q ~time:5_000 ignore);
  fire_next q;
  fire_next q;
  Gc.full_major ();
  Gc.full_major ();
  check_bool "fired closure finalised" true !finalised;
  check_int "later slot still pending" 1 (Sim.Eventq.live_count q)

(* --- Engine ----------------------------------------------------------------- *)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.post e ~time:100 (fun () -> log := (100, Sim.Engine.now e) :: !log));
  ignore (Sim.Engine.post e ~time:50 (fun () -> log := (50, Sim.Engine.now e) :: !log));
  Sim.Engine.run_until e 75;
  check_int "clock set to horizon" 75 (Sim.Engine.now e);
  Alcotest.(check (list (pair int int))) "only first fired" [ (50, 50) ] !log;
  Sim.Engine.run_until e 200;
  Alcotest.(check (list (pair int int)))
    "second fired at its time"
    [ (100, 100); (50, 50) ]
    !log

let test_engine_post_in_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.run_until e 10;
  Alcotest.check_raises "past post rejected"
    (Invalid_argument "Engine.post: time 5 is before now 10") (fun () ->
      ignore (Sim.Engine.post e ~time:5 ignore))

let test_engine_cascading () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 0 then ignore (Sim.Engine.post_in e ~delay:10 (chain (n - 1)))
  in
  ignore (Sim.Engine.post_in e ~delay:10 (chain 9));
  Sim.Engine.run e;
  check_int "all chained events fired" 10 !count;
  check_int "clock at last event" 100 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.post_in e ~delay:5 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  check_bool "cancelled event did not fire" false !fired

let test_engine_lane_bounds () =
  (* A lane id must fit above the 40-bit push count in a non-negative
     int, so the largest lane still sorts after every lower one. *)
  let root = Sim.Engine.create () in
  let msg i =
    Printf.sprintf "Engine.lane: lane id %d does not fit the %d lane bits" i
      (Sys.int_size - 1 - Sim.Eventq.lane_shift)
  in
  Alcotest.check_raises "negative lane" (Invalid_argument (msg (-1))) (fun () ->
      ignore (Sim.Engine.lane root (-1)));
  let over = Sim.Eventq.max_lane + 1 in
  Alcotest.check_raises "lane past the lane bits" (Invalid_argument (msg over))
    (fun () -> ignore (Sim.Engine.lane root over));
  let top = Sim.Engine.lane root Sim.Eventq.max_lane in
  ignore (Sim.Engine.post top ~time:5 ignore);
  ignore (Sim.Engine.post root ~time:5 ignore);
  ignore (Sim.Engine.post (Sim.Engine.lane root 1) ~time:5 ignore);
  check_int "one queue" 3 (Sim.Engine.pending top);
  let order =
    List.init 3 (fun _ -> Sim.Eventq.lane_of (Sim.Engine.pop_until root 5))
  in
  Alcotest.(check (list int)) "same-time pops in lane order"
    [ 0; 1; Sim.Eventq.max_lane ] order

(* --- Idtbl ------------------------------------------------------------------ *)

(* Model check for the dense id table: one random replace / remove / lookup
   sequence run against both it and Stdlib.Hashtbl.  Keys start at -4, so
   replace must raise on some and lookups must answer "absent" for them.
   Keys run past several growth steps, and after every operation max_int
   and min_int must still be absent.  The final fold must list the model's
   bindings in ascending key order. *)
type idtbl_op = Replace of int * int | Remove of int | Find of int | Mem of int

let test_idtbl_model =
  let key = QCheck.Gen.int_range (-4) 600 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> Replace (k, v)) key small_nat);
          (2, map (fun k -> Remove k) key);
          (2, map (fun k -> Find k) key);
          (1, map (fun k -> Mem k) key);
        ])
  in
  let print = function
    | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
    | Remove k -> Printf.sprintf "remove %d" k
    | Find k -> Printf.sprintf "find %d" k
    | Mem k -> Printf.sprintf "mem %d" k
  in
  QCheck.Test.make ~name:"Idtbl agrees with Hashtbl" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let t = Sim.Idtbl.create () in
      let m = Hashtbl.create 16 in
      let absent k = Sim.Idtbl.find_opt t k = None && not (Sim.Idtbl.mem t k) in
      let step op =
        match op with
        | Replace (k, v) when k < 0 -> (
          match Sim.Idtbl.replace t k v with
          | () -> false
          | exception Invalid_argument _ -> true)
        | Replace (k, v) ->
          Sim.Idtbl.replace t k v;
          Hashtbl.replace m k v;
          true
        | Remove k ->
          Sim.Idtbl.remove t k;
          Hashtbl.remove m k;
          true
        | Find k ->
          Sim.Idtbl.find_opt t k = Hashtbl.find_opt m k
          && (match Sim.Idtbl.find t k with
             | v -> Some v
             | exception Not_found -> None)
             = Hashtbl.find_opt m k
        | Mem k -> Sim.Idtbl.mem t k = Hashtbl.mem m k
      in
      List.for_all
        (fun op ->
          step op
          && Sim.Idtbl.length t = Hashtbl.length m
          && absent max_int && absent min_int)
        ops
      &&
      let folded = Sim.Idtbl.fold (fun k v acc -> (k, v) :: acc) t [] in
      let iterated = ref [] in
      Sim.Idtbl.iter (fun k v -> iterated := (k, v) :: !iterated) t;
      let model = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []) in
      List.rev folded = model && List.rev !iterated = model)

(* --- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create 7 in
  let c = Sim.Rng.split a in
  check_bool "split stream differs" true (Sim.Rng.bits64 a <> Sim.Rng.bits64 c)

let test_rng_stream_leaves_parent_untouched () =
  (* Labeled sub-streams (the fault injector's jitter source) must not
     advance the parent, and must be label- and state-deterministic. *)
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  let s1 = Sim.Rng.stream a ~label:"faults" in
  let s2 = Sim.Rng.stream b ~label:"faults" in
  Alcotest.(check int64) "same label, same stream" (Sim.Rng.bits64 s1)
    (Sim.Rng.bits64 s2);
  for _ = 1 to 50 do
    Alcotest.(check int64) "parent unchanged by stream derivation"
      (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done;
  let c = Sim.Rng.create 7 in
  check_bool "different labels differ" true
    (Sim.Rng.bits64 (Sim.Rng.stream c ~label:"faults")
    <> Sim.Rng.bits64 (Sim.Rng.stream c ~label:"other"))

let test_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng n in
      v >= 0 && v < n)

let test_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 11 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "empirical mean %.2f within 2%% of 50" mean)
    true
    (Float.abs (mean -. 50.0) < 1.0)

(* --- Dist ------------------------------------------------------------------- *)

let test_dist_bimodal () =
  let rng = Sim.Rng.create 3 in
  let d = Sim.Dist.Bimodal { p_slow = 0.005; fast = 4000.0; slow = 10_000_000.0 } in
  let n = 200_000 in
  let slow = ref 0 in
  for _ = 1 to n do
    if Sim.Dist.sample rng d > 5000.0 then incr slow
  done;
  let frac = float_of_int !slow /. float_of_int n in
  check_bool
    (Printf.sprintf "slow fraction %.4f close to 0.005" frac)
    true
    (Float.abs (frac -. 0.005) < 0.002)

let test_dist_means () =
  let cases =
    [
      (Sim.Dist.Const 42.0, 42.0);
      (Sim.Dist.Uniform (10.0, 20.0), 15.0);
      (Sim.Dist.Exponential 7.0, 7.0);
      (Sim.Dist.Bimodal { p_slow = 0.5; fast = 0.0; slow = 10.0 }, 5.0);
      (Sim.Dist.Mixture [ (1.0, Sim.Dist.Const 1.0); (3.0, Sim.Dist.Const 5.0) ], 4.0);
    ]
  in
  List.iter
    (fun (d, expect) ->
      Alcotest.(check (float 1e-9)) "analytic mean" expect (Sim.Dist.mean d))
    cases

let test_dist_sample_ns_positive =
  QCheck.Test.make ~name:"sample_ns >= 1" ~count:300 QCheck.small_int (fun seed ->
      let rng = Sim.Rng.create seed in
      Sim.Dist.sample_ns rng (Sim.Dist.Const 0.0) >= 1
      && Sim.Dist.sample_ns rng (Sim.Dist.Exponential 5.0) >= 1)

(* --- Units ------------------------------------------------------------------ *)

let test_units () =
  check_int "us" 3_000 (Sim.Units.us 3);
  check_int "ms" 2_000_000 (Sim.Units.ms 2);
  check_int "sec" 1_000_000_000 (Sim.Units.sec 1);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Sim.Units.to_ms 1_500_000)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        test_eventq_many; test_idtbl_model; test_rng_int_bounds;
        test_rng_float_bounds; test_dist_sample_ns_positive;
      ]
  in
  Alcotest.run "sim"
    [
      ( "eventq",
        [
          Alcotest.test_case "timestamp order" `Quick test_eventq_order;
          Alcotest.test_case "fifo on ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_eventq_cancel;
          Alcotest.test_case "peek skips cancelled" `Quick
            test_eventq_peek_skips_cancelled;
          Alcotest.test_case "12k-op model check" `Quick test_eventq_model;
          Alcotest.test_case "12k-op model check (cancel-heavy)" `Quick
            test_eventq_model_cancel_heavy;
          Alcotest.test_case "model check: dense same-time bursts" `Quick
            test_eventq_model_dense_bursts;
          Alcotest.test_case "model check: pushes below a draining slot"
            `Quick test_eventq_model_drain_pushes;
          Alcotest.test_case "model check: compaction mid-drain" `Quick
            test_eventq_model_compact_mid_drain;
          Alcotest.test_case "pop_until model: random horizons" `Quick
            test_eventq_pop_until_model;
          Alcotest.test_case "pop_until model: cancel the draining slot" `Quick
            test_eventq_pop_until_cancel_slot;
          Alcotest.test_case "fired closure released" `Quick
            test_eventq_fired_closure_released;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "post in past" `Quick test_engine_post_in_past;
          Alcotest.test_case "cascading events" `Quick test_engine_cascading;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "lane bounds" `Quick test_engine_lane_bounds;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "labeled stream leaves parent untouched" `Quick
            test_rng_stream_leaves_parent_untouched;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
      ( "dist",
        [
          Alcotest.test_case "bimodal fraction" `Quick test_dist_bimodal;
          Alcotest.test_case "analytic means" `Quick test_dist_means;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ("properties", qsuite);
    ]
