(* Binary min-heap of timed event cells, keyed by (time, seq).

   This was the simulator's only event queue before the timer wheel landed
   (see {!Wheel} and {!Eventq}); it survives in two roles:

   - the overflow tier of {!Eventq}, holding far-future events that fall
     outside the wheel's horizon (and, for the standalone model tests,
     events posted in the past);
   - a standalone heap-only queue, kept API-compatible with {!Eventq} so the
     [bench/main.exe engine] target can measure the wheel against the exact
     seed data structure.

   Cancellation is lazy, but no longer unbounded: when more than half of the
   stored cells are cancelled the heap compacts in place (Floyd heapify),
   so cancel-heavy policies cannot double their memory in garbage. *)

(* [flags] packs the two booleans the old layout stored as separate fields
   (bit 0 = cancelled, bit 1 = in_heap): a cell is 5 words instead of 6,
   which the cancel-heavy workloads — two cell allocations per fired event —
   feel directly in GC pressure. *)
type cell = {
  time : int;
  seq : int;
  fn : unit -> unit;
  mutable flags : int;  (* bit 0: cancelled; bit 1: owning Eventq tier *)
}

let flag_cancelled = 1
let flag_in_heap = 2

let[@inline] cancelled c = c.flags land flag_cancelled <> 0
let[@inline] set_cancelled c = c.flags <- c.flags lor flag_cancelled
let[@inline] in_heap c = c.flags land flag_in_heap <> 0
let[@inline] set_in_heap c = c.flags <- c.flags lor flag_in_heap

type t = {
  mutable heap : cell array;
  mutable size : int;  (* stored cells, including lazily-cancelled ones *)
  mutable dead : int;  (* cancelled cells still stored *)
  mutable next_seq : int;  (* standalone pushes only; Eventq brings its own *)
}

let dummy = { time = 0; seq = 0; fn = ignore; flags = flag_cancelled lor flag_in_heap }
let nil = dummy

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let create () = { heap = Array.make 64 dummy; size = 0; dead = 0; next_seq = 0 }

let live_count q = q.size - q.dead
let is_empty q = live_count q = 0
let stored q = q.size

let grow q =
  let heap = Array.make (2 * Array.length q.heap) dummy in
  Array.blit q.heap 0 heap 0 q.size;
  q.heap <- heap

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < q.size && earlier q.heap.(l) q.heap.(i) then l else i in
  let smallest =
    if r < q.size && earlier q.heap.(r) q.heap.(smallest) then r else smallest
  in
  if smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(smallest);
    q.heap.(smallest) <- tmp;
    sift_down q smallest
  end

let add q cell =
  if q.size = Array.length q.heap then grow q;
  q.heap.(q.size) <- cell;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

(* Drop every cancelled cell and rebuild the heap bottom-up (Floyd). *)
let compact q =
  let n = q.size in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let c = q.heap.(i) in
    if not (cancelled c) then begin
      q.heap.(!j) <- c;
      incr j
    end
  done;
  for i = !j to n - 1 do
    q.heap.(i) <- dummy
  done;
  q.size <- !j;
  q.dead <- 0;
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i
  done

(* Called after a stored cell was marked cancelled (the mark itself is done
   by the owner, which may be {!Eventq}). *)
let note_cancel q =
  q.dead <- q.dead + 1;
  if q.size >= 64 && q.dead > q.size / 2 then compact q

(* Raw root removal, cancelled or not; [nil] when empty. *)
let pop_any q =
  if q.size = 0 then nil
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    q.heap.(0) <- q.heap.(q.size);
    q.heap.(q.size) <- dummy;
    if q.size > 0 then sift_down q 0;
    top
  end

(* Earliest live cell, removed; [nil] when empty.  The caller owns the
   returned cell (it is no longer stored here) and is responsible for
   marking it cancelled once fired.  Sentinel-based so the pop path never
   allocates an [option]. *)
let rec pop_live_cell q =
  let cell = pop_any q in
  if cell == nil then nil
  else if cancelled cell then begin
    q.dead <- q.dead - 1;
    pop_live_cell q
  end
  else cell

(* Earliest live cell, left in place (cancelled cells at the top are
   reclaimed on the way); [nil] when empty. *)
let rec peek_live_cell q =
  if q.size = 0 then nil
  else begin
    let top = q.heap.(0) in
    if cancelled top then begin
      ignore (pop_any q);
      q.dead <- q.dead - 1;
      peek_live_cell q
    end
    else top
  end

let peek_live q =
  let c = peek_live_cell q in
  if c == nil then None else Some c

(* --- Standalone queue API (heap-only baseline, mirrors Eventq) ------------- *)

type handle = cell

let nil_handle : handle = nil

let push q ~time fn =
  let cell = { time; seq = q.next_seq; fn; flags = flag_in_heap } in
  q.next_seq <- q.next_seq + 1;
  add q cell;
  cell

let cancel q cell =
  if not (cancelled cell) then begin
    set_cancelled cell;
    note_cancel q
  end

let is_cancelled = cancelled

(* Remove and return the earliest live cell marked as fired, [nil] when
   empty — the allocation-free pop used by the engine loop and benches. *)
let pop_cell q =
  let c = pop_live_cell q in
  if c != nil then set_cancelled c;
  c

let pop_cell_until q ~horizon =
  let c = peek_live_cell q in
  if c == nil || c.time > horizon then nil else pop_cell q

let pop q =
  let c = pop_cell q in
  if c == nil then None else Some (c.time, c.fn)

let peek_time q =
  match peek_live q with Some cell -> Some cell.time | None -> None
