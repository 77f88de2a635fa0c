(** Binary min-heap of timed event cells, keyed by [(time, seq)].

    Two roles: the far-future overflow tier of {!Eventq}, and a standalone
    heap-only event queue (the seed implementation) kept API-compatible with
    {!Eventq} so benchmarks can compare the two directly.  Cancellation is
    lazy with automatic compaction once cancelled cells outnumber live
    ones. *)

type cell = {
  time : int;
  seq : int;
  fn : unit -> unit;
  mutable flags : int;
      (** Bit 0: cancelled.  Bit 1: which {!Eventq} tier stores the cell
          ([1] = this heap, [0] = the timer wheel; fixed at push time, cells
          never migrate between tiers).  Packed so a cell is 5 words instead
          of 6 — cancel-heavy workloads allocate two cells per fired event
          and feel the difference directly in minor-GC pressure. *)
}
(** A scheduled event.  [(time, seq)] totally orders cells: seq numbers are
    unique, so ties in time resolve to insertion order. *)

val flag_cancelled : int

val cancelled : cell -> bool
val set_cancelled : cell -> unit
val in_heap : cell -> bool
val set_in_heap : cell -> unit

val earlier : cell -> cell -> bool
(** Strict [(time, seq)] order. *)

val nil : cell
(** Sentinel meaning "no cell" on the allocation-free pop paths; compare
    with physical equality ([==]).  It is permanently cancelled, never
    stored, and firing its [fn] is a no-op. *)

type t

val create : unit -> t
val is_empty : t -> bool
val live_count : t -> int
val stored : t -> int
(** Cells held, including lazily-cancelled garbage. *)

(** {1 Cell-level tier API (used by {!Eventq})} *)

val add : t -> cell -> unit
(** Store a live cell.  The caller assigns [seq]. *)

val note_cancel : t -> unit
(** Tell the heap one of its stored cells was just marked cancelled; may
    trigger compaction. *)

val pop_live_cell : t -> cell
(** Remove and return the earliest live cell, {!nil} when empty.  The cell
    is no longer stored; the caller marks it cancelled after firing it. *)

val peek_live_cell : t -> cell
(** Earliest live cell without removing it, {!nil} when empty. *)

val compact : t -> unit
(** Drop all cancelled cells and re-heapify. *)

(** {1 Standalone queue API (heap-only baseline)} *)

type handle = cell

val nil_handle : handle
(** {!nil} under its queue-API name, so the engine-bench functor signature
    (shared with {!Eventq}) can expose it. *)

val push : t -> time:int -> (unit -> unit) -> handle
val cancel : t -> handle -> unit
val is_cancelled : handle -> bool

val pop_cell : t -> cell
(** Remove and return the earliest live cell, marked as fired ({!nil} when
    empty).  The allocation-free pop: no [option], no tuple. *)

val pop_cell_until : t -> horizon:int -> cell
(** Like {!pop_cell} but leaves the queue untouched (returning {!nil}) when
    the earliest live event is after [horizon]. *)

val pop : t -> (int * (unit -> unit)) option
val peek_time : t -> int option
