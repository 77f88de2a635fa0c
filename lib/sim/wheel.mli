(** Hierarchical timer wheel: the near-horizon tier of {!Eventq}.

    Asymmetric layout: a wide bottom level of 1024 slots of [2^10] ns
    (covering ~1 ms — the whole dominant band of simulator delays, so the
    hot traffic files directly into its final slot and never cascades),
    topped by five 32-slot levels, covering [2^45] ns (~9.7 h) of virtual
    time from [base] with O(1) amortized insert/extract and exact
    [(time, seq)] FIFO ordering — level-0 slots are [(time, seq)]-sorted on
    drain, so pop order is bit-identical to a global binary heap over the
    same cells.  Per-level occupancy bitmaps (two-tier for the wide level 0)
    locate the next non-empty slot without scanning.  Cells are
    {!Heapq.cell}s so the two {!Eventq} tiers share handles. *)

type t

val create : unit -> t
(** An empty wheel with [base = 0]. *)

val accepts : t -> time:int -> bool
(** Whether an event at [time] fits this wheel's current horizon
    ([base <= time < (base / 2^44 + 1) * 2^44]).  Events outside belong in
    the overflow heap. *)

val add : t -> Heapq.cell -> unit
(** Store a live cell; raises [Invalid_argument] if [accepts] is false. *)

val peek_cell : t -> Heapq.cell
(** Earliest live cell, left stored; {!Heapq.nil} when empty.  May advance
    [base], cascade slots and reclaim cancelled cells. *)

val pop_until : t -> int -> Heapq.cell
(** [pop_until t horizon] removes the earliest live cell, marks it fired
    (cancelled) and returns it, if its time is at most [horizon]; otherwise
    {!Heapq.nil}, with nothing removed.  Advances [base] to the popped
    time. *)

val advance : t -> int -> unit
(** Move [base] forward (no-op backwards).  Precondition: no stored cell is
    earlier than the new base. *)

val note_cancel : t -> unit
(** A stored cell was just marked cancelled; may trigger a compaction
    sweep. *)

val live : t -> int
(** Non-cancelled cells held. *)
