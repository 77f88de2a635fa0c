(* Hierarchical timer wheel — the near-horizon tier of {!Eventq}.

   Asymmetric layout: a *wide* bottom level of [1024] slots of 2^10 ns each
   (covering ~1 ms), topped by [5] Linux-style levels of [32] slots, for a
   total horizon of 2^45 ns (~9.7 h of virtual time) from [base].

   The wide bottom is one load-bearing choice.  Simulator traffic —
   rescheds, context switches, IPI deliveries, quantum expiries, service
   times — is concentrated in delays of a few microseconds to a
   millisecond.  With a narrow bottom level those delays file one or two
   levels up and every event pays a cascade hop per level on its way down.
   With level 0 spanning the whole dominant band, the hot traffic files
   directly into its final slot.

   The other is the slot representation.  A slot stores its cells' keys in
   parallel *int* arrays ([times]/[seqs]) alongside the cell pointers, so
   ordering work — the drain sort, the cascade redistribution — runs on
   dense unboxed ints and never dereferences a cell.  Cells are allocated
   at push time and popped tens of thousands of events later, far outside
   any cache; a binary heap pays that cold miss at every comparison on the
   sift path, while here a cell is dereferenced exactly once per lifetime,
   at fire time.  Cancelled cells are likewise reclaimed only when their
   slot drains (or in a compaction sweep) — cascades move them blindly
   rather than touch cold memory to test a flag.

   An event is filed at the lowest level whose epoch it shares with [base];
   as [base] advances, higher-level slots are split ("cascaded") into lower
   levels.  Exact ordering is preserved: a level-0 slot is sorted by
   (time, seq) on first drain, and [mark] records how far it is sorted.  A
   push into a partially drained slot (always at a time at or after the
   drain cursor's — the engine never posts into the past) appends past the
   mark, and the next pop or peek inserts only the cells appended since the
   last sort into the sorted run, so pop order stays bit-identical to a
   global heap.  A dense slot — a fleet's lanes all file their time-0 setup into
   one — thus pays per push for the cells it adds, not for the whole
   remainder.

   Occupancy tracking: level 0 uses a two-tier bitmap — 32 group words of
   32 slots each plus a 32-bit summary word — so "find the next non-empty
   slot" is two count-trailing-zeros; the narrow upper levels use one word
   each.  Every word is 32 bits wide, so a count-trailing-zeros is one
   multiply and one lookup in a de Bruijn table, with no branch on the
   word's value.  Within a level, slot index order is time order: a level
   only holds events inside one aligned parent window, so the [land] in the
   index computation never actually wraps.

   A pop starts at [cur], the level-0 slot the last one used, and consults
   the bitmaps only once that slot is empty.  A level-0 insert below [cur]
   moves it down, so no occupied level-0 slot ever lies below it.  The
   simulator keeps only tens of events pending (see DESIGN.md §7), so
   several consecutive pops often come from one slot. *)

let granularity = 10  (* level-0 slots span 2^10 ns *)
let l0_bits = 10
let l0_slots = 1 lsl l0_bits  (* 1024: level 0 covers ~1 ms *)
let l0_mask = l0_slots - 1
let up_bits = 5
let up_slots = 1 lsl up_bits
let up_mask = up_slots - 1
let up_levels = 5

let epoch_shift = granularity + l0_bits + (up_bits * up_levels)
(* the wheel spans [base, base + 2^45) *)

(* Bit position of level [l]'s slot index within a timestamp. *)
let shift l =
  if l = 0 then granularity else granularity + l0_bits + (up_bits * (l - 1))

type slot = {
  mutable cells : Heapq.cell array;
  mutable times : int array;  (* times.(i)/seqs.(i) mirror cells.(i) *)
  mutable seqs : int array;
  mutable len : int;
  mutable pos : int;  (* drain cursor; non-zero only in the active slot *)
  mutable mark : int;  (* [pos, mark) is sorted; [mark, len) appended since *)
}

type t = {
  slots : slot array;  (* 1024 level-0 slots, then 5 * 32 upper slots *)
  occ0 : int array;  (* 32 groups of 32 level-0 slots *)
  mutable sum0 : int;  (* bitmap of non-empty occ0 groups *)
  up_occ : int array;  (* per upper level bitmap of non-empty slots *)
  mutable base : int;  (* all stored cells have time >= base *)
  mutable cur : int;  (* where a pop starts: no occupied level-0 slot is below *)
  mutable size : int;  (* stored cells, including lazily-cancelled ones *)
  mutable dead : int;  (* cancelled cells still stored *)
}

let dummy_cell = { Heapq.time = 0; seq = 0; fn = ignore; flags = Heapq.flag_cancelled }

let create () =
  {
    slots =
      Array.init
        (l0_slots + (up_levels * up_slots))
        (fun _ ->
          { cells = [||]; times = [||]; seqs = [||]; len = 0; pos = 0; mark = 0 });
    occ0 = Array.make 32 0;
    sum0 = 0;
    up_occ = Array.make up_levels 0;
    base = 0;
    cur = 0;
    size = 0;
    dead = 0;
  }

let live t = t.size - t.dead

let accepts t ~time =
  time >= t.base && time lsr epoch_shift = t.base lsr epoch_shift

(* Lowest level whose epoch contains both [time] and [base]; [accepts]
   guarantees termination at the top level.  Top-level recursion (and no
   closures anywhere on the hot path): without flambda a local [rec] or
   [ref] is a minor-heap allocation per call. *)
let rec level_from base time l =
  if time lsr (shift (l + 1)) = base lsr (shift (l + 1)) then l
  else level_from base time (l + 1)

let grow_slot slot =
  let cap = Int.max 8 (2 * Array.length slot.times) in
  let cells = Array.make cap dummy_cell in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  Array.blit slot.cells 0 cells 0 slot.len;
  Array.blit slot.times 0 times 0 slot.len;
  Array.blit slot.seqs 0 seqs 0 slot.len;
  slot.cells <- cells;
  slot.times <- times;
  slot.seqs <- seqs

let[@inline] slot_push slot cell time seq =
  if slot.len = Array.length slot.times then grow_slot slot;
  let i = slot.len in
  Array.unsafe_set slot.cells i cell;
  Array.unsafe_set slot.times i time;
  Array.unsafe_set slot.seqs i seq;
  slot.len <- i + 1

(* Empty a slot, keeping its capacity.  Every position must already hold
   [dummy_cell], so that fired closures are collectable: a pop or a skip
   writes it behind the drain cursor, and nothing is stored past [len].
   Stale ints are harmless. *)
let reset_slot slot =
  slot.len <- 0;
  slot.pos <- 0;
  slot.mark <- 0

(* [cell]'s key is passed alongside so cascades can re-file straight off the
   source slot's int arrays without dereferencing the cell. *)
let insert_raw t cell time seq =
  if time lsr (granularity + l0_bits) = t.base lsr (granularity + l0_bits)
  then begin
    (* The dominant case: files directly into its final level-0 slot. *)
    let idx = (time lsr granularity) land l0_mask in
    slot_push t.slots.(idx) cell time seq;
    if idx < t.cur then t.cur <- idx;
    let g = idx lsr 5 in
    t.occ0.(g) <- t.occ0.(g) lor (1 lsl (idx land 31));
    t.sum0 <- t.sum0 lor (1 lsl g)
  end
  else begin
    let l = level_from t.base time 1 in
    let idx = (time lsr shift l) land up_mask in
    slot_push t.slots.(l0_slots + ((l - 1) * up_slots) + idx) cell time seq;
    t.up_occ.(l - 1) <- t.up_occ.(l - 1) lor (1 lsl idx)
  end

let add t cell =
  if not (accepts t ~time:cell.Heapq.time) then
    invalid_arg "Wheel.add: time outside the wheel horizon";
  insert_raw t cell cell.Heapq.time cell.Heapq.seq;
  t.size <- t.size + 1

(* Index of the lowest set bit of a non-zero 32-bit word: multiplying its
   isolated lowest bit by a de Bruijn constant leaves a distinct 5-bit
   pattern in bits 27-31, which the table maps back. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] lsb_index x =
  Array.unsafe_get debruijn ((((x land -x) * 0x077CB531) lsr 27) land 31)

(* Bring [pos, len) into (time, seq) order.  A slot that was sorted before
   only needs the cells appended past [mark] inserted into its sorted run;
   a never-sorted one of at most 48 cells is sorted the same way from its
   first cell. *)
let sort_slot slot =
  let lo = slot.pos and hi = slot.len in
  if hi - lo > 1 then begin
    let times = slot.times and seqs = slot.seqs and cells = slot.cells in
    if slot.mark > lo || hi - lo <= 48 then
      (* Insertion pass over the int keys (cells carried along): in place,
         no allocation, no cell dereferences; an appended cell costs O(1)
         plus one step per undrained cell it sorts ahead of. *)
      for i = Int.max slot.mark (lo + 1) to hi - 1 do
        let ct = times.(i) and cs = seqs.(i) and cc = cells.(i) in
        let j = ref (i - 1) in
        while
          !j >= lo
          && (times.(!j) > ct || (times.(!j) = ct && seqs.(!j) > cs))
        do
          times.(!j + 1) <- times.(!j);
          seqs.(!j + 1) <- seqs.(!j);
          cells.(!j + 1) <- cells.(!j);
          decr j
        done;
        times.(!j + 1) <- ct;
        seqs.(!j + 1) <- cs;
        cells.(!j + 1) <- cc
      done
    else begin
      (* A dense slot's first sort: sort an index permutation by the int
         keys, then apply it through scratch copies. *)
      let n = hi - lo in
      let perm = Array.init n (fun k -> lo + k) in
      Array.sort
        (fun a b ->
          let c = compare times.(a) times.(b) in
          if c <> 0 then c else compare seqs.(a) seqs.(b))
        perm;
      let ct = Array.sub times lo n in
      let cs = Array.sub seqs lo n in
      let cc = Array.sub cells lo n in
      for k = 0 to n - 1 do
        let src = perm.(k) - lo in
        times.(lo + k) <- ct.(src);
        seqs.(lo + k) <- cs.(src);
        cells.(lo + k) <- cc.(src)
      done
    end
  end;
  slot.mark <- hi

(* Advance the drain cursor past cancelled cells; true iff a live cell is
   left at [slot.pos].  This is the only place (besides {!compact}) that
   tests the cancelled flag — cascades move dead cells blindly rather than
   dereference cold memory. *)
let rec skip_cancelled t slot =
  if slot.pos >= slot.len then false
  else begin
    let c = slot.cells.(slot.pos) in
    if c.Heapq.flags land Heapq.flag_cancelled <> 0 then begin
      slot.cells.(slot.pos) <- dummy_cell;
      slot.pos <- slot.pos + 1;
      t.size <- t.size - 1;
      t.dead <- t.dead - 1;
      skip_cancelled t slot
    end
    else true
  end

let rec find_upper t l =
  if l > up_levels then -1
  else if t.up_occ.(l - 1) <> 0 then l
  else find_upper t (l + 1)

let clear_l0 t idx =
  let g = idx lsr 5 in
  let w = t.occ0.(g) land lnot (1 lsl (idx land 31)) in
  t.occ0.(g) <- w;
  if w = 0 then t.sum0 <- t.sum0 land lnot (1 lsl g)

(* Level 0 is empty: jump [base] to the start of the earliest upper slot
   and split its cells into lower levels (each lands strictly below its
   level), off the slot's int arrays, without touching the cells
   themselves.  They leave the slot uncleared, hence the fill. *)
let cascade t =
  let l = find_upper t 1 in
  let idx = lsb_index t.up_occ.(l - 1) in
  let slot = t.slots.(l0_slots + ((l - 1) * up_slots) + idx) in
  let upper = t.base lsr shift (l + 1) in
  t.base <- (upper lsl shift (l + 1)) lor (idx lsl shift l);
  t.up_occ.(l - 1) <- t.up_occ.(l - 1) land lnot (1 lsl idx);
  for i = 0 to slot.len - 1 do
    insert_raw t slot.cells.(i) slot.times.(i) slot.seqs.(i)
  done;
  Array.fill slot.cells 0 slot.len dummy_cell;
  reset_slot slot

(* Index of the level-0 slot whose drain cursor holds the earliest live
   cell, with [cur] moved to it; -1 when no live cell is stored.  Sorts
   that slot if cells were appended since its last sort, reclaims
   cancelled cells on the way and cascades upper slots down when level 0
   runs dry. *)
let rec head t =
  let slot = Array.unsafe_get t.slots t.cur in
  if slot.pos < slot.len then begin
    if slot.mark < slot.len then sort_slot slot;
    if skip_cancelled t slot then t.cur
    else begin
      reset_slot slot;
      clear_l0 t t.cur;
      head t
    end
  end
  else if t.sum0 <> 0 then begin
    let g = lsb_index t.sum0 in
    t.cur <- (g lsl 5) lor lsb_index (Array.unsafe_get t.occ0 g);
    head t
  end
  else if t.size = 0 then -1
  else begin
    cascade t;
    head t
  end

(* Earliest live cell, left in place; {!Heapq.nil} when empty.
   Sentinel-based so a peek never allocates an [option]. *)
let peek_cell t =
  let i = head t in
  if i < 0 then Heapq.nil
  else
    let slot = t.slots.(i) in
    slot.cells.(slot.pos)

(* Remove the earliest live cell, mark it fired and return it, if its
   time is at most [horizon]; otherwise {!Heapq.nil}, with nothing
   removed.  The flag tests here and in [skip_cancelled] are field
   operations rather than calls into {!Heapq}: builds that compile
   modules opaquely (dune's dev profile) inline nothing across them. *)
let pop_until t horizon =
  let i = head t in
  if i < 0 then Heapq.nil
  else begin
    let slot = Array.unsafe_get t.slots i in
    let pos = slot.pos in
    let time = Array.unsafe_get slot.times pos in
    if time > horizon then Heapq.nil
    else begin
      let cell = Array.unsafe_get slot.cells pos in
      Array.unsafe_set slot.cells pos dummy_cell;
      t.size <- t.size - 1;
      if pos + 1 = slot.len then begin
        reset_slot slot;
        clear_l0 t i
      end
      else slot.pos <- pos + 1;
      if time > t.base then t.base <- time;
      cell.Heapq.flags <- cell.Heapq.flags lor Heapq.flag_cancelled;
      cell
    end
  end

(* Move [base] forward to [time] (e.g. after the overflow tier fired an
   event), so subsequent short-delay pushes file near level 0.  The caller
   guarantees no stored cell is earlier than [time]; crossing the top-level
   epoch is only possible while the wheel is empty. *)
let advance t time =
  if time > t.base && (t.size = 0 || time lsr epoch_shift = t.base lsr epoch_shift)
  then t.base <- time

(* Sweep every occupied slot, dropping cancelled cells in place.  The sweep
   is stable, so a slot's sorted run stays sorted; its mark moves down to
   where the run now ends. *)
let compact t =
  let sweep_slot slot =
    let j = ref slot.pos and mark = ref slot.pos in
    for i = slot.pos to slot.len - 1 do
      let c = slot.cells.(i) in
      if c.Heapq.flags land Heapq.flag_cancelled <> 0 then begin
        t.size <- t.size - 1;
        t.dead <- t.dead - 1
      end
      else begin
        slot.cells.(!j) <- c;
        slot.times.(!j) <- slot.times.(i);
        slot.seqs.(!j) <- slot.seqs.(i);
        incr j
      end;
      if i < slot.mark then mark := !j
    done;
    Array.fill slot.cells !j (slot.len - !j) dummy_cell;
    slot.len <- !j;
    slot.mark <- !mark
  in
  let sum = ref t.sum0 in
  while !sum <> 0 do
    let g = lsb_index !sum in
    sum := !sum land lnot (1 lsl g);
    let occ = ref t.occ0.(g) in
    while !occ <> 0 do
      let b = lsb_index !occ in
      occ := !occ land lnot (1 lsl b);
      let idx = (g lsl 5) lor b in
      let slot = t.slots.(idx) in
      sweep_slot slot;
      if slot.len = slot.pos then begin
        reset_slot slot;
        clear_l0 t idx
      end
    done
  done;
  for l = 1 to up_levels do
    let occ = ref t.up_occ.(l - 1) in
    while !occ <> 0 do
      let b = lsb_index !occ in
      occ := !occ land lnot (1 lsl b);
      let slot = t.slots.(l0_slots + ((l - 1) * up_slots) + b) in
      sweep_slot slot;
      if slot.len = 0 then
        t.up_occ.(l - 1) <- t.up_occ.(l - 1) land lnot (1 lsl b)
    done
  done

let note_cancel t =
  t.dead <- t.dead + 1;
  if t.size >= 256 && t.dead > t.size / 2 then compact t
