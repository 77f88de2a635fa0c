(* Zero-allocation trace sink: a preallocated int-packed ring buffer.

   The previous sink allocated an [ev] record per event — variant payloads,
   string names built with [^], and [(string * string) list] args — which
   made enabled tracing ~24x slower than disabled.  Recording is now a
   bounded number of plain int stores into a flat [int array] ring:

   - String names are interned once into a process-global table (hook
     names at hook-install time, task names on first dispatch); records
     carry small int ids.
   - Records are variable-length (3..8 words), sized to their payload.
     Arg *keys* are not stored per record at all: the set of keys a record
     carries is registered once as an {e arg signature} ({!argsig}) and the
     record stores the signature id plus the value words only.
   - The ring has fixed capacity; when full, the write path advances a tail
     pointer over the oldest records (drop-oldest) and counts each loss in
     the [obs.ring_dropped] metric.
   - Span sampling (1-in-N per span name, phase drawn from a labeled
     {!Sim.Rng} stream so sampled runs are bit-reproducible for a fixed
     seed) cuts volume without losing determinism.

   Decoding back to the [ev] view — and from there to Perfetto — is done
   offline by the readers at the bottom ({!iter}, {!events}); the
   recording path never builds an [ev]. *)

type track = Cpu of int | Enclave of int | Global

type sched =
  | Dispatch of { cpu : int; tid : int; name : string; migrated : bool }
  | Preempt of { cpu : int; tid : int }
  | Block of { cpu : int; tid : int }
  | Yield of { cpu : int; tid : int }
  | Exit of { cpu : int; tid : int }
  | Wake of { tid : int; target_cpu : int }
  | Idle of { cpu : int }
  | Tick of { cpu : int }

type kind =
  | Span_begin of { id : int; parent : int; name : string }
  | Span_end of { id : int }
  | Instant of { name : string }
  | Sched of sched

type ev = {
  time : int;
  track : track;
  machine : int;  (* -1 = unscoped (single-machine run) *)
  kind : kind;
  args : (string * string) list;
}

(* --- Global intern table ----------------------------------------------------- *)

(* Process-global and append-only, so interned ids stay valid across
   install/uninstall and across sinks; id 0 is reserved for "".  Memory is
   bounded by the number of distinct names (hook names are static; task
   names are per-task, not per-event). *)

let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 256
let intern_names = ref (Array.make 64 "")
let intern_count = ref 1

let () = Hashtbl.add intern_tbl "" 0

let intern s =
  (* [Hashtbl.find] (not [find_opt]): the hit path must not allocate. *)
  try Hashtbl.find intern_tbl s
  with Not_found ->
    let id = !intern_count in
    if id = Array.length !intern_names then begin
      let grown = Array.make (2 * id) "" in
      Array.blit !intern_names 0 grown 0 id;
      intern_names := grown
    end;
    !intern_names.(id) <- s;
    intern_count := id + 1;
    Hashtbl.add intern_tbl s id;
    id

let intern_name id = !intern_names.(id)
let interned_count () = !intern_count

(* --- Arg signatures ----------------------------------------------------------- *)

(* A signature is the ordered list of arg keys a record carries, registered
   once and identified by a small int; records store the signature id (in
   the meta word) plus the value words.  Key codes: interned key id shifted
   left, low bit = "value is an interned string" (otherwise the value word
   is a raw int). *)

let arg_int key_id = key_id lsl 1
let arg_str key_id = (key_id lsl 1) lor 1

let sig_codes = ref (Array.make 16 [||])
let sig_lens = ref (Array.make 16 0)
let sig_count = ref 0
let sig_tbl : (int array, int) Hashtbl.t = Hashtbl.create 64

let argsig codes =
  if Array.length codes > 3 then
    invalid_arg "Obs.Sink.argsig: at most 3 args per record";
  match Hashtbl.find_opt sig_tbl codes with
  | Some id -> id
  | None ->
    let id = !sig_count in
    if id = 4096 then failwith "Obs.Sink.argsig: signature table full";
    if id = Array.length !sig_codes then begin
      let grown = Array.make (2 * id) [||] in
      Array.blit !sig_codes 0 grown 0 id;
      sig_codes := grown;
      let grown = Array.make (2 * id) 0 in
      Array.blit !sig_lens 0 grown 0 id;
      sig_lens := grown
    end;
    let codes = Array.copy codes in
    !sig_codes.(id) <- codes;
    !sig_lens.(id) <- Array.length codes;
    sig_count := id + 1;
    Hashtbl.add sig_tbl codes id;
    id

let sig_empty = argsig [||]

(* --- Track codes -------------------------------------------------------------- *)

(* [track] as a single int so hot paths never box a variant:
   low 2 bits = kind (0 global, 1 cpu, 2 enclave), rest = the id. *)

let global_track = 0
let cpu_track c = (c lsl 2) lor 1
let enclave_track e = (e lsl 2) lor 2

let track_code = function
  | Global -> global_track
  | Cpu c -> cpu_track c
  | Enclave e -> enclave_track e

(* Machine scope for cluster runs: bits 22+ of a track code carry
   [machine + 1] (0 = unscoped), stamped by [claim] so every record — spans,
   instants, sched events — is attributed to the machine whose lane was
   firing when it was written.  Track ids therefore live in bits 2..21.
   Process-global like the installed sink itself: the cluster's lane loop
   calls {!set_machine} on every lane switch. *)

let track_id_mask = 0xFFFFF
let scope_shift = 22

(* [scope] holds machine + 1 (0 = unscoped); [scope_meta] caches it
   pre-shifted into meta-word position (track code << 17, scope << 22
   within the code), so the claim fast path pays one load and one [lor]. *)
let scope = ref 0
let scope_meta = ref 0

let set_machine m =
  scope := (if m < 0 then 0 else m + 1);
  scope_meta := !scope lsl (scope_shift + 17)

let decode_track code =
  match code land 3 with
  | 1 -> Cpu ((code lsr 2) land track_id_mask)
  | 2 -> Enclave ((code lsr 2) land track_id_mask)
  | _ -> Global

(* --- Record layout ------------------------------------------------------------ *)

(* A record is [meta; time; payload...; arg values...].  The meta word packs
     bits 0..3   tag
     bit  4      migrated (dispatch only)
     bits 5..16  argsig id
     bits 17..   track code  (pad records: the pad length instead)
   Payload words per tag (after meta, time):
     span_begin  id, parent, name        span_end  id
     instant     name                    dispatch  cpu, tid, name
     preempt/block/yield/exit  cpu, tid  wake      target_cpu, tid
     idle/tick   cpu                     pad       (no time; 1st word only)
   A record never straddles the wrap point: the writer pads to the end of
   the ring and restarts at word 0, so decode always sees contiguous
   words. *)

let tag_span_begin = 0
let tag_span_end = 1
let tag_instant = 2
let tag_dispatch = 3
let tag_preempt = 4
let tag_block = 5
let tag_yield = 6
let tag_exit = 7
let tag_wake = 8
let tag_idle = 9
let tag_tick = 10
let tag_pad = 15

(* Words before the arg values, per tag. *)
let base_size =
  [| 5; 3; 3; 5; 4; 4; 4; 4; 4; 3; 3; 0; 0; 0; 0; 0 |]

let meta ~tag ~asig ~track = tag lor (asig lsl 5) lor (track lsl 17)
let meta_tag m = m land 15
let meta_sig m = (m lsr 5) land 0xfff
let meta_track m = m lsr 17

let record_size m =
  Array.unsafe_get base_size (m land 15)
  + Array.unsafe_get !sig_lens ((m lsr 5) land 0xfff)

(* --- Per-queue FIFO of open message spans ------------------------------------- *)

(* Message consume order is produce order per queue (Squeue pops its FIFO
   head), so the (tid, tseq) -> span id join is a per-queue ring of
   (key, id) pairs: open pushes, take pops the head and compares keys — no
   hashing on the hot path.  Entries exist only for kept spans of messages
   produced under the installed sink, and a queue's ring starts empty when
   the queue is created ({!note_queue_owner}), so the head is always the
   oldest entry still in that queue.  A consumed message whose key is not
   the head's has no entry: its span was sampled out, or it was produced
   before the sink was installed. *)

module Qfifo = struct
  type t = {
    mutable buf : int array;  (* 2 words per entry: key, span id *)
    mutable fmask : int;  (* entries - 1 *)
    mutable fhead : int;  (* total pushed *)
    mutable ftail : int;  (* total popped *)
  }

  let create () = { buf = Array.make 32 0; fmask = 15; fhead = 0; ftail = 0 }

  let grow f =
    let entries = f.fmask + 1 in
    let buf = Array.make (4 * entries) 0 in
    for i = 0 to f.fhead - f.ftail - 1 do
      let src = ((f.ftail + i) land f.fmask) * 2 in
      buf.(2 * i) <- f.buf.(src);
      buf.((2 * i) + 1) <- f.buf.(src + 1)
    done;
    f.buf <- buf;
    f.fhead <- f.fhead - f.ftail;
    f.ftail <- 0;
    f.fmask <- (2 * entries) - 1

  let[@inline] push f ~key ~id =
    if f.fhead - f.ftail > f.fmask then grow f;
    let i = (f.fhead land f.fmask) * 2 in
    Array.unsafe_set f.buf i key;
    Array.unsafe_set f.buf (i + 1) id;
    f.fhead <- f.fhead + 1

  let clear f =
    f.fhead <- 0;
    f.ftail <- 0

  (* The head's span id when its key is [key], else -1. *)
  let[@inline] take f ~key =
    let i = (f.ftail land f.fmask) * 2 in
    if f.ftail < f.fhead && Array.unsafe_get f.buf i = key then begin
      f.ftail <- f.ftail + 1;
      Array.unsafe_get f.buf (i + 1)
    end
    else -1
end

(* --- Tiny int->int2 open-addressing table (transaction joins) ----------------- *)

module Itab = struct
  let empty_k = min_int
  let tomb_k = min_int + 1

  type t = {
    mutable keys : int array;
    mutable v1 : int array;
    mutable v2 : int array;
    mutable n : int;  (* live entries *)
    mutable used : int;  (* live + tombstones *)
    mutable mask : int;
  }

  let create () =
    { keys = Array.make 32 empty_k; v1 = Array.make 32 0; v2 = Array.make 32 0;
      n = 0; used = 0; mask = 31 }

  let slot_hash k mask =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land mask

  (* Slot of [k], or of the first empty cell past its probe chain. *)
  let rec probe keys mask k i =
    let kk = Array.unsafe_get keys i in
    if kk = k || kk = empty_k then i
    else probe keys mask k ((i + 1) land mask)

  (* Top-level tail recursion (a local loop would allocate refs/closures on
     the hot path).  Walks the probe chain for [k], remembering the first
     tombstone for reuse. *)
  let rec insert_scan t k a b mask i free =
    let kk = Array.unsafe_get t.keys i in
    if kk = k then begin
      t.v1.(i) <- a;
      t.v2.(i) <- b
    end
    else if kk = empty_k then begin
      let j = if free >= 0 then free else i in
      if t.keys.(j) = empty_k then t.used <- t.used + 1;
      t.keys.(j) <- k;
      t.v1.(j) <- a;
      t.v2.(j) <- b;
      t.n <- t.n + 1
    end
    else
      insert_scan t k a b mask ((i + 1) land mask)
        (if kk = tomb_k && free < 0 then i else free)

  let rec insert t k a b =
    if 2 * (t.used + 1) > Array.length t.keys then rehash t;
    insert_scan t k a b t.mask (slot_hash k t.mask) (-1)

  and rehash t =
    let size = Array.length t.keys in
    let size' = if 2 * (t.n + 1) > size / 2 then 2 * size else size in
    let keys = t.keys and v1 = t.v1 and v2 = t.v2 in
    t.keys <- Array.make size' empty_k;
    t.v1 <- Array.make size' 0;
    t.v2 <- Array.make size' 0;
    t.mask <- size' - 1;
    t.n <- 0;
    t.used <- 0;
    Array.iteri
      (fun i k -> if k <> empty_k && k <> tomb_k then insert t k v1.(i) v2.(i))
      keys

  (* Slot of [k], or -1. *)
  let find t k =
    let i = probe t.keys t.mask k (slot_hash k t.mask) in
    if t.keys.(i) = k then i else -1

  (* Free the chain tail eagerly: when the slot after [i] is empty, no probe
     chain continues past [i], so [i] (and any tombstones immediately before
     it) can revert to empty instead of tombstoning.  An alternating
     open/take pattern would otherwise accumulate tombstones and thrash
     [rehash] on every handful of inserts. *)
  let rec free_back t j =
    t.keys.(j) <- empty_k;
    t.used <- t.used - 1;
    let p = (j - 1) land t.mask in
    if t.keys.(p) = tomb_k then free_back t p

  let remove t i =
    t.n <- t.n - 1;
    if t.keys.((i + 1) land t.mask) = empty_k then free_back t i
    else t.keys.(i) <- tomb_k
end

(* --- Sink --------------------------------------------------------------------- *)

type t = {
  ring : int array;
  cap_words : int;  (* a power of two *)
  wmask : int;
  mutable head : int;  (* total words ever claimed (monotonic) *)
  mutable tail : int;  (* word offset of the oldest surviving record *)
  mutable written : int;  (* records ever written *)
  mutable drop_count : int;  (* records lost to wrap *)
  mutable next_id : int;
  mutable max_time : int;
  (* span sampling *)
  sample_n : int;
  srng : Sim.Rng.t;
  mutable s_count : int array;  (* per interned name: spans until next keep *)
  mutable s_phase : int array;  (* per interned name: kept phase, -1 unset *)
  (* cross-layer joins *)
  mutable msg_fifos : Qfifo.t array;  (* per qid *)
  mutable sched_id : int array;  (* tid -> span id, -1 = none *)
  mutable sched_began : int array;
  txn_open : Itab.t;  (* txn_id -> (span id, began) *)
  mutable pass : int;
}

let c_ring_dropped = Metrics.counter "obs.ring_dropped"

let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

let default_capacity = 1 lsl 17

let no_fifo : Qfifo.t array = [||]

let create ?(capacity = default_capacity) ?(sample = 1) ?(seed = 42) () =
  if capacity <= 0 then invalid_arg "Obs.Sink.create: capacity must be positive";
  if sample <= 0 then invalid_arg "Obs.Sink.create: sample must be positive";
  let cap_words = pow2 (max capacity 16) 16 in
  {
    ring = Array.make cap_words 0;
    cap_words;
    wmask = cap_words - 1;
    head = 0;
    tail = 0;
    written = 0;
    drop_count = 0;
    next_id = 1;
    max_time = 0;
    sample_n = sample;
    srng = Sim.Rng.create seed;
    s_count = [||];
    s_phase = [||];
    msg_fifos = no_fifo;
    sched_id = Array.make 64 (-1);
    sched_began = Array.make 64 0;
    txn_open = Itab.create ();
    pass = 0;
  }

let capacity t = t.cap_words
let sample t = t.sample_n
let recorded t = t.written
let dropped t = t.drop_count
let length t = t.written - t.drop_count
let last_time t = t.max_time

(* --- Global installation ------------------------------------------------------ *)

let installed : t option ref = ref None

(* Queue ownership (qid -> enclave id) is recorded unconditionally at
   queue-creation time and read per produced message, so it is a dense
   growable array rather than a table.  It is process-global state; install
   resets it so ownership cannot leak between consecutive runs in one
   process (see note_queue_owner below). *)
let queue_owners = ref (Array.make 64 (-1))

let reset_queue_owners () = Array.fill !queue_owners 0 (Array.length !queue_owners) (-1)

let install t =
  reset_queue_owners ();
  set_machine (-1);
  installed := Some t

let uninstall () =
  set_machine (-1);
  installed := None
let current () = !installed
let[@inline] enabled () = !installed != None

(* Machines number their qids/tids/txn ids independently, so when a scope
   is active the join keys are offset into a per-machine range — otherwise
   two machines' (qid, tid, tseq) joins would collide in the one installed
   sink.  With no scope the offsets are 0 and the layout is exactly the
   single-machine one. *)
let[@inline] scope_qid qid = qid + (!scope lsl 10)
let[@inline] scope_tid tid = tid + (!scope lsl 12)
let[@inline] scope_txn txn_id = txn_id lxor (!scope lsl 40)

(* Called when a queue is created.  A later kernel under the same sink (an
   upgrade's replacement, a second run) numbers its queues from 0 again, so
   the new queue's message FIFO starts empty: entries an earlier queue with
   this qid never consumed must not join the new queue's messages. *)
let note_queue_owner ~qid ~eid =
  let qid = if qid >= 0 then scope_qid qid else qid in
  if qid >= 0 then begin
    if qid >= Array.length !queue_owners then begin
      let n = pow2 (qid + 1) (2 * Array.length !queue_owners) in
      let grown = Array.make n (-1) in
      Array.blit !queue_owners 0 grown 0 (Array.length !queue_owners);
      queue_owners := grown
    end;
    !queue_owners.(qid) <- eid;
    match !installed with
    | Some t when qid < Array.length t.msg_fifos -> Qfifo.clear t.msg_fifos.(qid)
    | _ -> ()
  end

let[@inline] queue_owner_eid ~qid =
  let qid = if qid >= 0 then scope_qid qid else qid in
  if qid >= 0 && qid < Array.length !queue_owners then !queue_owners.(qid) else -1

let[@inline] queue_track_code ~qid =
  match queue_owner_eid ~qid with -1 -> global_track | eid -> enclave_track eid

(* --- Claiming ring space ------------------------------------------------------ *)

(* Advance the tail until [need] words are free past [head], dropping the
   oldest records.  Pads don't count as drops. *)
let rec make_room t need =
  if t.head + need - t.tail > t.cap_words then begin
    let m = Array.unsafe_get t.ring (t.tail land t.wmask) in
    if m land 15 = tag_pad then t.tail <- t.tail + meta_track m
    else begin
      t.tail <- t.tail + record_size m;
      t.drop_count <- t.drop_count + 1;
      Metrics.incr c_ring_dropped
    end;
    make_room t need
  end

(* Slow path of [claim]: the record would straddle the wrap point, so pad
   to the end of the ring and restart at word 0. *)
let claim_pad t ~size ~w =
  let r = t.cap_words - w in
  make_room t r;
  Array.unsafe_set t.ring w (tag_pad lor (r lsl 17));
  t.head <- t.head + r;
  make_room t size

(* Claim [size] contiguous words; returns the word index of the record.
   Also stamps meta and time (payload stores are the caller's).  The fast
   path — record fits before the wrap point, ring not full — is two
   compares; everything else is out of line. *)
let[@inline] claim t ~size ~m ~time =
  if time > t.max_time then t.max_time <- time;
  let w = t.head land t.wmask in
  let w =
    if w + size > t.cap_words then begin
      claim_pad t ~size ~w;
      0
    end
    else begin
      if t.head + size - t.tail > t.cap_words then make_room t size;
      w
    end
  in
  let ring = t.ring in
  Array.unsafe_set ring w (m lor !scope_meta);
  Array.unsafe_set ring (w + 1) time;
  t.head <- t.head + size;
  t.written <- t.written + 1;
  w

(* --- Recording (int-only writers) --------------------------------------------- *)

(* 1-in-N per-name span sampling.  The kept phase for a name is drawn once
   from a labeled sub-stream of the sink's rng — deterministic for a fixed
   (seed, name), independent of draw order.  [s_count.(name)] holds the
   countdown to the next kept span (a decrement and compare per check —
   equivalent to [count mod n = phase] but with no division on the hot
   path); the phase is materialised lazily on a name's first span. *)
let sampled_slow t name =
  if name >= Array.length t.s_count then begin
    let n = pow2 (interned_count ()) (max 64 (2 * Array.length t.s_count)) in
    let grow a fill =
      let g = Array.make n fill in
      Array.blit a 0 g 0 (Array.length a);
      g
    in
    t.s_count <- grow t.s_count 0;
    t.s_phase <- grow t.s_phase (-1)
  end;
  let p =
    Sim.Rng.int (Sim.Rng.stream t.srng ~label:(intern_name name)) t.sample_n
  in
  t.s_phase.(name) <- p;
  (* This span is kept iff the phase is 0; otherwise [p] more spans pass
     first. *)
  if p = 0 then begin
    t.s_count.(name) <- t.sample_n - 1;
    true
  end
  else begin
    t.s_count.(name) <- p - 1;
    false
  end

let[@inline] sampled t name =
  t.sample_n <= 1
  ||
  if name < Array.length t.s_count && t.s_phase.(name) >= 0 then begin
    let c = t.s_count.(name) in
    if c = 0 then begin
      t.s_count.(name) <- t.sample_n - 1;
      true
    end
    else begin
      t.s_count.(name) <- c - 1;
      false
    end
  end
  else sampled_slow t name

(* Span writers return the span id, or 0 when the span was sampled out (a
   0 id parents nothing and its end is dropped, so a sampled trace stays
   well-formed). *)

let span_begin_i t ~time ~parent ~name ~track =
  if not (sampled t name) then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let w = claim t ~size:5 ~m:(meta ~tag:tag_span_begin ~asig:0 ~track) ~time in
    let ring = t.ring in
    Array.unsafe_set ring (w + 2) id;
    Array.unsafe_set ring (w + 3) parent;
    Array.unsafe_set ring (w + 4) name;
    id
  end

let span_begin_i1 t ~time ~parent ~name ~track ~asig ~v0 =
  if not (sampled t name) then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let w = claim t ~size:6 ~m:(meta ~tag:tag_span_begin ~asig ~track) ~time in
    let ring = t.ring in
    Array.unsafe_set ring (w + 2) id;
    Array.unsafe_set ring (w + 3) parent;
    Array.unsafe_set ring (w + 4) name;
    Array.unsafe_set ring (w + 5) v0;
    id
  end

let span_begin_i2 t ~time ~parent ~name ~track ~asig ~v0 ~v1 =
  if not (sampled t name) then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let w = claim t ~size:7 ~m:(meta ~tag:tag_span_begin ~asig ~track) ~time in
    let ring = t.ring in
    Array.unsafe_set ring (w + 2) id;
    Array.unsafe_set ring (w + 3) parent;
    Array.unsafe_set ring (w + 4) name;
    Array.unsafe_set ring (w + 5) v0;
    Array.unsafe_set ring (w + 6) v1;
    id
  end

let span_begin_i3 t ~time ~parent ~name ~track ~asig ~v0 ~v1 ~v2 =
  if not (sampled t name) then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let w = claim t ~size:8 ~m:(meta ~tag:tag_span_begin ~asig ~track) ~time in
    let ring = t.ring in
    Array.unsafe_set ring (w + 2) id;
    Array.unsafe_set ring (w + 3) parent;
    Array.unsafe_set ring (w + 4) name;
    Array.unsafe_set ring (w + 5) v0;
    Array.unsafe_set ring (w + 6) v1;
    Array.unsafe_set ring (w + 7) v2;
    id
  end

let span_end_i t ~time id =
  if id > 0 then begin
    let w = claim t ~size:3 ~m:tag_span_end ~time in
    Array.unsafe_set t.ring (w + 2) id
  end

let span_end_i1 t ~time ~asig ~v0 id =
  if id > 0 then begin
    let w = claim t ~size:4 ~m:(tag_span_end lor (asig lsl 5)) ~time in
    let ring = t.ring in
    Array.unsafe_set ring (w + 2) id;
    Array.unsafe_set ring (w + 3) v0
  end

let span_end_i2 t ~time ~asig ~v0 ~v1 id =
  if id > 0 then begin
    let w = claim t ~size:5 ~m:(tag_span_end lor (asig lsl 5)) ~time in
    let ring = t.ring in
    Array.unsafe_set ring (w + 2) id;
    Array.unsafe_set ring (w + 3) v0;
    Array.unsafe_set ring (w + 4) v1
  end

let span_end_i3 t ~time ~asig ~v0 ~v1 ~v2 id =
  if id > 0 then begin
    let w = claim t ~size:6 ~m:(tag_span_end lor (asig lsl 5)) ~time in
    let ring = t.ring in
    Array.unsafe_set ring (w + 2) id;
    Array.unsafe_set ring (w + 3) v0;
    Array.unsafe_set ring (w + 4) v1;
    Array.unsafe_set ring (w + 5) v2
  end

let instant_i t ~time ~name ~track =
  let w = claim t ~size:3 ~m:(meta ~tag:tag_instant ~asig:0 ~track) ~time in
  Array.unsafe_set t.ring (w + 2) name

let instant_i1 t ~time ~name ~track ~asig ~v0 =
  let w = claim t ~size:4 ~m:(meta ~tag:tag_instant ~asig ~track) ~time in
  let ring = t.ring in
  Array.unsafe_set ring (w + 2) name;
  Array.unsafe_set ring (w + 3) v0

let instant_i2 t ~time ~name ~track ~asig ~v0 ~v1 =
  let w = claim t ~size:5 ~m:(meta ~tag:tag_instant ~asig ~track) ~time in
  let ring = t.ring in
  Array.unsafe_set ring (w + 2) name;
  Array.unsafe_set ring (w + 3) v0;
  Array.unsafe_set ring (w + 4) v1

let instant_i3 t ~time ~name ~track ~asig ~v0 ~v1 ~v2 =
  let w = claim t ~size:6 ~m:(meta ~tag:tag_instant ~asig ~track) ~time in
  let ring = t.ring in
  Array.unsafe_set ring (w + 2) name;
  Array.unsafe_set ring (w + 3) v0;
  Array.unsafe_set ring (w + 4) v1;
  Array.unsafe_set ring (w + 5) v2

let sched2 t ~time ~tag ~a ~b =
  let w = claim t ~size:4 ~m:tag ~time in
  let ring = t.ring in
  Array.unsafe_set ring (w + 2) a;
  Array.unsafe_set ring (w + 3) b

let dispatch_i t ~time ~cpu ~tid ~name ~migrated =
  let m = if migrated then tag_dispatch lor 16 else tag_dispatch in
  let w = claim t ~size:5 ~m ~time in
  let ring = t.ring in
  Array.unsafe_set ring (w + 2) cpu;
  Array.unsafe_set ring (w + 3) tid;
  Array.unsafe_set ring (w + 4) name

let preempt_i t ~time ~cpu ~tid = sched2 t ~time ~tag:tag_preempt ~a:cpu ~b:tid
let block_i t ~time ~cpu ~tid = sched2 t ~time ~tag:tag_block ~a:cpu ~b:tid
let yield_i t ~time ~cpu ~tid = sched2 t ~time ~tag:tag_yield ~a:cpu ~b:tid
let exit_i t ~time ~cpu ~tid = sched2 t ~time ~tag:tag_exit ~a:cpu ~b:tid
let wake_i t ~time ~tid ~target_cpu = sched2 t ~time ~tag:tag_wake ~a:target_cpu ~b:tid

let idle_i t ~time ~cpu =
  let w = claim t ~size:3 ~m:tag_idle ~time in
  Array.unsafe_set t.ring (w + 2) cpu

let tick_i t ~time ~cpu =
  let w = claim t ~size:3 ~m:tag_tick ~time in
  Array.unsafe_set t.ring (w + 2) cpu

(* --- Recording (structured compatibility API) ---------------------------------- *)

let sched t ~time s =
  match s with
  | Dispatch { cpu; tid; name; migrated } ->
    dispatch_i t ~time ~cpu ~tid ~name:(intern name) ~migrated
  | Preempt { cpu; tid } -> preempt_i t ~time ~cpu ~tid
  | Block { cpu; tid } -> block_i t ~time ~cpu ~tid
  | Yield { cpu; tid } -> yield_i t ~time ~cpu ~tid
  | Exit { cpu; tid } -> exit_i t ~time ~cpu ~tid
  | Wake { tid; target_cpu } -> wake_i t ~time ~tid ~target_cpu
  | Idle { cpu } -> idle_i t ~time ~cpu
  | Tick { cpu } -> tick_i t ~time ~cpu

(* Encode one string arg value: ints that round-trip exactly stay raw ints
   (decode prints them back with [string_of_int]); everything else is
   interned.  Compat-only path: builds the signature arrays per call. *)
let enc_arg (k, v) =
  let kid = intern k in
  match int_of_string_opt v with
  | Some n when string_of_int n = v -> (arg_int kid, n)
  | _ -> (arg_str kid, intern v)

let enc_args args =
  let enc = List.map enc_arg args in
  let asig = argsig (Array.of_list (List.map fst enc)) in
  (asig, List.map snd enc)

let span_begin t ~time ?(parent = 0) ~name ~track ?(args = []) () =
  let name = intern name in
  let track = track_code track in
  match enc_args args with
  | asig, [] ->
    if asig = sig_empty then span_begin_i t ~time ~parent ~name ~track
    else span_begin_i1 t ~time ~parent ~name ~track ~asig ~v0:0 (* unreachable *)
  | asig, [ v0 ] -> span_begin_i1 t ~time ~parent ~name ~track ~asig ~v0
  | asig, [ v0; v1 ] -> span_begin_i2 t ~time ~parent ~name ~track ~asig ~v0 ~v1
  | asig, [ v0; v1; v2 ] -> span_begin_i3 t ~time ~parent ~name ~track ~asig ~v0 ~v1 ~v2
  | _ -> invalid_arg "Obs.Sink: at most 3 args per record"

let span_end t ~time ?(args = []) id =
  match enc_args args with
  | _, [] -> span_end_i t ~time id
  | asig, [ v0 ] -> span_end_i1 t ~time ~asig ~v0 id
  | asig, [ v0; v1 ] -> span_end_i2 t ~time ~asig ~v0 ~v1 id
  | asig, [ v0; v1; v2 ] -> span_end_i3 t ~time ~asig ~v0 ~v1 ~v2 id
  | _ -> invalid_arg "Obs.Sink: at most 3 args per record"

let instant t ~time ~name ~track ?(args = []) () =
  let name = intern name in
  let track = track_code track in
  match enc_args args with
  | _, [] -> instant_i t ~time ~name ~track
  | asig, [ v0 ] -> instant_i1 t ~time ~name ~track ~asig ~v0
  | asig, [ v0; v1 ] -> instant_i2 t ~time ~name ~track ~asig ~v0 ~v1
  | asig, [ v0; v1; v2 ] -> instant_i3 t ~time ~name ~track ~asig ~v0 ~v1 ~v2
  | _ -> invalid_arg "Obs.Sink: at most 3 args per record"

(* --- Cross-layer joining ------------------------------------------------------- *)

let[@inline] msg_key ~tid ~tseq = (tid lsl 32) lxor tseq

let msg_fifo t qid =
  if qid >= Array.length t.msg_fifos then begin
    let n = pow2 (qid + 1) (max 8 (2 * Array.length t.msg_fifos)) in
    let grown = Array.init n (fun i ->
        if i < Array.length t.msg_fifos then t.msg_fifos.(i) else Qfifo.create ())
    in
    t.msg_fifos <- grown
  end;
  Array.unsafe_get t.msg_fifos qid

let[@inline] open_msg_span t ~qid ~tid ~tseq ~id =
  if qid >= 0 then
    Qfifo.push (msg_fifo t (scope_qid qid)) ~key:(msg_key ~tid ~tseq) ~id

(* Returns the span id, or -1 when no span was opened for this message. *)
let[@inline] take_msg_span t ~qid ~tid ~tseq =
  let qid = if qid >= 0 then scope_qid qid else qid in
  if qid < 0 || qid >= Array.length t.msg_fifos then -1
  else Qfifo.take (Array.unsafe_get t.msg_fifos qid) ~key:(msg_key ~tid ~tseq)

let ensure_tid t tid =
  if tid >= Array.length t.sched_id then begin
    let n = pow2 (tid + 1) (2 * Array.length t.sched_id) in
    let ids = Array.make n (-1) in
    Array.blit t.sched_id 0 ids 0 (Array.length t.sched_id);
    let began = Array.make n 0 in
    Array.blit t.sched_began 0 began 0 (Array.length t.sched_began);
    t.sched_id <- ids;
    t.sched_began <- began
  end

let open_sched_span t ~tid ~id ~began =
  let tid = if tid >= 0 then scope_tid tid else tid in
  if tid >= 0 then begin
    ensure_tid t tid;
    t.sched_id.(tid) <- id;
    t.sched_began.(tid) <- began
  end

(* The open chain span id for [tid]: -1 when none is open (a 0 id means the
   chain exists but its span was sampled out). *)
let[@inline] sched_span_id t ~tid =
  let tid = if tid >= 0 then scope_tid tid else tid in
  if tid >= 0 && tid < Array.length t.sched_id then Array.unsafe_get t.sched_id tid
  else -1

let sched_span_began t ~tid =
  let tid = if tid >= 0 then scope_tid tid else tid in
  if tid >= 0 && tid < Array.length t.sched_began then
    Array.unsafe_get t.sched_began tid
  else 0

let take_sched_span t ~tid =
  let id = sched_span_id t ~tid in
  if id >= 0 then Array.unsafe_set t.sched_id (scope_tid tid) (-1);
  id

let open_txn_span t ~txn_id ~id ~began =
  Itab.insert t.txn_open (scope_txn txn_id) id began

(* The begin time of the open transaction span; must be read before the
   take. *)
let txn_span_began t ~txn_id =
  let i = Itab.find t.txn_open (scope_txn txn_id) in
  if i < 0 then 0 else t.txn_open.Itab.v2.(i)

let take_txn_span t ~txn_id =
  let i = Itab.find t.txn_open (scope_txn txn_id) in
  if i < 0 then -1
  else begin
    let id = t.txn_open.Itab.v1.(i) in
    Itab.remove t.txn_open i;
    id
  end

let set_cur_pass t id = t.pass <- id
let cur_pass t = t.pass

(* --- Decoding (offline readers) ------------------------------------------------ *)

let decode_args t w m =
  let codes = !sig_codes.(meta_sig m) in
  let base = w + Array.unsafe_get base_size (m land 15) in
  let rec go i acc =
    if i < 0 then acc
    else begin
      let code = codes.(i) in
      let v = t.ring.(base + i) in
      let key = intern_name (code asr 1) in
      let value = if code land 1 = 1 then intern_name v else string_of_int v in
      go (i - 1) ((key, value) :: acc)
    end
  in
  go (Array.length codes - 1) []

let decode t w m =
  let time = t.ring.(w + 1) in
  let tag = meta_tag m in
  let a = t.ring.(w + 2) in
  let kind =
    if tag = tag_span_begin then
      Span_begin { id = a; parent = t.ring.(w + 3); name = intern_name t.ring.(w + 4) }
    else if tag = tag_span_end then Span_end { id = a }
    else if tag = tag_instant then Instant { name = intern_name a }
    else
      Sched
        (if tag = tag_dispatch then
           Dispatch
             {
               cpu = a;
               tid = t.ring.(w + 3);
               name = intern_name t.ring.(w + 4);
               migrated = m land 16 <> 0;
             }
         else if tag = tag_preempt then Preempt { cpu = a; tid = t.ring.(w + 3) }
         else if tag = tag_block then Block { cpu = a; tid = t.ring.(w + 3) }
         else if tag = tag_yield then Yield { cpu = a; tid = t.ring.(w + 3) }
         else if tag = tag_exit then Exit { cpu = a; tid = t.ring.(w + 3) }
         else if tag = tag_wake then Wake { tid = t.ring.(w + 3); target_cpu = a }
         else if tag = tag_idle then Idle { cpu = a }
         else Tick { cpu = a })
  in
  let track =
    (* sched and span_end records are always on the global track. *)
    if tag >= tag_dispatch || tag = tag_span_end then Global
    else decode_track (meta_track m)
  in
  let machine = (meta_track m lsr scope_shift) - 1 in
  { time; track; machine; kind; args = decode_args t w m }

(* Decode records oldest -> newest. *)
let iter t f =
  let o = ref t.tail in
  while !o < t.head do
    let w = !o land t.wmask in
    let m = t.ring.(w) in
    if m land 15 = tag_pad then o := !o + meta_track m
    else begin
      f (decode t w m);
      o := !o + record_size m
    end
  done

let events t =
  let out = ref [] in
  iter t (fun ev -> out := ev :: !out);
  List.rev !out
