(** Trace event sink: a preallocated int-packed ring buffer.

    Recording an event is a handful of plain int stores into a
    fixed-capacity ring — no allocation on the hot path.  Records are
    variable-length (3–8 words), sized to their payload: string names are
    interned once to small ints ({!intern}, typically at hook-install
    time); the set of arg {e keys} a record carries is registered once as
    an arg signature ({!argsig}) so the record stores only the value
    words.  When the ring is full the oldest records are overwritten
    (drop-oldest) and each loss is counted in the [obs.ring_dropped]
    metric.

    At most one sink is {e installed} globally; instrumentation sites test
    {!enabled} (a single load and compare) and do nothing when no sink is
    installed.

    The structured {!ev} view exists only on the read side: {!iter} and
    {!events} decode the ring's records after a run, and {!Perfetto}
    exports that view, the one format a trace is written in.  The write
    path stays allocation-free. *)

(** {1 Decoded event view (read side)} *)

type track =
  | Cpu of int  (** rendered on the per-CPU timeline *)
  | Enclave of int  (** rendered on the enclave's async track *)
  | Global

(** Scheduler events, which the kernel reports through {!Hooks}, plus
    timer ticks. *)
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
      (** [parent = 0] means no parent. *)
  | Span_end of { id : int }
  | Instant of { name : string }
  | Sched of sched

type ev = {
  time : int;
  track : track;
  machine : int;
      (** Machine the record was written under in a cluster run ({!set_machine});
          [-1] in single-machine runs. *)
  kind : kind;
  args : (string * string) list;
}

type t

val create : ?capacity:int -> ?sample:int -> ?seed:int -> unit -> t
(** [capacity] is the ring size in 8-byte words (default 2^17 = 1 MiB),
    rounded up to a power of two; records take 3–8 words each, so the
    default holds roughly 20k–40k records.  Once full, new records
    overwrite the oldest.  [sample] > 1 keeps 1 in [sample] spans per span
    name; the kept phase is drawn from a labeled {!Sim.Rng} stream of
    [seed], so a sampled run is bit-reproducible for a fixed seed.
    Instants and sched events are never sampled (they carry the per-CPU
    timeline). *)

val capacity : t -> int
(** Ring size in words. *)

val sample : t -> int

val recorded : t -> int
(** Total records ever written, including overwritten ones. *)

val dropped : t -> int
(** Records lost to ring wrap. *)

(** {1 Global installation} *)

val install : t -> unit
(** Also resets the process-global queue-ownership map, so ownership
    cannot leak between consecutive runs in one process. *)

val uninstall : unit -> unit
val current : unit -> t option

val enabled : unit -> bool
(** The zero-cost gate: instrumentation sites check this before building
    any event payload. *)

(** {1 Interning} *)

val intern : string -> int
(** Process-global and append-only: ids stay valid across sinks and
    install/uninstall.  Id 0 is reserved for [""]. *)

val arg_int : int -> int
(** [arg_int key_id] — key code for an arg whose value word is a raw int. *)

val arg_str : int -> int
(** [arg_str key_id] — key code for an arg whose value word is an interned
    string id. *)

val argsig : int array -> int
(** Register an ordered list of arg key codes as a signature and return
    its id (deduplicated, process-global, at most 3 keys).  Records store
    a signature id plus value words; the keys themselves are never written
    per record. *)

(** {1 Track codes} *)

val global_track : int
val enclave_track : int -> int

(** {1 Machine scope (cluster runs)}

    Process-global, like sink installation: the cluster lane loop calls
    {!set_machine} whenever it fires an event on a different machine's lane,
    and every record written meanwhile — and every cross-layer join key —
    is attributed to that machine.  Track ids are limited to 20 bits; the
    machine lives in the track code's high bits, so single-machine runs
    (scope unset) produce bit-identical rings to before. *)

val set_machine : int -> unit
(** [set_machine m] scopes subsequent records to machine [m]; [-1] (or
    {!install}/{!uninstall}) clears the scope. *)

(** {1 Recording — int writers (hot path)}

    All writers are plain stores into the ring; the [_iN] suffix is the
    number of arg value words, which must match the arity of [asig].  Span
    writers return the span id, or 0 when the span was sampled out; a 0 id
    is inert: it parents nothing and [span_end*] on it is a no-op. *)

val span_begin_i1 :
  t -> time:int -> parent:int -> name:int -> track:int -> asig:int -> v0:int -> int

val span_begin_i3 :
  t -> time:int -> parent:int -> name:int -> track:int ->
  asig:int -> v0:int -> v1:int -> v2:int -> int

val span_end_i : t -> time:int -> int -> unit
val span_end_i1 : t -> time:int -> asig:int -> v0:int -> int -> unit
val span_end_i2 : t -> time:int -> asig:int -> v0:int -> v1:int -> int -> unit

val instant_i1 : t -> time:int -> name:int -> track:int -> asig:int -> v0:int -> unit

val instant_i2 :
  t -> time:int -> name:int -> track:int -> asig:int -> v0:int -> v1:int -> unit

val instant_i3 :
  t -> time:int -> name:int -> track:int ->
  asig:int -> v0:int -> v1:int -> v2:int -> unit

val dispatch_i :
  t -> time:int -> cpu:int -> tid:int -> name:int -> migrated:bool -> unit

val preempt_i : t -> time:int -> cpu:int -> tid:int -> unit
val block_i : t -> time:int -> cpu:int -> tid:int -> unit
val yield_i : t -> time:int -> cpu:int -> tid:int -> unit
val exit_i : t -> time:int -> cpu:int -> tid:int -> unit
val wake_i : t -> time:int -> tid:int -> target_cpu:int -> unit
val idle_i : t -> time:int -> cpu:int -> unit
val tick_i : t -> time:int -> cpu:int -> unit

(** {1 Recording — structured compatibility API}

    Thin wrappers over the int writers that intern names and build arg
    signatures on the way in (this path may allocate); at most 3 args per
    record ([Invalid_argument] beyond that).  Int-valued arg strings are
    stored as raw ints and decode back via [string_of_int], so a record
    written through this API decodes to exactly what was given. *)

val sched : t -> time:int -> sched -> unit

val span_begin :
  t -> time:int -> ?parent:int -> name:string -> track:track ->
  ?args:(string * string) list -> unit -> int
(** Returns the new span's id (> 0), or 0 when sampled out. *)

val span_end : t -> time:int -> ?args:(string * string) list -> int -> unit

val instant :
  t -> time:int -> name:string -> track:track ->
  ?args:(string * string) list -> unit -> unit

(** {1 Reading (offline decode)} *)

val length : t -> int
(** Records currently stored. *)

val iter : t -> (ev -> unit) -> unit
(** Decodes stored records oldest → newest. *)

val events : t -> ev list

val last_time : t -> int
(** Largest timestamp recorded; 0 when empty. *)

(** {1 Cross-layer span joining}

    Int-keyed structures (no allocation on the hot path) so the layer that
    opens a span and the layer that closes it need not share state.
    Message spans are keyed by [(qid, tid, tseq)] and held in a per-queue
    FIFO — consume order is produce order per queue, so the take pops the
    head when its key matches and otherwise returns [-1]: that message
    has no entry, because its span was sampled out or it was produced
    before the sink was installed.  A queue's FIFO starts empty when the
    queue is created ({!note_queue_owner}), so a qid that a later kernel
    reuses under the same sink never joins an earlier queue's entries.
    Wakeup→dispatch chains are keyed by [tid] (dense array), transactions
    by [txn_id] (open-addressing int table).  Absent entries are [-1]; a
    stored id of 0 means the chain exists but its span was sampled out. *)

val open_msg_span : t -> qid:int -> tid:int -> tseq:int -> id:int -> unit

val take_msg_span : t -> qid:int -> tid:int -> tseq:int -> int
(** The span id, removing the entry; -1 when the message has none. *)

val open_sched_span : t -> tid:int -> id:int -> began:int -> unit

val sched_span_id : t -> tid:int -> int
(** The open chain span for [tid], or -1. *)

val sched_span_began : t -> tid:int -> int
val take_sched_span : t -> tid:int -> int

val open_txn_span : t -> txn_id:int -> id:int -> began:int -> unit
val txn_span_began : t -> txn_id:int -> int
val take_txn_span : t -> txn_id:int -> int

val set_cur_pass : t -> int -> unit
val cur_pass : t -> int
(** Span id of the agent pass currently executing its policy code; 0 when
    none.  Used to parent transaction spans under the pass that created
    them. *)

(** {1 Queue ownership}

    [qid → enclave id], recorded unconditionally at queue-creation time
    (not gated on {!enabled}: creation is rare and a sink installed later
    still needs the mapping).  Process-global, reset by {!install}. *)

val note_queue_owner : qid:int -> eid:int -> unit
(** Called when queue [qid] is created: records its owner and starts its
    message FIFO empty in the installed sink, if any. *)

val queue_track_code : qid:int -> int
(** [Enclave eid] when known, [Global] otherwise. *)
