(* The policy DSL: an Ekiben-style combinator layer over [Ghost.Abi].

   A policy built on this module is tens of lines: pick a run-queue order
   ({!Rq}: FIFO, least-key/EDF, {!Buckets} for keyed families), pick a
   scheduling template ({!Centralized} — one spinning global agent with
   priority classes — or {!Percpu} — one agent per CPU with work stealing),
   and hook the few decisions that are genuinely policy.
   Message dispatch, dedup bookkeeping, group-commit assembly, preemption
   accounting, fastpath publication and rebuild-after-upgrade live here,
   written once and model-checked once (test/test_properties.ml).

   The layer is expressed strictly in terms of [Ghost.Abi]; the re-exports
   below are the only module paths a DSL policy needs, which is what the
   "dsl" ruleset of tools/abi_lint.ml enforces on every ported policy. *)

module Abi = Ghost.Abi
module Txn = Ghost.Txn
module Msg = Ghost.Msg
module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module Topology = Hw.Topology
module Status_word = Ghost.Status_word
module Fastpath = Fastpath
module Msg_class = Msg_class

(** What became of a submitted transaction, pre-classified so policies
    match on scheduling-relevant cases instead of raw txn status codes. *)
module Outcome : sig
  type t =
    | Committed of { tid : int; cpu : int }
    | Gone of int  (** ENOENT: the thread died before the commit landed *)
    | Rejected of { tid : int; estale : bool }  (** retry: requeue the tid *)
    | Pending
end

(** One run-queue implementation for the whole library (the former
    [Policies.Runq] and the per-policy queue clones, folded together).

    The dedup discipline is shared by every order: {!push} ignores tids
    already queued, {!drop} only clears the dedup bit (lazy removal), and
    {!pop} validates the popped tid against the live task table — so a tid
    re-pushed after a drop may briefly appear twice, the duplicate commit
    fails EBUSY and is requeued, exactly the pre-DSL behavior. *)
module Rq : sig
  type dedup = unit Sim.Idtbl.t
  (** Shareable dedup table, indexed by tid: pass the same one to several
      queues and a tid lives in at most one of them ({!Buckets} is built
      this way). *)

  type order =
    | Fifo
    | Least of (Abi.t -> Task.t -> int)
        (** min-key first; EDF with a deadline key *)

  type t

  val make :
    ?dedup:dedup ->
    ?validate:(Abi.t -> Task.t -> bool) ->
    order ->
    t
  (** [validate] gates what {!pop} may return (default:
      [Task.is_runnable]); invalid entries are silently skipped. *)

  val fifo :
    ?dedup:dedup -> ?validate:(Abi.t -> Task.t -> bool) -> unit -> t

  val least :
    ?dedup:dedup -> ?validate:(Abi.t -> Task.t -> bool) ->
    (Abi.t -> Task.t -> int) -> t

  val edf :
    ?dedup:dedup -> ?validate:(Abi.t -> Task.t -> bool) ->
    (Abi.t -> Task.t -> int) -> t
  (** [least] under its scheduling name: earliest deadline first. *)

  val length : t -> int
  val is_empty : t -> bool

  val iter : (int -> unit) -> t -> unit
  (** Raw tids in queue order; dedup and liveness are not consulted
      (fastpath publication filters with its own [task_by_tid] check). *)

  val mem : t -> int -> bool
  (** Is the tid's dedup bit set? *)

  val enqueue : t -> int -> unit
  (** Raw FIFO enqueue, no dedup check — the caller did it (see
      {!Buckets}).  @raise Invalid_argument on a keyed order. *)

  val push : t -> Abi.t -> int -> unit
  (** Dedup-checked enqueue; keyed orders look the task up to compute its
      key, silently dropping unknown tids. *)

  val drop : t -> int -> unit
  (** Lazy removal: clears the dedup bit only; {!pop} skips the stale
      entry when it surfaces. *)

  val pop : t -> Abi.t -> Task.t option
  (** Next live, validated task — stale and invalid entries are consumed
      and skipped. *)

  val first_entries : t -> (int * int) list
  (** FIFO order's first-entry index: each queued tid with its number of
      entries, in the order of its earliest entry.  Builds the index when
      no publish walk has yet; [[]] on a keyed order. *)

  val pop_entry : t -> (int * int) option
  (** Raw keyed-entry protocol (the Search policy's revisit loop): pop the
      minimum [(key, tid)] without touching the dedup bit.  Validation and
      dedup stay with the caller.  @raise Invalid_argument on FIFO. *)

  val requeue_entry : t -> key:int -> int -> unit
  (** Put a {!pop_entry} result back with a (possibly new) key.
      @raise Invalid_argument on FIFO. *)
end

(** A family of FIFO run-queues keyed by a small non-negative integer
    (per-CPU queues, per-VM cookie queues), sharing one dedup table so a
    tid lives in at most one bucket.  Buckets are created lazily on first
    touch — push, pop or even a length query — preserving each policy's
    original table layout.  {!fold} visits them in the order a 16-bucket
    [Hashtbl] holding the same bindings would. *)
module Buckets : sig
  type t

  val create :
    ?validate:(int -> Abi.t -> Task.t -> bool) ->
    ?bucket_of:(Task.t -> int) ->
    unit ->
    t
  (** [validate] is curried per bucket key; [bucket_of] is the routing key
      {!push_auto} reads off the task (default: everything to bucket 0). *)

  val bucket : t -> int -> Rq.t
  (** The bucket for a key, created on first touch. *)

  val push_auto : t -> Abi.t -> int -> unit
  (** Route by the task's own key ([bucket_of]); unknown tids are
      ignored. *)

  val pop : t -> Abi.t -> int -> Task.t option
  val len : t -> int -> int
  val drop : t -> int -> unit
  val fold : (int -> Rq.t -> 'a -> 'a) -> t -> 'a -> 'a

  val take : t -> int -> Rq.t option
  (** Detach a whole bucket (CPU-removal migration); its entries keep
      their dedup bits, so drain with {!Rq.iter} + {!drop}. *)
end

(** Group-commit assembly: accumulate transactions during a pass, submit
    them as one batch at the end (§3.3 group commits). *)
module Commit : sig
  type t

  val create : unit -> t
  val pending : t -> bool

  val add : Abi.t -> t -> ?charge:int -> Task.t -> int -> unit
  (** [add ctx com task cpu] stamps the task's thread seqnum into a txn
      targeting [cpu]; [charge] bills agent compute for the decision. *)

  val submit : Abi.t -> t -> unit
  (** Submit in {!add} order and empty the group, so it can be reused for
      the next pass; a no-op when nothing accumulated. *)
end

(** The centralized template: one spinning global agent, N priority
    classes (class 0 highest), the standard five-phase pass — drain
    messages, fill idle CPUs with class-0 work, evict lower classes for
    it, rotate over-slice threads, donate leftover idle CPUs down-class,
    publish the remainder to the BPF pick ring.  Fifo-centralized,
    central, shinjuku, snap and adaptive are all parameterizations of
    this one loop. *)
module Centralized : sig
  type stats = {
    scheduled : int array;  (** committed dispatches per class *)
    mutable preemptions : int;  (** timeslice expirations acted on *)
    mutable evictions : int;  (** lower-class threads displaced for class 0 *)
    mutable estales : int;
  }

  type t

  val stats : t -> stats

  val backlog : t -> int
  (** Class-0 queue depth right now. *)

  (* Live-tunable knob cells: static policies set them once at build time;
     the adaptive controller rewrites them between passes. *)

  val timeslice : t -> int option
  val donate_max : t -> int option

  val set_timeslice : t -> Abi.t -> int option -> unit
  (** Also pushes the new slice to the BPF tick program when the engine
      runs with a fastpath. *)

  val set_donate_max : t -> int option -> unit
  (** Cap on down-class grants per pass; [Some 0] stops donation. *)

  (* Lifecycle hooks, all optional and free when unset. *)

  val set_on_pass : t -> (Abi.t -> unit) -> unit
  (** Runs at the top of every scheduling pass (after message drain) —
      where the adaptive controller lives. *)

  val set_on_event : t -> (Abi.t -> Msg_class.event -> unit) -> unit
  (** Observes every classified message before the engine acts on it. *)

  val set_on_committed : t -> (Abi.t -> tid:int -> cpu:int -> unit) -> unit
  (** Fires on each committed dispatch — wakeup-to-dispatch latency taps. *)

  (** The shape of a scheduling pass.  [Central] filters the agent CPU
      once and keeps an assigned set, so later phases stay off CPUs
      already committed this pass; the agent charges 25 ns per message
      and 40 ns per assignment.  [Fifo] is the original fifo-centralized
      pass of Fig. 4: no set, the idle fill and the timeslice scan each
      walk the CPU list afresh, a preempted thread's slice is forgotten,
      and the charges are 10 and 25 ns. *)
  type shape = Fifo | Central

  val make :
    name:string ->
    ?nclasses:int ->
    ?classify:(Abi.t -> Task.t -> int) ->
    ?timeslice:int ->
    ?donate_idle:bool ->
    ?fastpath:bool ->
    ?shape:shape ->
    ?queue_order:(int -> Rq.order) ->
    ?cpu_rank:(Abi.t -> int list -> int list) ->
    ?donate_rank:(Abi.t -> int list -> int list) ->
    unit ->
    t * Ghost.Agent.policy
  (** With [nclasses > 1] each pass evicts lower-class threads for waiting
      class-0 work, and the fastpath's wakeup program admits class 0 only.
      [shape] defaults to [Central].  [init] rebuilds the queues from
      [managed_threads] after an in-place upgrade and (re)installs the
      fastpath programs.

      [queue_order] picks each class's run-queue order (default: FIFO for
      every class) — e.g. [Rq.Least] of an absolute deadline for an EDF
      class.  [cpu_rank] reorders (or filters) the candidate CPU list the
      class-0 phases walk — idle fill, eviction, timeslice rotation — so a
      hybrid-aware policy can fill P cores first; [donate_rank] does the
      same for the down-class donation phase (E-core spillover).  Both
      default to the identity, leaving every existing parameterization
      byte-identical.  @raise Invalid_argument when [nclasses < 1]. *)

  val publish : Abi.t -> Fastpath.t -> Rq.t -> unit
  (** The pass's last phase: publish each runnable tid of the queue that
      the ring does not hold yet, in queue order, until the ring refuses.
      Call after the pass's {!Fastpath.reconcile}. *)
end

(** The per-CPU template: one local agent per enclave CPU, per-CPU bucket
    queues, round-robin placement of new threads (ASSOCIATE_QUEUE),
    agent-seq-stamped local commits, and work stealing from the busiest
    sibling queue (§3.1/3.2). *)
module Percpu : sig
  type stats = {
    mutable scheduled : int;
    mutable estales : int;
    mutable steals : int;
  }

  type t

  val stats : t -> stats

  val make : name:string -> unit -> t * Ghost.Agent.policy
  (** Charges 25 ns per message and 40 per commit, and steals only from
      sibling queues at least 2 deep.  [init] rebuilds homes and queues
      from [managed_threads]; a removed CPU's queue migrates to the live
      CPUs. *)
end

val agent :
  name:string ->
  ?init:(Abi.t -> unit) ->
  schedule:(Abi.t -> Msg.t list -> unit) ->
  ?on_outcome:(Abi.t -> Outcome.t -> unit) ->
  ?on_cpu_removed:(Abi.t -> int -> unit) ->
  unit ->
  Ghost.Agent.policy
(** Build an agent policy from DSL callbacks: commit results arrive
    pre-classified as {!Outcome.t}.  For policies whose pass is genuinely
    bespoke (Search's cache-distance placement, secure-vm's core commits)
    but which still use the DSL queues and commit assembly. *)

val rename : Ghost.Agent.policy -> string -> Ghost.Agent.policy
(** Re-badge a policy built by a template (shinjuku and snap are renamed
    parameterizations of the central engine). *)
