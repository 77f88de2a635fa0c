(* The policy DSL: an Ekiben-style combinator layer over [Ghost.Abi].

   Policies built on this module are tens of lines: pick a run-queue order
   (FIFO, least-key/EDF, priority buckets), pick a scheduling template
   (centralized spinning agent vs. per-CPU agents), declare knobs, and hook
   the few decisions that are genuinely policy — everything else (message
   dispatch, dedup bookkeeping, group-commit assembly, preemption
   accounting, fastpath publication, rebuild-after-upgrade) lives here,
   written once and model-checked once (test/test_properties.ml).

   The layer is expressed strictly in terms of [Ghost.Abi]; the re-exports
   below are the only module paths a DSL policy needs, which is what the
   "dsl" ruleset of tools/abi_lint.ml enforces. *)

module Abi = Ghost.Abi
module Txn = Ghost.Txn
module Msg = Ghost.Msg
module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module Topology = Hw.Topology
module Status_word = Ghost.Status_word
module Fastpath = Fastpath
module Msg_class = Msg_class

(* --- Commit outcomes -------------------------------------------------------- *)

(* What became of a submitted transaction, pre-classified so policies match
   on scheduling-relevant cases instead of raw txn status codes. *)
module Outcome = struct
  type t =
    | Committed of { tid : int; cpu : int }
    | Gone of int  (* ENOENT: the thread died before the commit landed *)
    | Rejected of { tid : int; estale : bool }  (* retry: requeue the tid *)
    | Pending

  let of_txn (txn : Txn.t) =
    match txn.Txn.status with
    | Txn.Committed -> Committed { tid = txn.Txn.tid; cpu = txn.Txn.target_cpu }
    | Txn.Failed Txn.Enoent -> Gone txn.Txn.tid
    | Txn.Failed f -> Rejected { tid = txn.Txn.tid; estale = f = Txn.Estale }
    | Txn.Pending -> Pending
end

(* --- Ordered run-queues ------------------------------------------------------ *)

(* One run-queue implementation for the whole library (the former
   [Policies.Runq] and the per-policy queue clones, folded together).

   The dedup discipline is shared by every order: {!push} ignores tids
   already queued, {!drop} only clears the dedup bit (lazy removal), and
   {!pop} validates the popped tid against the live task table — so a tid
   re-pushed after a drop may briefly appear twice, the duplicate commit
   fails EBUSY and is requeued, exactly the pre-DSL behavior.

   FIFO order keeps its entries in an int ring by absolute position: the
   entry at position [p] ([head <= p < tail]) sits in slot
   [p land (Array.length ring - 1)], and the ring doubles when full.  Its
   first-entry index serves the fastpath's publish walk
   ({!Centralized.publish}), which visits each queued tid once: [count]
   holds each tid's number of entries, and [firsts.(0 .. nfirsts - 1)] the
   position of each queued tid's earliest entry, ascending.  The index is
   built by the first walk, so queues never walked pay nothing for it. *)
module Rq = struct
  type dedup = unit Sim.Idtbl.t

  type order =
    | Fifo
    | Least of (Abi.t -> Task.t -> int)  (* min-key first; EDF with a deadline key *)

  type t = {
    order : order;
    mutable ring : int array;
    mutable head : int;
    mutable tail : int;
    mutable indexed : bool;
    mutable count : int array;  (* tid -> entries, once indexed *)
    mutable firsts : int array;
    mutable nfirsts : int;
    heap : int Minheap.t;
    queued : dedup;
    validate : Abi.t -> Task.t -> bool;
  }

  let make ?dedup ?validate order =
    {
      order;
      ring = [||]; head = 0; tail = 0;
      indexed = false; count = [||]; firsts = [||]; nfirsts = 0;
      heap = Minheap.create ();
      queued = (match dedup with Some d -> d | None -> Sim.Idtbl.create ());
      validate =
        (match validate with
        | Some v -> v
        | None -> fun _ task -> Task.is_runnable task);
    }

  let fifo ?dedup ?validate () = make ?dedup ?validate Fifo
  let least ?dedup ?validate key = make ?dedup ?validate (Least key)
  let edf ?dedup ?validate deadline = least ?dedup ?validate deadline

  let length t =
    match t.order with
    | Fifo -> t.tail - t.head
    | Least _ -> Minheap.length t.heap

  let is_empty t = length t = 0
  let tid_at t p = t.ring.(p land (Array.length t.ring - 1))

  let iter f t =
    (* Raw tids, dedup and liveness not consulted (fastpath publication
       filters with its own [task_by_tid] check). *)
    match t.order with
    | Fifo ->
      for p = t.head to t.tail - 1 do
        f (tid_at t p)
      done
    | Least _ -> Minheap.iter (fun _ tid -> f tid) t.heap

  let mem t tid = Sim.Idtbl.mem t.queued tid

  let grown a need =
    let b = Array.make (Int.max need (Int.max 8 (2 * Array.length a))) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Index a new last entry: its tid's first when it has no other. *)
  let note t tid p =
    if tid >= Array.length t.count then t.count <- grown t.count (tid + 1);
    let n = t.count.(tid) in
    t.count.(tid) <- n + 1;
    if n = 0 then begin
      if t.nfirsts = Array.length t.firsts then t.firsts <- grown t.firsts 0;
      t.firsts.(t.nfirsts) <- p;
      t.nfirsts <- t.nfirsts + 1
    end

  let rec next_of t tid p = if tid_at t p = tid then p else next_of t tid (p + 1)

  (* Move [firsts.(i ..)] below [p] down one slot; the freed index. *)
  let rec shift_below t p i =
    if i < t.nfirsts && t.firsts.(i) < p then begin
      t.firsts.(i - 1) <- t.firsts.(i);
      shift_below t p (i + 1)
    end
    else i - 1

  (* The head entry, at [firsts.(0)], left: its tid's next entry, found by
     scanning forward, takes its place among the earliest positions. *)
  let unnote t tid h =
    let n = t.count.(tid) - 1 in
    t.count.(tid) <- n;
    if n = 0 then begin
      ignore (shift_below t max_int 1);
      t.nfirsts <- t.nfirsts - 1
    end
    else
      let p = next_of t tid (h + 1) in
      t.firsts.(shift_below t p 1) <- p

  let index t =
    if not t.indexed then begin
      t.indexed <- true;
      for p = t.head to t.tail - 1 do
        note t (tid_at t p) p
      done
    end

  let add t tid =
    if t.tail - t.head = Array.length t.ring then begin
      let ring = Array.make (Int.max 8 (2 * Array.length t.ring)) 0 in
      for p = t.head to t.tail - 1 do
        ring.(p land (Array.length ring - 1)) <- tid_at t p
      done;
      t.ring <- ring
    end;
    t.ring.(t.tail land (Array.length t.ring - 1)) <- tid;
    if t.indexed then note t tid t.tail;
    t.tail <- t.tail + 1

  (* Raw enqueue: no dedup check (the caller did it, e.g. {!Buckets}). *)
  let enqueue t tid =
    match t.order with
    | Fifo -> add t tid
    | Least _ -> invalid_arg "Dsl.Rq.enqueue: keyed order needs push"

  let push t ctx tid =
    match t.order with
    | Fifo ->
      if not (Sim.Idtbl.mem t.queued tid) then begin
        Sim.Idtbl.replace t.queued tid ();
        add t tid
      end
    | Least key ->
      if not (Sim.Idtbl.mem t.queued tid) then begin
        match Abi.task_by_tid ctx tid with
        | Some task ->
          Sim.Idtbl.replace t.queued tid ();
          Minheap.push t.heap ~key:(key ctx task) tid
        | None -> ()
      end

  let drop t tid = Sim.Idtbl.remove t.queued tid

  let rec pop t ctx =
    match t.order with
    | Fifo ->
      if t.head = t.tail then None
      else begin
        let h = t.head in
        let tid = tid_at t h in
        t.head <- h + 1;
        if t.indexed then unnote t tid h;
        take t ctx tid
      end
    | Least _ -> (
      match Minheap.pop t.heap with
      | None -> None
      | Some (_, tid) -> take t ctx tid)

  and take t ctx tid =
    Sim.Idtbl.remove t.queued tid;
    match Abi.task_by_tid ctx tid with
    | Some task when t.validate ctx task -> Some task
    | Some _ | None -> pop t ctx

  let first_entries t =
    index t;
    List.init t.nfirsts (fun i ->
        let tid = tid_at t t.firsts.(i) in
        (tid, t.count.(tid)))

  (* Raw keyed-entry protocol (the Search policy's revisit loop): pop the
     minimum (key, tid) without touching the dedup bit, requeue with the
     saved key.  Validation and dedup stay with the caller. *)
  let pop_entry t =
    match t.order with
    | Least _ -> Minheap.pop t.heap
    | Fifo -> invalid_arg "Dsl.Rq.pop_entry: FIFO order has no keys"

  let requeue_entry t ~key tid =
    match t.order with
    | Least _ -> Minheap.push t.heap ~key tid
    | Fifo -> invalid_arg "Dsl.Rq.requeue_entry: FIFO order has no keys"
end

(* --- Running-interval bookkeeping (timeslice rotation) ----------------------- *)

module Running = struct
  type t = (int * int) Sim.Idtbl.t  (* tid -> (cpu, started_at) *)

  let create () = Sim.Idtbl.create ()
  let note t tid ~cpu ~at = Sim.Idtbl.replace t tid (cpu, at)
  let forget t tid = Sim.Idtbl.remove t tid

  let over_slice t tid ~cpu ~now ~slice =
    match Sim.Idtbl.find_opt t tid with
    | Some (c, start) -> c = cpu && now - start >= slice
    | None -> false

  let forget_cpu t cpu =
    let stale =
      Sim.Idtbl.fold
        (fun tid (c, _) acc -> if c = cpu then tid :: acc else acc)
        t []
    in
    List.iter (Sim.Idtbl.remove t) stale
end

(* --- Keyed bucket queues ------------------------------------------------------ *)

(* A family of FIFO run-queues keyed by a small non-negative integer
   (per-CPU queues, per-VM cookie queues), sharing one dedup table so a tid
   lives in at most one bucket.  Buckets are created lazily on first touch —
   push, pop or even a length query — preserving each policy's original
   table layout. *)
module Buckets = struct
  type t = {
    tbl : (int, Rq.t) Hashtbl.t;
        (* Only the authority on fold order: it breaks ties between equally
           loaded victims in [Percpu.try_steal], so it must stay the order a
           16-bucket Hashtbl gives. *)
    by_key : Rq.t Sim.Idtbl.t;  (* the same bindings, for lookups *)
    mutable order : (int * Rq.t) array;
        (* [tbl]'s bindings in [Hashtbl.fold] order, rebuilt whenever a
           binding is added or removed (a resize reorders only then) *)
    queued : Rq.dedup;
    bucket_of : Task.t -> int;
    mk : int -> Rq.t;
  }

  let create ?validate ?(bucket_of = fun _ -> 0) () =
    let queued = Sim.Idtbl.create () in
    let mk k =
      match validate with
      | None -> Rq.fifo ~dedup:queued ()
      | Some v -> Rq.fifo ~dedup:queued ~validate:(v k) ()
    in
    {
      tbl = Hashtbl.create 16;
      by_key = Sim.Idtbl.create ();
      order = [||];
      queued;
      bucket_of;
      mk;
    }

  let reorder t =
    t.order <-
      Array.of_list
        (List.rev (Hashtbl.fold (fun k rq acc -> (k, rq) :: acc) t.tbl []))

  let bucket t k =
    match Sim.Idtbl.find_opt t.by_key k with
    | Some rq -> rq
    | None ->
      let rq = t.mk k in
      Hashtbl.replace t.tbl k rq;
      Sim.Idtbl.replace t.by_key k rq;
      reorder t;
      rq

  let push_to t k tid =
    (* Dedup first, bucket creation only when actually enqueueing. *)
    if not (Sim.Idtbl.mem t.queued tid) then begin
      Sim.Idtbl.replace t.queued tid ();
      Rq.enqueue (bucket t k) tid
    end

  let push_auto t ctx tid =
    (* Route by the task's own key ([bucket_of]); unknown tids are ignored. *)
    if not (Sim.Idtbl.mem t.queued tid) then begin
      match Abi.task_by_tid ctx tid with
      | Some task ->
        Sim.Idtbl.replace t.queued tid ();
        Rq.enqueue (bucket t (t.bucket_of task)) tid
      | None -> ()
    end

  let pop t ctx k = Rq.pop (bucket t k) ctx
  let len t k = Rq.length (bucket t k)
  let drop t tid = Sim.Idtbl.remove t.queued tid

  let fold f t acc =
    let order = t.order in
    let rec go i acc =
      if i = Array.length order then acc
      else begin
        let k, rq = order.(i) in
        go (i + 1) (f k rq acc)
      end
    in
    go 0 acc

  (* The key of the longest bucket but [skip]'s holding at least [min_len]
     entries, the first in fold order among the longest; -1 when none. *)
  let longest t ~skip ~min_len =
    let order = t.order in
    let rec go i best best_len =
      if i = Array.length order then best
      else begin
        let k, rq = order.(i) in
        let len = Rq.length rq in
        if k <> skip && len > best_len then go (i + 1) k len
        else go (i + 1) best best_len
      end
    in
    go 0 (-1) (min_len - 1)

  let take t k =
    match Sim.Idtbl.find_opt t.by_key k with
    | None -> None
    | Some _ as found ->
      Hashtbl.remove t.tbl k;
      Sim.Idtbl.remove t.by_key k;
      reorder t;
      found
end

(* --- Group-commit assembly ---------------------------------------------------- *)

module Commit = struct
  type t = Txn.t list ref

  let create () : t = ref []
  let pending (t : t) = !t <> []

  let add ctx (t : t) ?charge (task : Task.t) cpu =
    (match charge with None -> () | Some ns -> Abi.charge ctx ns);
    let seq = Abi.thread_seq ctx task in
    t := Abi.make_txn ctx ~tid:task.Task.tid ~target:cpu ?thread_seq:seq () :: !t

  let submit ctx (t : t) =
    match !t with
    | [] -> ()
    | txns ->
      t := [];
      Abi.submit ctx (List.rev txns)
end

(* --- The centralized template -------------------------------------------------- *)

(* One spinning global agent, N priority classes (class 0 highest), the
   standard five-phase pass: drain messages, fill idle CPUs with class-0
   work, evict lower classes for it, rotate over-slice threads, donate
   leftover idle CPUs down-class, publish the remainder to the BPF pick
   ring.  Fifo-centralized, central, shinjuku, snap, adaptive and
   hybrid-edf are all parameterizations of this one loop.

   Charge exactness: the pass charges every scan step the five phases
   define, but the host only makes the probes whose answers can change
   the pass.  A phase whose queues are empty (length 0: a queue holding
   only stale entries still takes the probing loop, whose pops discard
   them) would probe each remaining CPU, pop nothing and move on; the
   fill and donate phases charge those probes with one [Abi.charge_scan],
   and the evict and rotate phases, which probe only while class-0 work
   waits, stop.  Nothing in a pass reads the charged total back, so the
   simulated clock sees the same total and the same side effects in the
   same order.  The phases are plain recursive functions over the CPU
   list: a CPU is skipped when [assigned] carries the current pass's stamp,
   and queue lengths are read again only after a pop, the only thing that
   changes them. *)
module Centralized = struct
  type stats = {
    scheduled : int array;  (* committed dispatches per class *)
    mutable preemptions : int;  (* timeslice expirations acted on *)
    mutable evictions : int;  (* lower-class threads displaced for class 0 *)
    mutable estales : int;
  }

  (* Hash width of the wakeup-eligibility map: the gated wakeup program
     indexes cls_map by [tid land cls_mask]. *)
  let cls_mask = 1023

  type shape = Fifo | Central

  type t = {
    nclasses : int;
    classify : Abi.t -> Task.t -> int;
    donate_idle : bool;
    shape : shape;
        (* [Central]: agent CPU filtered once, an assigned set keeps later
           phases off CPUs already committed this pass.  [Fifo]: the
           original fifo-centralized shape (no set, fresh CPU scans, a
           preempted thread's slice forgotten). *)
    msg_charge : int;  (* per message drained, fixed by the shape *)
    assign_charge : int;  (* per assignment staged, likewise *)
    cpu_rank : Abi.t -> int list -> int list;
    donate_rank : Abi.t -> int list -> int list;
    queues : Rq.t array;
    cls_of : int Sim.Idtbl.t;
    (* Pass state reused across passes, so a pass allocates none of it:
       [assigned.(cpu) = pass] marks a CPU the current pass skips (sized
       at the first pass), and [base_cpus] is the enclave's CPU list
       without the agent's CPU, refiltered only when a resize replaces the
       list ([base_src], compared physically) or a hot handoff moves the
       agent ([base_agent]). *)
    mutable pass : int;
    mutable assigned : int array;
    com : Commit.t;  (* the pass's commit group, emptied by its submit *)
    mutable base_src : int list;
    mutable base_agent : int;
    mutable base_cpus : int list;
    running : Running.t;
    stats : stats;
    fp : Fastpath.t option;
    (* Live-tunable knob cells: static policies set them once at build
       time; the adaptive controller rewrites them between passes. *)
    mutable timeslice : int option;
    mutable donate_max : int option;  (* cap on down-class grants per pass *)
    (* Lifecycle hooks, all optional and free when unset. *)
    mutable on_pass : (Abi.t -> unit) option;
    mutable on_event : (Abi.t -> Msg_class.event -> unit) option;
    mutable on_committed : (Abi.t -> tid:int -> cpu:int -> unit) option;
  }

  let stats t = t.stats
  let backlog t = Rq.length t.queues.(0)
  let timeslice t = t.timeslice
  let donate_max t = t.donate_max
  let set_on_pass t f = t.on_pass <- Some f
  let set_on_event t f = t.on_event <- Some f
  let set_on_committed t f = t.on_committed <- Some f
  let set_donate_max t v = t.donate_max <- v

  let set_timeslice t ctx slice =
    t.timeslice <- slice;
    match t.fp with
    | None -> ()
    | Some _ ->
      Fastpath.set_slice ctx (match slice with Some s -> s | None -> 0)

  let class_of t ctx tid =
    match Sim.Idtbl.find_opt t.cls_of tid with
    | Some c -> c
    | None -> (
      match Abi.task_by_tid ctx tid with
      | Some task ->
        let c = t.classify ctx task in
        Sim.Idtbl.replace t.cls_of tid c;
        (* Only class-0 threads may take the expedited wakeup placement;
           the rest wait for an agent pass (collisions in the hashed map
           can let one through — a valid placement, just undeserved). *)
        (match t.fp with
        | Some _ when t.nclasses > 1 ->
          Fastpath.set_cls ctx ~cls_mask ~tid (c = 0)
        | Some _ | None -> ());
        c
      | None -> t.nclasses - 1)

  let push t ctx tid =
    if t.nclasses = 1 then Rq.push t.queues.(0) ctx tid
    else Rq.push t.queues.(class_of t ctx tid) ctx tid

  let rec feed t ctx = function
    | [] -> ()
    | msg :: rest ->
      Abi.charge ctx t.msg_charge;
      let ev = Msg_class.classify msg in
      (match t.on_event with None -> () | Some f -> f ctx ev);
      (match ev with
      | Msg_class.Became_runnable tid ->
        Running.forget t.running tid;
        push t ctx tid
      | Msg_class.Not_runnable tid ->
        Running.forget t.running tid;
        Array.iter (fun q -> Rq.drop q tid) t.queues
      | Msg_class.Died tid ->
        Running.forget t.running tid;
        Array.iter (fun q -> Rq.drop q tid) t.queues;
        Sim.Idtbl.remove t.cls_of tid
      | Msg_class.Affinity_changed _ | Msg_class.Tick _
      | Msg_class.Cpu_available _ | Msg_class.Cpu_taken _ -> ());
      feed t ctx rest

  let base_cpus t ctx agent_cpu =
    let src = Abi.enclave_cpu_list ctx in
    if src != t.base_src || agent_cpu <> t.base_agent then begin
      t.base_src <- src;
      t.base_agent <- agent_cpu;
      t.base_cpus <- List.filter (fun c -> c <> agent_cpu) src
    end;
    t.base_cpus

  (* Scan steps [cpus] would still cost a loop that can no longer act on
     the answers: one per CPU the pass does not skip unprobed. *)
  let rec owed t n = function
    | [] -> n
    | c :: rest -> owed t (if t.assigned.(c) = t.pass then n else n + 1) rest

  let assign t ctx task cpu =
    (match t.shape with Central -> t.assigned.(cpu) <- t.pass | Fifo -> ());
    Commit.add ctx t.com ~charge:t.assign_charge task cpu

  (* 1. Idle CPUs go to class-0 work first. *)
  let rec fill t ctx cpus =
    if Rq.length t.queues.(0) = 0 then Abi.charge_scan ctx (owed t 0 cpus)
    else fill_walk t ctx cpus

  and fill_walk t ctx = function
    | [] -> ()
    | cpu :: rest ->
      if t.assigned.(cpu) <> t.pass && Abi.cpu_is_idle ctx cpu then begin
        (match Rq.pop t.queues.(0) ctx with
        | Some task -> assign t ctx task cpu
        | None -> ());
        fill t ctx rest
      end
      else fill_walk t ctx rest

  (* 2. Remaining class-0 work evicts lower-class threads. *)
  let rec evict t ctx = function
    | [] -> ()
    | _ when Rq.is_empty t.queues.(0) -> ()
    | cpu :: rest ->
      (if t.assigned.(cpu) <> t.pass then
         match Abi.curr_on ctx cpu with
         | Some task
           when task.Task.policy = Task.Ghost
                && class_of t ctx task.Task.tid <> 0 -> (
           match Rq.pop t.queues.(0) ctx with
           | Some next ->
             assign t ctx next cpu;
             t.stats.evictions <- t.stats.evictions + 1
           | None -> ())
         | Some _ | None -> ());
      evict t ctx rest

  (* 3. Timeslice: rotate class-0 threads that ran past their slice. *)
  let rec rotate t ctx ~now ~slice = function
    | [] -> ()
    | _ when Rq.is_empty t.queues.(0) -> ()
    | cpu :: rest ->
      (if t.assigned.(cpu) <> t.pass then
         match Abi.curr_on ctx cpu with
         | Some task
           when task.Task.policy = Task.Ghost
                && Running.over_slice t.running task.Task.tid ~cpu ~now ~slice
                && (t.nclasses = 1 || class_of t ctx task.Task.tid = 0) -> (
           match Rq.pop t.queues.(0) ctx with
           | Some next ->
             assign t ctx next cpu;
             t.stats.preemptions <- t.stats.preemptions + 1;
             (match t.shape with
             | Central -> ()
             | Fifo -> Running.forget t.running task.Task.tid)
           | None -> ())
         | Some _ | None -> ());
      rotate t ctx ~now ~slice rest

  (* 4. Leftover idle CPUs are donated to lower classes, [left] more at
     most this pass.  Lower-class emptiness and the cap change only when
     the walk pops, so they are read again only then. *)
  let rec pop_lower t ctx c =
    if c >= t.nclasses then None
    else
      match Rq.pop t.queues.(c) ctx with
      | Some task -> Some task
      | None -> pop_lower t ctx (c + 1)

  let rec lower_empty t c =
    c >= t.nclasses || (Rq.length t.queues.(c) = 0 && lower_empty t (c + 1))

  let rec donate t ctx ~left cpus =
    if left > 0 then
      if lower_empty t 1 then Abi.charge_scan ctx (owed t 0 cpus)
      else donate_walk t ctx ~left cpus

  and donate_walk t ctx ~left = function
    | [] -> ()
    | cpu :: rest ->
      if t.assigned.(cpu) <> t.pass && Abi.cpu_is_idle ctx cpu then begin
        let left =
          match pop_lower t ctx 1 with
          | Some task ->
            assign t ctx task cpu;
            left - 1
          | None -> left
        in
        donate t ctx ~left rest
      end
      else donate_walk t ctx ~left rest

  (* 5. §3.5: class-0 work still waiting goes to the BPF pick ring so a
     CPU idling before our next pass dispatches it without a round-trip.
     The ring mirror is consulted first: both it and the task lookup are
     free reads, and most of a standing backlog is already published.

     A FIFO queue is walked once per queued tid, at its earliest entry,
     with the result of a walk over every entry, which a [Least] queue
     still takes.  Within a walk no task's runnable state changes: a
     publish touches only BPF maps and the charge total.  A tid's published bit changes only when
     the walk publishes that tid: [Fastpath.publish] clears another tid's
     bit only when it overwrites one of our unreconciled slots, and once
     the pass's [reconcile] has run, every ring position below head is
     reconciled and tail - head < cap.  So the per-entry walk acts at a
     tid's later entries only when the ring refused the tid at its
     earliest one.  The ring then stays full for the rest of the walk,
     and each later entry is refused again for one cursor read, which
     [retry] repeats.  Both walks write the same slots in the same order
     and charge the same total. *)
  let rec retry fp ctx tid n =
    if n > 0 then begin
      ignore (Fastpath.publish fp ctx tid);
      retry fp ctx tid (n - 1)
    end

  (* What the per-entry walk does at all [n] entries of [tid]. *)
  let publish_tid ctx fp tid n =
    if not (Fastpath.published fp tid) then
      match Abi.task_by_tid ctx tid with
      | Some task when Task.is_runnable task ->
        if not (Fastpath.publish fp ctx tid) then retry fp ctx tid (n - 1)
      | Some _ | None -> ()

  let rec publish_firsts ctx fp q i =
    if i < q.Rq.nfirsts then begin
      let tid = Rq.tid_at q q.Rq.firsts.(i) in
      publish_tid ctx fp tid q.Rq.count.(tid);
      publish_firsts ctx fp q (i + 1)
    end

  let publish ctx fp q0 =
    match q0.Rq.order with
    | Rq.Fifo ->
      Rq.index q0;
      publish_firsts ctx fp q0 0
    | Rq.Least _ -> Rq.iter (fun tid -> publish_tid ctx fp tid 1) q0

  let schedule t ctx msgs =
    feed t ctx msgs;
    (match t.fp with None -> () | Some fp -> Fastpath.reconcile fp ctx);
    (match t.on_pass with None -> () | Some f -> f ctx);
    let agent_cpu = Abi.cpu ctx in
    if Array.length t.assigned = 0 then
      t.assigned <- Array.make (Topology.num_cpus (Abi.topology ctx)) 0;
    t.pass <- t.pass + 1;
    (match t.shape with
    | Central ->
      let base_cpus = base_cpus t ctx agent_cpu in
      let cpus = t.cpu_rank ctx base_cpus in
      fill t ctx cpus;
      if t.nclasses > 1 then evict t ctx cpus;
      (match t.timeslice with
      | None -> ()
      | Some slice -> rotate t ctx ~now:(Abi.now ctx) ~slice cpus);
      if t.donate_idle && t.nclasses > 1 then
        donate t ctx
          ~left:(match t.donate_max with None -> max_int | Some m -> m)
          (t.donate_rank ctx base_cpus)
    | Fifo -> (
      (* The fifo-centralized shape: no assigned set, the idle fill and
         the timeslice scan each walk the CPU list afresh (Fig. 4).  The
         fill skips only the agent's CPU; the scan, under a fresh stamp,
         skips none. *)
      t.assigned.(agent_cpu) <- t.pass;
      fill t ctx (t.cpu_rank ctx (Abi.enclave_cpu_list ctx));
      match t.timeslice with
      | None -> ()
      | Some slice ->
        t.pass <- t.pass + 1;
        rotate t ctx ~now:(Abi.now ctx) ~slice (Abi.enclave_cpu_list ctx)));
    (match t.fp with None -> () | Some fp -> publish ctx fp t.queues.(0));
    Commit.submit ctx t.com

  let on_outcome t ctx (o : Outcome.t) =
    match o with
    | Outcome.Committed { tid; cpu } ->
      let c = if t.nclasses = 1 then 0 else class_of t ctx tid in
      t.stats.scheduled.(c) <- t.stats.scheduled.(c) + 1;
      Running.note t.running tid ~cpu ~at:(Abi.now ctx);
      (match t.on_committed with None -> () | Some f -> f ctx ~tid ~cpu)
    | Outcome.Gone _ -> ()
    | Outcome.Rejected { tid; estale } ->
      if estale then t.stats.estales <- t.stats.estales + 1;
      push t ctx tid
    | Outcome.Pending -> ()

  let make ~name ?(nclasses = 1) ?(classify = fun _ _ -> 0) ?timeslice
      ?(donate_idle = false) ?(fastpath = false) ?(shape = Central)
      ?(queue_order = fun _ -> Rq.Fifo) ?(cpu_rank = fun _ cpus -> cpus)
      ?(donate_rank = fun _ cpus -> cpus) () =
    if nclasses < 1 then invalid_arg "Dsl.Centralized.make: nclasses < 1";
    let fp = if fastpath then Some (Fastpath.create ()) else None in
    let t =
      {
        nclasses;
        classify;
        donate_idle;
        shape;
        msg_charge = (match shape with Central -> 25 | Fifo -> 10);
        assign_charge = (match shape with Central -> 40 | Fifo -> 25);
        cpu_rank;
        donate_rank;
        queues = Array.init nclasses (fun c -> Rq.make (queue_order c));
        cls_of = Sim.Idtbl.create ();
        pass = 0;
        assigned = [||];
        com = Commit.create ();
        base_src = [];
        base_agent = -1;
        base_cpus = [];
        running = Running.create ();
        stats =
          {
            scheduled = Array.make nclasses 0;
            preemptions = 0;
            evictions = 0;
            estales = 0;
          };
        fp;
        timeslice;
        donate_max = None;
        on_pass = None;
        on_event = None;
        on_committed = None;
      }
    in
    let pol =
      Ghost.Agent.make_policy ~name
        ~init:(fun ctx ->
          (* Rebuild after an in-place upgrade: runnable threads re-enter
             their class queues (§3.4). *)
          List.iter
            (fun (task : Task.t) ->
              if Task.is_runnable task then push t ctx task.Task.tid)
            (Abi.managed_threads ctx);
          match t.fp with
          | None -> ()
          | Some fp ->
            ignore (Fastpath.install_pick fp ctx);
            ignore
              (if t.nclasses > 1 then
                 Fastpath.install_wakeup_gated ctx ~cls_mask
               else Fastpath.install_wakeup ctx);
            (match t.timeslice with
            | None -> ()
            | Some slice ->
              ignore (Fastpath.install_tick fp ctx);
              Fastpath.set_slice ctx slice))
        ~schedule:(fun ctx msgs -> schedule t ctx msgs)
        ~on_result:(fun ctx txn -> on_outcome t ctx (Outcome.of_txn txn))
        ~on_cpu_removed:(fun _ cpu -> Running.forget_cpu t.running cpu)
        ()
    in
    (t, pol)
end

(* --- The per-CPU template ------------------------------------------------------ *)

(* One local agent per enclave CPU, per-CPU bucket queues, round-robin
   placement of new threads (ASSOCIATE_QUEUE), agent-seq-stamped local
   commits, and work stealing from the busiest sibling queue (§3.1/3.2). *)
module Percpu = struct
  type stats = {
    mutable scheduled : int;
    mutable estales : int;
    mutable steals : int;
  }

  type t = {
    msg_charge : int;
    assign_charge : int;
    steal_min : int;  (* only steal from queues at least this deep *)
    runqs : Buckets.t;  (* cpu -> tids *)
    home : int Sim.Idtbl.t;  (* tid -> cpu *)
    mutable next_home : int;
    stats : stats;
  }

  let stats t = t.stats

  (* Spread new threads round-robin and move their message flow onto the
     per-CPU queue (ASSOCIATE_QUEUE, §3.1). *)
  let place_new t ctx tid =
    let cpus = Abi.enclave_cpu_list ctx in
    let n = List.length cpus in
    let home = List.nth cpus (t.next_home mod n) in
    t.next_home <- t.next_home + 1;
    Sim.Idtbl.replace t.home tid home;
    (match (Abi.task_by_tid ctx tid, Abi.queue_of_cpu ctx home) with
    | Some task, Some q -> (
      match Abi.associate_queue ctx task q with
      | Ok () -> ()
      | Error `Pending_messages ->
        (* Messages already queued for it on the default queue: leave the
           association for the next pass; they will still reach agent 0. *)
        ())
    | _ -> ());
    home

  let home_of t ctx tid =
    match Sim.Idtbl.find_opt t.home tid with
    | Some cpu -> cpu
    | None -> place_new t ctx tid

  (* Work stealing (§3.1): an idle agent pulls a thread from the most loaded
     CPU's runqueue and re-routes its messages to its own queue with
     ASSOCIATE_QUEUE.  The association fails while the old queue still holds
     messages for the thread; the thread then stays home this pass and the
     steal is retried later — exactly the drain-and-reissue protocol. *)
  let try_steal t ctx ~cpu =
    let home = Buckets.longest t.runqs ~skip:cpu ~min_len:t.steal_min in
    if home < 0 then None
    else begin
      match Buckets.pop t.runqs ctx home with
      | None -> None
      | Some task -> (
        match Abi.queue_of_cpu ctx cpu with
        | None -> Some task
        | Some q -> (
          match Abi.associate_queue ctx task q with
          | Ok () ->
            t.stats.steals <- t.stats.steals + 1;
            Sim.Idtbl.replace t.home task.Task.tid cpu;
            Some task
          | Error `Pending_messages ->
            (* Old queue not drained yet: put it back and retry later. *)
            Buckets.push_to t.runqs home task.Task.tid;
            None))
    end

  let try_schedule_local t ctx =
    let cpu = Abi.cpu ctx in
    if Abi.latched_on ctx cpu = None then begin
      let candidate =
        match Buckets.pop t.runqs ctx cpu with
        | Some task -> Some task
        | None -> try_steal t ctx ~cpu
      in
      match candidate with
      | Some task ->
        Abi.charge ctx t.assign_charge;
        let txn =
          Abi.make_txn ctx ~tid:task.Task.tid ~target:cpu ~with_aseq:true ()
        in
        Abi.submit ctx [ txn ]
      | None -> ()
    end

  let schedule t ctx msgs =
    List.iter
      (fun msg ->
        Abi.charge ctx t.msg_charge;
        match Msg_class.classify msg with
        | Msg_class.Became_runnable tid ->
          let home = home_of t ctx tid in
          Buckets.push_to t.runqs home tid;
          (* The home CPU's agent sleeps on its own (empty) queue: poke it
             so it runs a pass and schedules the newcomer. *)
          if home <> Abi.cpu ctx then Abi.poke ctx home
        | Msg_class.Not_runnable tid | Msg_class.Died tid ->
          Buckets.drop t.runqs tid
        | Msg_class.Affinity_changed _ | Msg_class.Tick _
        | Msg_class.Cpu_available _ | Msg_class.Cpu_taken _ -> ())
      msgs;
    try_schedule_local t ctx

  let on_outcome t ctx (o : Outcome.t) =
    match o with
    | Outcome.Committed _ -> t.stats.scheduled <- t.stats.scheduled + 1
    | Outcome.Gone _ -> ()
    | Outcome.Rejected { tid; estale } ->
      if estale then t.stats.estales <- t.stats.estales + 1;
      let home = home_of t ctx tid in
      Buckets.push_to t.runqs home tid;
      if home <> Abi.cpu ctx then Abi.poke ctx home
    | Outcome.Pending -> ()

  let make ~name () =
    let t =
      {
        msg_charge = 25;
        assign_charge = 40;
        steal_min = 2;
        runqs = Buckets.create ();
        home = Sim.Idtbl.create ();
        next_home = 0;
        stats = { scheduled = 0; estales = 0; steals = 0 };
      }
    in
    (* A departed CPU's runqueue and home assignments migrate to the live
       CPUs; running threads re-place via their THREAD_PREEMPTED message. *)
    let on_cpu_removed ctx cpu =
      let stale =
        Sim.Idtbl.fold
          (fun tid h acc -> if h = cpu then tid :: acc else acc)
          t.home []
      in
      List.iter (Sim.Idtbl.remove t.home) stale;
      match Buckets.take t.runqs cpu with
      | None -> ()
      | Some rq ->
        Rq.iter
          (fun tid ->
            Buckets.drop t.runqs tid;
            match Abi.task_by_tid ctx tid with
            | Some task when Task.is_runnable task ->
              let home = home_of t ctx tid in
              Buckets.push_to t.runqs home tid;
              if home <> Abi.cpu ctx then Abi.poke ctx home
            | Some _ | None -> ())
          rq
    in
    let pol =
      Ghost.Agent.make_policy ~name
        ~init:(fun ctx ->
          List.iter
            (fun (task : Task.t) ->
              if Task.is_runnable task then begin
                let home = home_of t ctx task.Task.tid in
                Buckets.push_to t.runqs home task.Task.tid
              end)
            (Abi.managed_threads ctx))
        ~schedule:(fun ctx msgs -> schedule t ctx msgs)
        ~on_result:(fun ctx txn -> on_outcome t ctx (Outcome.of_txn txn))
        ~on_cpu_removed ()
    in
    (t, pol)
end

(* --- Custom-policy wrappers ----------------------------------------------------- *)

(* Build an agent policy from DSL callbacks: commit results arrive
   pre-classified as {!Outcome.t}.  For policies whose pass is genuinely
   bespoke (Search's cache-distance placement, secure-vm's core commits)
   but which still use the DSL queues and commit assembly. *)
let agent ~name ?init ~schedule ?on_outcome ?on_cpu_removed () =
  let on_result =
    Option.map
      (fun f -> fun ctx txn -> f ctx (Outcome.of_txn txn))
      on_outcome
  in
  Ghost.Agent.make_policy ~name ?init ~schedule ?on_result ?on_cpu_removed ()

(* Re-badge a policy built by a template (shinjuku and snap are renamed
   parameterizations of the central engine). *)
let rename pol name = { pol with Ghost.Agent.name }
