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

(* --- Declarative knobs ------------------------------------------------------- *)

(* A knob is a declared, typed parameter: the registry parses it from the
   spec string ("shinjuku?timeslice=30us"), the CLI lists it with its
   default, and resolved values auto-publish as [policy.<name>.knob.<key>]
   Obs gauges at stats-publication time. *)
module Knob = struct
  type kind = Time | Int | Bool | Float | String

  type spec = {
    key : string;
    kind : kind;
    default : Ghost_policy.value option;  (* [None] renders as "unset" *)
    doc : string;
  }

  let time key ~default doc =
    { key; kind = Time; default = Some (Ghost_policy.Int default); doc }

  let time_opt key doc = { key; kind = Time; default = None; doc }

  let int key ~default doc =
    { key; kind = Int; default = Some (Ghost_policy.Int default); doc }

  let bool key ~default doc =
    { key; kind = Bool; default = Some (Ghost_policy.Bool default); doc }

  let string key ~default doc =
    { key; kind = String; default = Some (Ghost_policy.String default); doc }

  let render_time ns =
    if ns <> 0 && ns mod 1_000_000_000 = 0 then
      Printf.sprintf "%ds" (ns / 1_000_000_000)
    else if ns <> 0 && ns mod 1_000_000 = 0 then
      Printf.sprintf "%dms" (ns / 1_000_000)
    else if ns <> 0 && ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
    else Printf.sprintf "%dns" ns

  let render_value spec (v : Ghost_policy.value) =
    match (spec.kind, v) with
    | Time, Ghost_policy.Int ns -> render_time ns
    | _, v -> Ghost_policy.value_to_string v

  let render_default spec =
    match spec.default with None -> "unset" | Some v -> render_value spec v
end

(* --- Ordered run-queues ------------------------------------------------------ *)

(* One run-queue implementation for the whole library (the former
   [Policies.Runq] and the per-policy queue clones, folded together).

   The dedup discipline is shared by every order: {!push} ignores tids
   already queued, {!drop} only clears the dedup bit (lazy removal), and
   {!pop} validates the popped tid against the live task table — so a tid
   re-pushed after a drop may briefly appear twice, the duplicate commit
   fails EBUSY and is requeued, exactly the pre-DSL behavior. *)
module Rq = struct
  type dedup = unit Sim.Idtbl.t

  type order =
    | Fifo
    | Least of (Abi.t -> Task.t -> int)  (* min-key first; EDF with a deadline key *)

  type t = {
    order : order;
    fifo : int Queue.t;
    heap : int Minheap.t;
    queued : dedup;
    validate : Abi.t -> Task.t -> bool;
  }

  let make ?dedup ?validate order =
    {
      order;
      fifo = Queue.create ();
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
    | Fifo -> Queue.length t.fifo
    | Least _ -> Minheap.length t.heap

  let is_empty t = length t = 0

  let iter f t =
    (* Raw tids, dedup and liveness not consulted (fastpath publication
       filters with its own [task_by_tid] check). *)
    match t.order with
    | Fifo -> Queue.iter f t.fifo
    | Least _ -> Minheap.iter (fun _ tid -> f tid) t.heap

  let mem t tid = Sim.Idtbl.mem t.queued tid

  (* Raw enqueue: no dedup check (the caller did it, e.g. {!Buckets}). *)
  let enqueue t tid =
    match t.order with
    | Fifo -> Queue.push tid t.fifo
    | Least _ -> invalid_arg "Dsl.Rq.enqueue: keyed order needs push"

  let push t ctx tid =
    match t.order with
    | Fifo ->
      if not (Sim.Idtbl.mem t.queued tid) then begin
        Sim.Idtbl.replace t.queued tid ();
        Queue.push tid t.fifo
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
    let next =
      match t.order with
      | Fifo -> (
        match Queue.pop t.fifo with
        | exception Queue.Empty -> None
        | tid -> Some tid)
      | Least _ -> (
        match Minheap.pop t.heap with
        | None -> None
        | Some (_, tid) -> Some tid)
    in
    match next with
    | None -> None
    | Some tid -> (
      Sim.Idtbl.remove t.queued tid;
      match Abi.task_by_tid ctx tid with
      | Some task when t.validate ctx task -> Some task
      | Some _ | None -> pop t ctx)

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

(* A family of FIFO run-queues keyed by an integer (per-CPU queues, per-VM
   cookie queues), sharing one dedup table so a tid lives in at most one
   bucket.  Buckets are created lazily on first touch — push, pop or even a
   length query — preserving each policy's original table layout. *)
module Buckets = struct
  type t = {
    tbl : (int, Rq.t) Hashtbl.t;
        (* A Hashtbl, not an Idtbl: its fold order breaks ties between
           equally loaded victims in [Percpu.try_steal], so it must stay
           the order a 16-bucket Hashtbl gives. *)
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
    { tbl = Hashtbl.create 16; queued; bucket_of; mk }

  let bucket t k =
    match Hashtbl.find_opt t.tbl k with
    | Some rq -> rq
    | None ->
      let rq = t.mk k in
      Hashtbl.replace t.tbl k rq;
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
  let queued_mem t tid = Sim.Idtbl.mem t.queued tid
  let fold f t acc = Hashtbl.fold f t.tbl acc

  let take t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> None
    | Some rq ->
      Hashtbl.remove t.tbl k;
      Some rq
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

  let submit ctx (t : t) = if !t <> [] then Abi.submit ctx (List.rev !t)
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
   same order. *)
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

  type t = {
    nclasses : int;
    classify : Abi.t -> Task.t -> int;
    donate_idle : bool;
    evict_lower : bool;
    msg_charge : int;
    assign_charge : int;
    track_assigned : bool;
        (* central-style pass: agent CPU filtered once, an assigned set
           keeps later phases off CPUs already committed this pass.  Off:
           the original fifo-centralized shape (no set, fresh CPU scans). *)
    forget_on_preempt : bool;
    cpu_rank : Abi.t -> int list -> int list;
    donate_rank : Abi.t -> int list -> int list;
    queues : Rq.t array;
    cls_of : int Sim.Idtbl.t;
    (* Pass state reused across passes, so a pass allocates none of it:
       [assigned.(cpu) = pass] marks a CPU committed during the current
       pass (sized at the first pass), and [base_cpus] is the enclave's
       CPU list without the agent's CPU, refiltered only when a resize
       replaces the list ([base_src], compared physically) or a hot
       handoff moves the agent ([base_agent]). *)
    mutable pass : int;
    mutable assigned : int array;
    mutable base_src : int list;
    mutable base_agent : int;
    mutable base_cpus : int list;
    running : Running.t;
    stats : stats;
    fp : Fastpath.t option;
    wakeup_gated : bool;
    (* Live-tunable knob cells: static policies set them once at build
       time; the adaptive controller rewrites them between passes. *)
    mutable timeslice : int option;
    mutable donate_max : int option;  (* cap on down-class grants per pass *)
    mutable fp_publish_min : int;  (* publish to the ring at this backlog *)
    (* Lifecycle hooks, all optional and free when unset. *)
    mutable on_pass : (Abi.t -> unit) option;
    mutable on_event : (Abi.t -> Msg_class.event -> unit) option;
    mutable on_committed : (Abi.t -> tid:int -> cpu:int -> unit) option;
  }

  let stats t = t.stats
  let backlog t = Rq.length t.queues.(0)
  let timeslice t = t.timeslice
  let donate_max t = t.donate_max
  let fp_publish_min t = t.fp_publish_min
  let set_on_pass t f = t.on_pass <- Some f
  let set_on_event t f = t.on_event <- Some f
  let set_on_committed t f = t.on_committed <- Some f
  let set_donate_max t v = t.donate_max <- v
  let set_fp_publish_min t v = t.fp_publish_min <- v

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
        | Some _ when t.wakeup_gated ->
          Fastpath.set_cls ctx ~cls_mask ~tid (c = 0)
        | Some _ | None -> ());
        c
      | None -> t.nclasses - 1)

  let push t ctx tid =
    if t.nclasses = 1 then Rq.push t.queues.(0) ctx tid
    else Rq.push t.queues.(class_of t ctx tid) ctx tid

  let feed t ctx msgs =
    List.iter
      (fun msg ->
        Abi.charge ctx t.msg_charge;
        let ev = Msg_class.classify msg in
        (match t.on_event with None -> () | Some f -> f ctx ev);
        match ev with
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
        | Msg_class.Cpu_available _ | Msg_class.Cpu_taken _ -> ())
      msgs

  let is_assigned t cpu = t.assigned.(cpu) = t.pass

  let base_cpus t ctx agent_cpu =
    let src = Abi.enclave_cpu_list ctx in
    if src != t.base_src || agent_cpu <> t.base_agent then begin
      t.base_src <- src;
      t.base_agent <- agent_cpu;
      t.base_cpus <- List.filter (fun c -> c <> agent_cpu) src
    end;
    t.base_cpus

  (* Scan steps [cpus] would still cost a loop that can no longer act on
     the answers: one per CPU the loop does not [skip] unprobed. *)
  let owed ~skip cpus =
    List.fold_left (fun n c -> if skip c then n else n + 1) 0 cpus

  (* 1. Idle CPUs go to class-0 work first. *)
  let rec fill t ctx ~skip ~assign = function
    | [] -> ()
    | cpus when Rq.length t.queues.(0) = 0 ->
      Abi.charge_scan ctx (owed ~skip cpus)
    | cpu :: rest ->
      (if (not (skip cpu)) && Abi.cpu_is_idle ctx cpu then
         match Rq.pop t.queues.(0) ctx with
         | Some task -> assign task cpu
         | None -> ());
      fill t ctx ~skip ~assign rest

  (* 2. Remaining class-0 work evicts lower-class threads. *)
  let rec evict t ctx ~skip ~assign = function
    | [] -> ()
    | _ when Rq.is_empty t.queues.(0) -> ()
    | cpu :: rest ->
      (if not (skip cpu) then
         match Abi.curr_on ctx cpu with
         | Some task
           when task.Task.policy = Task.Ghost
                && class_of t ctx task.Task.tid <> 0 -> (
           match Rq.pop t.queues.(0) ctx with
           | Some next ->
             assign next cpu;
             t.stats.evictions <- t.stats.evictions + 1
           | None -> ())
         | Some _ | None -> ());
      evict t ctx ~skip ~assign rest

  (* 3. Timeslice: rotate class-0 threads that ran past their slice. *)
  let rec rotate t ctx ~skip ~assign ~now ~slice = function
    | [] -> ()
    | _ when Rq.is_empty t.queues.(0) -> ()
    | cpu :: rest ->
      (if not (skip cpu) then
         match Abi.curr_on ctx cpu with
         | Some task
           when task.Task.policy = Task.Ghost
                && Running.over_slice t.running task.Task.tid ~cpu ~now ~slice
                && (t.nclasses = 1 || class_of t ctx task.Task.tid = 0) -> (
           match Rq.pop t.queues.(0) ctx with
           | Some next ->
             assign next cpu;
             t.stats.preemptions <- t.stats.preemptions + 1;
             if t.forget_on_preempt then Running.forget t.running task.Task.tid
           | None -> ())
         | Some _ | None -> ());
      rotate t ctx ~skip ~assign ~now ~slice rest

  (* 4. Leftover idle CPUs are donated to lower classes, at most
     [donate_max] per pass. *)
  let rec pop_lower t ctx c =
    if c >= t.nclasses then None
    else
      match Rq.pop t.queues.(c) ctx with
      | Some task -> Some task
      | None -> pop_lower t ctx (c + 1)

  let rec lower_empty t c =
    c >= t.nclasses || (Rq.length t.queues.(c) = 0 && lower_empty t (c + 1))

  let rec donate t ctx ~skip ~assign donated cpus =
    let under =
      match t.donate_max with None -> true | Some m -> donated < m
    in
    match cpus with
    | [] -> ()
    | _ when not under -> ()
    | _ when lower_empty t 1 -> Abi.charge_scan ctx (owed ~skip cpus)
    | cpu :: rest ->
      let donated =
        if (not (skip cpu)) && Abi.cpu_is_idle ctx cpu then
          match pop_lower t ctx 1 with
          | Some task ->
            assign task cpu;
            donated + 1
          | None -> donated
        else donated
      in
      donate t ctx ~skip ~assign donated rest

  (* 5. §3.5: class-0 work still waiting goes to the BPF pick ring so a
     CPU idling before our next pass dispatches it without a round-trip.
     The ring mirror is consulted first: both it and the task lookup are
     free reads, and most of a standing backlog is already published. *)
  let publish t ctx fp =
    let q0 = t.queues.(0) in
    if Rq.length q0 >= t.fp_publish_min then
      Rq.iter
        (fun tid ->
          if not (Fastpath.published fp tid) then
            match Abi.task_by_tid ctx tid with
            | Some task when Task.is_runnable task ->
              ignore (Fastpath.publish fp ctx tid)
            | Some _ | None -> ())
        q0

  let schedule t ctx msgs =
    feed t ctx msgs;
    (match t.fp with None -> () | Some fp -> Fastpath.reconcile fp ctx);
    (match t.on_pass with None -> () | Some f -> f ctx);
    let agent_cpu = Abi.cpu ctx in
    let com = Commit.create () in
    if t.track_assigned then begin
      if Array.length t.assigned = 0 then
        t.assigned <- Array.make (Topology.num_cpus (Abi.topology ctx)) 0;
      t.pass <- t.pass + 1;
      let base_cpus = base_cpus t ctx agent_cpu in
      let cpus = t.cpu_rank ctx base_cpus in
      let skip = is_assigned t in
      let assign task cpu =
        t.assigned.(cpu) <- t.pass;
        Commit.add ctx com ~charge:t.assign_charge task cpu
      in
      fill t ctx ~skip ~assign cpus;
      if t.evict_lower then evict t ctx ~skip ~assign cpus;
      (match t.timeslice with
      | None -> ()
      | Some slice -> rotate t ctx ~skip ~assign ~now:(Abi.now ctx) ~slice cpus);
      if t.donate_idle && t.nclasses > 1 then
        donate t ctx ~skip ~assign 0 (t.donate_rank ctx base_cpus)
    end
    else begin
      (* The fifo-centralized shape: no assigned set, the idle fill and
         the timeslice scan each walk the CPU list afresh (Fig. 4). *)
      let assign task cpu = Commit.add ctx com ~charge:t.assign_charge task cpu in
      fill t ctx ~skip:(fun c -> c = agent_cpu) ~assign
        (t.cpu_rank ctx (Abi.enclave_cpu_list ctx));
      match t.timeslice with
      | None -> ()
      | Some slice ->
        rotate t ctx ~skip:(fun _ -> false) ~assign ~now:(Abi.now ctx) ~slice
          (Abi.enclave_cpu_list ctx)
    end;
    (match t.fp with None -> () | Some fp -> publish t ctx fp);
    Commit.submit ctx com

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
      ?(donate_idle = false) ?(evict_lower = false) ?(fastpath = false)
      ?(wakeup_gated = false) ?(msg_charge = 25) ?(assign_charge = 40)
      ?(track_assigned = true) ?(forget_on_preempt = false)
      ?(queue_order = fun _ -> Rq.Fifo) ?(cpu_rank = fun _ cpus -> cpus)
      ?(donate_rank = fun _ cpus -> cpus) () =
    if nclasses < 1 then invalid_arg "Dsl.Centralized.make: nclasses < 1";
    let fp = if fastpath then Some (Fastpath.create ()) else None in
    let t =
      {
        nclasses;
        classify;
        donate_idle;
        evict_lower;
        msg_charge;
        assign_charge;
        track_assigned;
        forget_on_preempt;
        cpu_rank;
        donate_rank;
        queues = Array.init nclasses (fun c -> Rq.make (queue_order c));
        cls_of = Sim.Idtbl.create ();
        pass = 0;
        assigned = [||];
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
        wakeup_gated;
        timeslice;
        donate_max = None;
        fp_publish_min = 0;
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
              (if t.wakeup_gated then
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
    let busiest =
      Buckets.fold
        (fun home rq acc ->
          if home = cpu then acc
          else begin
            match acc with
            | Some (_, best) when Rq.length best >= Rq.length rq -> acc
            | _ when Rq.length rq >= t.steal_min -> Some (home, rq)
            | _ -> acc
          end)
        t.runqs None
    in
    match busiest with
    | None -> None
    | Some (home, _) -> (
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
            None)))

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

  let make ~name ?(msg_charge = 25) ?(assign_charge = 40) ?(steal_min = 2) ()
      =
    let t =
      {
        msg_charge;
        assign_charge;
        steal_min;
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
let agent ~name ?init ~schedule ?on_outcome ?on_cpu_added ?on_cpu_removed () =
  let on_result =
    Option.map
      (fun f -> fun ctx txn -> f ctx (Outcome.of_txn txn))
      on_outcome
  in
  Ghost.Agent.make_policy ~name ?init ~schedule ?on_result ?on_cpu_added
    ?on_cpu_removed ()

(* Re-badge a policy built by a template (shinjuku and snap are renamed
   parameterizations of the central engine). *)
let rename pol name = { pol with Ghost.Agent.name }
