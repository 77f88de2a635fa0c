(* Model-based property tests across the core data structures. *)

module Cpumask = Kernel.Cpumask
module Squeue = Ghost.Squeue
module Msg = Ghost.Msg

let qtest = QCheck.Test.make

(* --- Cpumask ----------------------------------------------------------------- *)

module IntSet = Set.Make (Int)

let cpus_gen n = QCheck.(list (int_bound (n - 1)))

let test_cpumask_roundtrip =
  qtest ~name:"cpumask of_list/to_list = sorted dedup" ~count:300 (cpus_gen 64)
    (fun cpus ->
      let m = Cpumask.of_list ~ncpus:64 cpus in
      Cpumask.to_list m = IntSet.elements (IntSet.of_list cpus))

let test_cpumask_set_ops =
  qtest ~name:"cpumask inter/union agree with sets" ~count:300
    QCheck.(pair (cpus_gen 64) (cpus_gen 64))
    (fun (a, b) ->
      let ma = Cpumask.of_list ~ncpus:64 a and mb = Cpumask.of_list ~ncpus:64 b in
      let sa = IntSet.of_list a and sb = IntSet.of_list b in
      Cpumask.to_list (Cpumask.inter ma mb) = IntSet.elements (IntSet.inter sa sb)
      && Cpumask.to_list (Cpumask.union ma mb) = IntSet.elements (IntSet.union sa sb))

let test_cpumask_cardinal =
  qtest ~name:"cpumask cardinal = set size" ~count:300 (cpus_gen 200) (fun cpus ->
      let m = Cpumask.of_list ~ncpus:200 cpus in
      Cpumask.cardinal m = IntSet.cardinal (IntSet.of_list cpus))

let test_cpumask_add_remove =
  qtest ~name:"cpumask add/remove are involutive" ~count:300
    QCheck.(pair (cpus_gen 64) (int_bound 63))
    (fun (cpus, c) ->
      let m = Cpumask.of_list ~ncpus:64 cpus in
      let added = Cpumask.add m c in
      Cpumask.mem added c
      && (not (Cpumask.mem (Cpumask.remove added c) c))
      && Cpumask.equal (Cpumask.remove (Cpumask.add m c) c) (Cpumask.remove m c))

(* --- Squeue ------------------------------------------------------------------- *)

let mk_msg i =
  { Msg.kind = Msg.THREAD_WAKEUP; tid = i; tseq = i; cpu = 0; posted_at = 0;
    visible_at = 0 }

let test_squeue_fifo =
  qtest ~name:"squeue preserves FIFO order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) small_int)
    (fun tids ->
      let q = Squeue.create ~id:1 ~capacity:100 in
      List.iter (fun i -> ignore (Squeue.produce q (mk_msg i))) tids;
      let rec drain acc =
        match Squeue.consume q ~now:0 with
        | Some m -> drain (m.Msg.tid :: acc)
        | None -> List.rev acc
      in
      drain [] = tids)

let test_squeue_overflow_accounting =
  qtest ~name:"squeue drops exactly the overflow" ~count:200
    QCheck.(pair (int_range 1 20) (int_range 0 60))
    (fun (cap, n) ->
      let q = Squeue.create ~id:1 ~capacity:cap in
      for i = 1 to n do
        ignore (Squeue.produce q (mk_msg i))
      done;
      Squeue.length q = min cap n && Squeue.dropped q = max 0 (n - cap))

let test_squeue_visibility =
  qtest ~name:"squeue hides not-yet-visible messages" ~count:100
    QCheck.(int_range 1 1000)
    (fun vis ->
      let q = Squeue.create ~id:1 ~capacity:8 in
      ignore (Squeue.produce q { (mk_msg 1) with Msg.visible_at = vis });
      Squeue.consume q ~now:(vis - 1) = None
      && (match Squeue.consume q ~now:vis with Some _ -> true | None -> false))

(* --- Status-word seqcount (§3.2) ------------------------------------------------- *)

module Status_word = Ghost.Status_word

(* Shadow model of the five payload fields. *)
type sw_model = {
  m_on_cpu : bool;
  m_runnable : bool;
  m_cpu : int;
  m_sum_exec : int;
  m_hint : int;
}

type sw_mut =
  | MOn_cpu of bool
  | MRunnable of bool
  | MCpu of int
  | MSum_exec of int
  | MHint of int

let apply_mut sw m mut =
  match mut with
  | MOn_cpu v ->
    Status_word.set_on_cpu sw v;
    { m with m_on_cpu = v }
  | MRunnable v ->
    Status_word.set_runnable sw v;
    { m with m_runnable = v }
  | MCpu v ->
    Status_word.set_cpu sw v;
    { m with m_cpu = v }
  | MSum_exec v ->
    Status_word.set_sum_exec sw v;
    { m with m_sum_exec = v }
  | MHint v ->
    Status_word.set_hint sw v;
    { m with m_hint = v }

let snap_matches (s : Status_word.snapshot) m =
  s.Status_word.on_cpu = m.m_on_cpu
  && s.Status_word.runnable = m.m_runnable
  && s.Status_word.cpu = m.m_cpu
  && s.Status_word.sum_exec = m.m_sum_exec
  && s.Status_word.hint = m.m_hint

let mut_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> MOn_cpu b) bool;
        map (fun b -> MRunnable b) bool;
        map (fun v -> MCpu v) (int_bound 63);
        map (fun v -> MSum_exec v) (int_bound 1_000_000);
        map (fun v -> MHint v) (int_bound 1_000);
      ])

let sections_gen =
  QCheck.Gen.(list_size (int_range 1 8) (list_size (int_range 1 6) mut_gen))

let test_snapshot_never_torn =
  (* A read racing a writer section returns the pre-write snapshot exactly —
     every field, after every intermediate store — and a read after
     [end_write] sees every field of the completed write.  No interleaving
     ever yields a mix. *)
  qtest ~name:"status-word snapshot read is never torn" ~count:300
    (QCheck.make sections_gen) (fun sections ->
      let sw = Status_word.create () in
      let init = Status_word.read sw in
      let model =
        ref
          {
            m_on_cpu = init.Status_word.on_cpu;
            m_runnable = init.Status_word.runnable;
            m_cpu = init.Status_word.cpu;
            m_sum_exec = init.Status_word.sum_exec;
            m_hint = init.Status_word.hint;
          }
      in
      List.for_all
        (fun muts ->
          let pre = !model in
          let pre_seq = Status_word.seq sw in
          Status_word.begin_write sw;
          let mid_ok =
            List.for_all
              (fun mut ->
                model := apply_mut sw !model mut;
                let s = Status_word.read sw in
                (* Mid-section: pre-write values, pre-write (even) seq. *)
                snap_matches s pre && s.Status_word.seq = pre_seq)
              muts
          in
          let final_seq = Status_word.end_write sw in
          let s = Status_word.read sw in
          mid_ok
          && snap_matches s !model
          && s.Status_word.seq = final_seq
          && final_seq = pre_seq + 2
          && final_seq land 1 = 0)
        sections)

let sw_machine ncores =
  {
    Hw.Machines.name = "props";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

let test_prewrite_seq_commit_estale =
  (* End-to-end staleness: stamp a transaction with the seq from a snapshot
     taken before any number of kernel writer sections, and the real commit
     path must fail it ESTALE — while the same commit stamped with the
     post-write seq never reports stale. *)
  qtest ~name:"commit stamped with pre-write seq always fails ESTALE" ~count:50
    QCheck.(pair (int_range 1 6) (QCheck.make sections_gen))
    (fun (nsections, sections) ->
      let module System = Ghost.System in
      let module Txn = Ghost.Txn in
      let k = Kernel.create (sw_machine 2) in
      let sys = System.install k in
      let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
      let task =
        Kernel.create_task k ~name:"w"
          (Kernel.Task.compute_forever ~slice:1000)
      in
      System.manage e task;
      Kernel.start k task;
      Kernel.run_until k 10_000;
      let sw = Option.get (System.status_word sys task) in
      let stale_seq = (Status_word.read sw).Status_word.seq in
      (* [nsections] kernel write sections land after the snapshot. *)
      let sections =
        List.filteri (fun i _ -> i < nsections) (sections @ sections @ sections)
      in
      List.iter
        (fun muts ->
          Status_word.begin_write sw;
          List.iter
            (fun mut -> ignore (apply_mut sw { m_on_cpu = false; m_runnable = false;
                                               m_cpu = 0; m_sum_exec = 0; m_hint = 0 } mut))
            muts;
          ignore (Status_word.end_write sw))
        sections;
      let commit_with seq =
        let txn =
          System.make_txn sys ~tid:task.Kernel.Task.tid ~cpu:1 ~thread_seq:seq ()
        in
        System.commit sys e ~agent_cpu:0 ~agent_sw:None ~atomic:false [ txn ];
        txn.Txn.status
      in
      let stale = commit_with stale_seq in
      let fresh = commit_with (Status_word.seq sw) in
      stale = Txn.Failed Txn.Estale && fresh <> Txn.Failed Txn.Estale)

(* --- Eventq model ---------------------------------------------------------------- *)

type op = Push of int | Pop | CancelLast

let op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun t -> Push t) (int_bound 1000)); (2, return Pop);
        (1, return CancelLast) ])

let test_eventq_model =
  qtest ~name:"eventq matches a sorted-list model" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) op_gen))
    (fun ops ->
      let q = Sim.Eventq.create () in
      (* Model: list of (time, serial, alive ref). *)
      let model = ref [] in
      let serial = ref 0 in
      let last_handle = ref None in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Push t ->
            let h = Sim.Eventq.push q ~time:t ignore in
            incr serial;
            let alive = ref true in
            model := (t, !serial, alive) :: !model;
            last_handle := Some (h, alive)
          | CancelLast -> (
            match !last_handle with
            | Some (h, alive) ->
              Sim.Eventq.cancel q h;
              alive := false
            | None -> ())
          | Pop -> (
            let live =
              List.filter (fun (_, _, alive) -> !alive) !model
              |> List.sort (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
            in
            match (Sim.Eventq.pop q, live) with
            | None, [] -> ()
            | Some (t, _), (mt, _, alive) :: _ ->
              if t <> mt then ok := false;
              alive := false
            | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      !ok)

(* --- Topology -------------------------------------------------------------------- *)

let dims_gen =
  QCheck.Gen.(
    map3
      (fun s c k -> (s, c, k))
      (int_range 1 2) (int_range 1 4) (int_range 1 4))

let test_topology_partitions =
  qtest ~name:"sockets/ccx/cores partition the cpus" ~count:100
    (QCheck.make
       QCheck.Gen.(
         map2 (fun (s, c, k) smt -> (s, c, k, smt)) dims_gen (int_range 1 2)))
    (fun (sockets, ccx, cores, smt) ->
      let t =
        Hw.Topology.create ~sockets ~ccx_per_socket:ccx ~cores_per_ccx:cores ~smt
      in
      let all = Hw.Topology.cpus t in
      let by_socket =
        List.concat_map (Hw.Topology.cpus_of_socket t)
          (List.init sockets (fun i -> i))
      in
      let by_ccx =
        List.concat_map (Hw.Topology.cpus_of_ccx t)
          (List.init (Hw.Topology.num_ccx t) (fun i -> i))
      in
      let by_core =
        List.concat_map (Hw.Topology.cpus_of_core t)
          (List.init (Hw.Topology.num_cores t) (fun i -> i))
      in
      List.sort compare by_socket = all
      && List.sort compare by_ccx = all
      && List.sort compare by_core = all)

let test_topology_sibling_involution =
  qtest ~name:"sibling of sibling is self (smt=2)" ~count:100
    (QCheck.make dims_gen)
    (fun (sockets, ccx, cores) ->
      let t =
        Hw.Topology.create ~sockets ~ccx_per_socket:ccx ~cores_per_ccx:cores ~smt:2
      in
      List.for_all
        (fun cpu ->
          match Hw.Topology.sibling_of t cpu with
          | Some s -> s <> cpu && Hw.Topology.sibling_of t s = Some cpu
          | None -> false)
        (Hw.Topology.cpus t))

(* --- DSL engine invariants ---------------------------------------------------------- *)

let us = Sim.Units.us
let ms = Sim.Units.ms

let dsl_setup ~ncores ~spec =
  let k = Kernel.create (sw_machine ncores) in
  let sys = Ghost.System.install k in
  let e = Ghost.System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let inst = Policies.Registry.make spec in
  let g = Policies.Registry.attach sys e inst in
  (k, sys, e, g)

let dsl_spawn k e ~name behavior =
  let t = Kernel.create_task k ~name behavior in
  Ghost.System.manage e t;
  Kernel.start k t;
  t

let test_uniform_class_identity =
  (* A machine whose topology carries an explicit all-zero class array must
     behave bit-identically to one built by the legacy constructor: same
     per-task execution totals, same kernel counters, for any seed and any
     workload drawn from it.  This is the engine-level root of the
     uniform-preset byte-identity guard in `bench hybrid`. *)
  qtest ~name:"uniform-class topology = legacy topology (engine identity)"
    ~count:25
    QCheck.(triple (int_range 0 1_000_000) (int_range 2 6) (int_range 1 6))
    (fun (seed, ncores, nworkers) ->
      let run hybrid_topo =
        let topo =
          let t =
            Hw.Topology.create ~sockets:1 ~ccx_per_socket:1
              ~cores_per_ccx:ncores ~smt:1
          in
          if hybrid_topo then Hw.Topology.with_classes t (Array.make ncores 0)
          else t
        in
        let machine =
          { Hw.Machines.name = "props-uniform"; topo; costs = Hw.Costs.skylake }
        in
        let k = Kernel.create ~seed machine in
        let sys = Ghost.System.install k in
        let e = Ghost.System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
        let inst = Policies.Registry.make "fifo-percpu" in
        let _g = Policies.Registry.attach sys e inst in
        let tasks =
          List.init nworkers (fun i ->
              let slice = us (20 + (17 * ((seed + i) mod 13))) in
              dsl_spawn k e
                ~name:(Printf.sprintf "worker%d" i)
                (Kernel.Task.compute_forever ~slice))
        in
        Kernel.run_until k (ms 3);
        Digest.string
          (Marshal.to_string
             ( List.map (fun t -> t.Kernel.Task.sum_exec) tasks,
               Kernel.now k, Kernel.stats k )
             [])
      in
      run false = run true)

let test_dsl_work_conservation =
  (* Throughput form of work conservation: [n] always-runnable threads on
     [c] CPUs (one of which the spinning global agent occupies) must consume
     nearly min(n, c-1) CPUs' worth of time — an engine that parks runnable
     work while CPUs idle cannot reach the bound. *)
  qtest ~name:"dsl centralized engine is work-conserving" ~count:20
    QCheck.(triple (int_range 2 5) (int_range 1 10) (int_range 20 100))
    (fun (ncores, ntasks, slice_us) ->
      (* clamp: QCheck's int shrinker can step outside the generator range *)
      let ncores = max 2 ncores and ntasks = max 1 ntasks in
      let slice_us = max 1 slice_us in
      let k, _sys, e, _g =
        dsl_setup ~ncores ~spec:"fifo-centralized?timeslice=100us"
      in
      let tasks =
        List.init ntasks (fun i ->
            dsl_spawn k e
              ~name:(Printf.sprintf "w%d" i)
              (Kernel.Task.compute_forever ~slice:(us slice_us)))
      in
      Kernel.run_until k (ms 5);
      let total =
        List.fold_left (fun acc t -> acc + t.Kernel.Task.sum_exec) 0 tasks
      in
      let ok = total >= 7 * min ntasks (ncores - 1) * ms 5 / 10 in
      if not ok then
        Printf.eprintf "[wc] ncores=%d ntasks=%d slice=%dus total=%dns\n%!"
          ncores ntasks slice_us total;
      ok)

(* Random task programs: run / yield / sleep segments.  A sleeping task
   posts its own wake before blocking, so every program terminates. *)
type dsl_seg = SRun of int | SYield | SSleep of int

let dsl_seg_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> SRun (us n)) (int_range 1 50));
        (2, return SYield);
        (2, map (fun n -> SSleep (us n)) (int_range 1 50));
      ])

let dsl_program_gen =
  QCheck.Gen.(list_size (int_range 1 8) dsl_seg_gen)

let dsl_spawn_program k e ~name segs =
  let finished = ref false in
  let tref = ref None in
  let rec go segs () =
    match segs with
    | [] ->
      finished := true;
      Kernel.Task.Exit
    | SRun n :: rest -> Kernel.Task.Run { ns = n; after = go rest }
    | SYield :: rest -> Kernel.Task.Yield { after = go rest }
    | SSleep d :: rest ->
      ignore
        (Sim.Engine.post_in (Kernel.engine k) ~delay:d (fun () ->
             match !tref with Some t -> Kernel.wake k t | None -> ()));
      Kernel.Task.Block { after = go rest }
  in
  let t = dsl_spawn k e ~name (go segs) in
  tref := Some t;
  finished

let dsl_engine_specs =
  [| "fifo-centralized?timeslice=30us"; "central?timeslice=50us"; "adaptive" |]

let test_dsl_no_lost_threads =
  (* Random mixes of preemption, yields and sleeps, plus an in-place agent
     upgrade mid-run (the replacement engine must rebuild its runqueue from
     [managed_threads]): every thread still runs its program to completion.
     A thread dropped anywhere — queue, dedup bit, handoff — never exits. *)
  qtest ~name:"dsl: no thread lost across preempt/yield/sleep and upgrade"
    ~count:20
    QCheck.(
      triple (int_range 2 4)
        (list_of_size
           (QCheck.Gen.int_range 1 8)
           (QCheck.make dsl_program_gen))
        (int_bound (Array.length dsl_engine_specs - 1)))
    (fun (ncores, programs, spec_idx) ->
      let ncores = max 2 ncores in
      let spec = dsl_engine_specs.(max 0 spec_idx) in
      let k, sys, e, g = dsl_setup ~ncores ~spec in
      let fins =
        List.mapi
          (fun i segs ->
            dsl_spawn_program k e ~name:(Printf.sprintf "worker%d" i) segs)
          programs
      in
      let env =
        {
          Faults.Injector.sys;
          enclave = e;
          group = Some g;
          replace =
            Some
              (fun ?abi:_ () ->
                Policies.Registry.attach sys e (Policies.Registry.make spec));
        }
      in
      let plan =
        Faults.Plan.make ~name:"upgrade"
          [
            {
              Faults.Plan.at = ms 2;
              jitter = 0;
              kind = Faults.Plan.Upgrade { handoff_gap = us 50; abi = None };
            };
          ]
      in
      let _inj = Faults.Injector.arm env plan in
      Kernel.run_until k (ms 30);
      List.for_all (fun fin -> !fin) fins)

let test_dsl_bounded_starvation =
  (* Priority buckets with idle-CPU donation: as long as the LC class leaves
     at least one CPU over (beyond the agent's), the batch bucket keeps
     making progress in every window — lower buckets are starved only of
     contended CPUs, not of the machine. *)
  qtest ~name:"dsl: batch bucket progresses under LC priority" ~count:20
    QCheck.(triple (int_range 3 6) (int_range 1 4) (int_range 20 100))
    (fun (ncores, nlc_raw, slice_us) ->
      let ncores = max 3 ncores and slice_us = max 1 slice_us in
      let nlc = max 1 (min nlc_raw (ncores - 2)) in
      let k, _sys, e, _g = dsl_setup ~ncores ~spec:"central?timeslice=50us" in
      let _lc =
        List.init nlc (fun i ->
            dsl_spawn k e
              ~name:(Printf.sprintf "worker%d" i)
              (Kernel.Task.compute_forever ~slice:(us slice_us)))
      in
      let batch =
        dsl_spawn k e ~name:"batch0"
          (Kernel.Task.compute_forever ~slice:(us 50))
      in
      Kernel.run_until k (ms 2);
      let b1 = batch.Kernel.Task.sum_exec in
      Kernel.run_until k (ms 4);
      let b2 = batch.Kernel.Task.sum_exec in
      Kernel.run_until k (ms 6);
      let b3 = batch.Kernel.Task.sum_exec in
      let ok = b2 > b1 && b3 > b2 in
      if not ok then
        Printf.eprintf "[starve] ncores=%d nlc=%d slice=%dus b=%d/%d/%d\n%!"
          ncores nlc slice_us b1 b2 b3;
      ok)

(* --- Dsl.Rq's FIFO ring and the publish walk ------------------------------------------ *)

module Rq = Policies.Dsl.Rq
module Fastpath = Policies.Dsl.Fastpath

(* A pass context over a 2-CPU enclave managing [n] threads, every third
   of them never started (not runnable), plus one tid with no task. *)
let rq_world n =
  let k = Kernel.create (sw_machine 2) in
  let sys = Ghost.System.install k in
  let e = Ghost.System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let tids =
    List.init n (fun i ->
        let t =
          Kernel.create_task k ~name:(Printf.sprintf "t%d" i)
            (Kernel.Task.compute_forever ~slice:(us 10))
        in
        Ghost.System.manage e t;
        if i mod 3 <> 2 then Kernel.start k t;
        t.Kernel.Task.tid)
  in
  let ctx =
    Ghost.Abi.context sys e ~agents:(Sim.Idtbl.create ())
      ~sws:(Sim.Idtbl.create ()) ~cpu_queues:(Sim.Idtbl.create ())
      ~poked:(Sim.Idtbl.create ()) ~cpu_list:(ref [ 0; 1 ])
  in
  Ghost.Abi.begin_pass ctx ~cpu:0;
  (ctx, Array.of_list (tids @ [ 1000 ]))

let valid ctx tid =
  match Ghost.Abi.task_by_tid ctx tid with
  | Some t -> Kernel.Task.is_runnable t
  | None -> false

type rq_op = Push of int | Enqueue of int | Drop of int | Pop | Index

let rq_op_gen npool =
  QCheck.Gen.(
    let tid = frequency [ (3, return 0); (5, int_bound (npool - 1)) ] in
    frequency
      [
        (3, map (fun i -> Push i) tid);
        (5, map (fun i -> Enqueue i) tid);
        (1, map (fun i -> Drop i) tid);
        (2, return Pop);
        (1, return Index);
      ])

(* Each tid's entry count, in order of its first entry. *)
let first_occurrences entries =
  List.fold_left
    (fun acc tid ->
      if List.mem_assoc tid acc then
        List.map (fun (t, n) -> if t = tid then (t, n + 1) else (t, n)) acc
      else acc @ [ (tid, 1) ])
    [] entries

let test_rq_fifo_model =
  (* Few tids, many duplicates, stale and invalid entries; the ring grows
     through several doublings with its head well past slot 0.  The index
     is built at the first [Index] op and maintained from then on. *)
  let npool = 6 in
  qtest ~name:"dsl rq fifo ring and first-entry index = list model" ~count:100
    QCheck.(make Gen.(list_size (int_range 0 400) (rq_op_gen npool)))
    (fun ops ->
      let ctx, pool = rq_world (npool - 1) in
      let q = Rq.fifo () in
      let entries = ref [] and queued = ref [] in
      let rec model_pop () =
        match !entries with
        | [] -> None
        | tid :: rest ->
          entries := rest;
          queued := List.filter (( <> ) tid) !queued;
          if valid ctx tid then Some tid else model_pop ()
      in
      List.for_all
        (fun op ->
          let same_pop =
            match op with
            | Push i ->
              let tid = pool.(i) in
              Rq.push q ctx tid;
              if not (List.mem tid !queued) then begin
                queued := tid :: !queued;
                entries := !entries @ [ tid ]
              end;
              true
            | Enqueue i ->
              Rq.enqueue q pool.(i);
              entries := !entries @ [ pool.(i) ];
              true
            | Drop i ->
              Rq.drop q pool.(i);
              queued := List.filter (( <> ) pool.(i)) !queued;
              true
            | Pop ->
              Option.map (fun t -> t.Kernel.Task.tid) (Rq.pop q ctx) = model_pop ()
            | Index -> Rq.first_entries q = first_occurrences !entries
          in
          let seen = ref [] in
          Rq.iter (fun tid -> seen := tid :: !seen) q;
          same_pop
          && Rq.length q = List.length !entries
          && List.rev !seen = !entries
          && Array.for_all (fun tid -> Rq.mem q tid = List.mem tid !queued) pool)
        (ops @ [ Index ]))

(* The per-entry publish walk the first-entry walk replaces. *)
let publish_per_entry ctx fp q =
  Rq.iter
    (fun tid ->
      if (not (Fastpath.published fp tid)) && valid ctx tid then
        ignore (Fastpath.publish fp ctx tid))
    q

let test_publish_walk_equivalence =
  (* Equal states: a queue with one tid repeated many times, some tids
     published earlier and some of those consumed, on a 4-slot ring that
     fills.  Both walks must leave the same ring, the same published bits
     and the same charge. *)
  let npool = 10 in
  qtest ~name:"dsl publish walk per tid = per entry" ~count:100
    QCheck.(
      make
        Gen.(
          triple
            (list_size (int_range 0 60) (rq_op_gen npool))
            (list_size (int_range 0 4) (int_bound (npool - 1)))
            (int_bound 4)))
    (fun (ops, prepub, consumed) ->
      let run walk =
        let ctx, pool = rq_world (npool - 1) in
        let fp = Fastpath.create ~cap:4 () in
        ignore (Fastpath.install_pick fp ctx);
        let q = Rq.fifo () in
        List.iter
          (function
            | Push i | Enqueue i -> Rq.enqueue q pool.(i)
            | Pop -> ignore (Rq.pop q ctx)
            | Drop _ -> ()
            | Index -> ignore (Rq.first_entries q))
          ops;
        List.iter (fun i -> ignore (Fastpath.publish fp ctx pool.(i))) prepub;
        let meta idx =
          Option.get (Ghost.Abi.bpf_map_get ctx ~map:Bpf.Kit.ring_meta ~idx)
        in
        let head = meta Bpf.Kit.meta_head and tail = meta Bpf.Kit.meta_tail in
        ignore
          (Ghost.Abi.bpf_map_update ctx ~map:Bpf.Kit.ring_meta
             ~idx:Bpf.Kit.meta_head (min tail (head + consumed)));
        Fastpath.reconcile fp ctx;
        Ghost.Abi.begin_pass ctx ~cpu:0;
        walk ctx fp q;
        ( Ghost.Abi.charged ctx,
          List.init 4 (fun idx ->
              Ghost.Abi.bpf_map_get ctx ~map:Bpf.Kit.ring_data ~idx),
          (meta Bpf.Kit.meta_head, meta Bpf.Kit.meta_tail),
          Array.map (Fastpath.published fp) pool )
      in
      run publish_per_entry = run Policies.Dsl.Centralized.publish)

(* --- Dsl.Buckets' fold order ------------------------------------------------------------ *)

module Buckets = Policies.Dsl.Buckets

type bucket_op = Touch of int | Pop_from of int | Take of int

let test_buckets_fold_order =
  (* Keys up to 63, so the reference table resizes past 32 bindings; takes
     reorder it too.  Percpu's steal ties and the digests read this order. *)
  let key = QCheck.Gen.(frequency [ (3, int_bound 7); (2, int_bound 63) ]) in
  qtest ~name:"dsl buckets fold = 16-bucket Hashtbl fold" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 300)
            (frequency
               [
                 (4, map (fun k -> Touch k) key);
                 (2, map (fun k -> Pop_from k) key);
                 (2, map (fun k -> Take k) key);
               ])))
    (fun ops ->
      let ctx, _ = rq_world 2 in
      let b = Buckets.create () in
      let reference = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          let same_take =
            match op with
            | Touch k ->
              ignore (Buckets.len b k);
              Hashtbl.replace reference k ();
              true
            | Pop_from k ->
              ignore (Buckets.pop b ctx k);
              Hashtbl.replace reference k ();
              true
            | Take k ->
              let had = Hashtbl.mem reference k in
              Hashtbl.remove reference k;
              Option.is_some (Buckets.take b k) = had
          in
          same_take
          && Buckets.fold (fun k _ acc -> k :: acc) b []
             = Hashtbl.fold (fun k () acc -> k :: acc) reference [])
        ops)

(* --- CFS: the idle-balance count and the runqueue order ------------------------------- *)

type cfs_op =
  | C_enqueue of int * int * bool  (* task, index into its affinity, is_new *)
  | C_dequeue of int
  | C_pick of int * bool  (* cpu, filtered *)
  | C_put_prev of int
  | C_steal of int * bool

let test_cfs_steal_exact =
  (* Two CCXs of three CPUs, eight tasks with random affinities, driven
     through the class's own interface.  The model says where each task is
     queued or held (picked or stolen, as if running there). *)
  let ncpus = 6 and ntasks = 8 in
  let ccx c = c / 3 in
  let op_gen =
    QCheck.Gen.(
      let task = int_bound (ntasks - 1) and cpu = int_bound (ncpus - 1) in
      frequency
        [
          (5, map3 (fun i j n -> C_enqueue (i, j, n)) task (int_bound 5) bool);
          (1, map (fun i -> C_dequeue i) task);
          (2, map2 (fun c f -> C_pick (c, f)) cpu bool);
          (2, map (fun i -> C_put_prev i) task);
          (4, map2 (fun c f -> C_steal (c, f)) cpu bool);
        ])
  in
  qtest ~name:"cfs steal finds a task iff its CCX queues an allowed one" ~count:300
    QCheck.(
      make
        Gen.(
          pair
            (list_repeat ntasks (int_range 1 ((1 lsl ncpus) - 1)))
            (list_size (int_range 0 200) op_gen)))
    (fun (masks, ops) ->
      let topo =
        Hw.Topology.create ~sockets:1 ~ccx_per_socket:2 ~cores_per_ccx:3 ~smt:1
      in
      let env : Kernel.Class_intf.env =
        {
          engine = Sim.Engine.create ();
          topo;
          costs = Hw.Costs.skylake;
          ncpus;
          core_sched = false;
          curr = (fun _ -> None);
          cpu_idle = (fun _ -> true);
          resched = (fun _ -> ());
          note_queued = (fun ~cpu:_ _ -> ());
        }
      in
      let cls = Kernel.Cfs.cls (Kernel.Cfs.create env) in
      let cpus_of mask = List.filter (fun c -> mask land (1 lsl c) <> 0) (List.init ncpus Fun.id) in
      let tasks =
        Array.of_list
          (List.mapi
             (fun i mask ->
               Kernel.Task.make ~tid:(i + 1) ~name:"t" ~policy:Kernel.Task.Cfs
                 ~nice:0
                 ~affinity:(Cpumask.of_list ~ncpus (cpus_of mask))
                 (fun () -> Kernel.Task.Exit))
             masks)
      in
      let index (task : Kernel.Task.t) = task.tid - 1 in
      let queued_on = Array.make ntasks (-1) and held_on = Array.make ntasks (-1) in
      let filter_of filtered =
        if filtered then fun (task : Kernel.Task.t) -> task.tid mod 2 = 0
        else Kernel.Class_intf.no_filter
      in
      let take_from ~cpu = function
        | Some task ->
          queued_on.(index task) <- -1;
          held_on.(index task) <- cpu
        | None -> ()
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | C_enqueue (i, j, is_new) ->
              if queued_on.(i) < 0 && held_on.(i) < 0 then begin
                let allowed = Cpumask.to_list tasks.(i).affinity in
                let cpu = List.nth allowed (j mod List.length allowed) in
                cls.enqueue ~cpu ~is_new tasks.(i);
                queued_on.(i) <- cpu
              end;
              true
            | C_dequeue i ->
              if queued_on.(i) >= 0 then begin
                cls.dequeue tasks.(i);
                queued_on.(i) <- -1
              end;
              true
            | C_put_prev i ->
              let cpu = held_on.(i) in
              if cpu >= 0 then begin
                cls.put_prev ~cpu tasks.(i);
                held_on.(i) <- -1;
                queued_on.(i) <- cpu
              end;
              true
            | C_pick (cpu, filtered) ->
              let filter = filter_of filtered in
              let got = cls.pick ~cpu ~filter in
              let ok =
                match got with
                | Some task -> queued_on.(index task) = cpu && filter task
                | None ->
                  not
                    (Array.exists
                       (fun (task : Kernel.Task.t) ->
                         queued_on.(index task) = cpu && filter task)
                       tasks)
              in
              take_from ~cpu got;
              ok
            | C_steal (cpu, filtered) ->
              let filter = filter_of filtered in
              let stealable (task : Kernel.Task.t) =
                let q = queued_on.(index task) in
                q >= 0 && q <> cpu && ccx q = ccx cpu
                && Cpumask.mem task.affinity cpu && filter task
              in
              let got = cls.steal ~cpu ~filter in
              let ok =
                match got with
                | Some task -> stealable task && task.cpu = cpu
                | None -> not (Array.exists stealable tasks)
              in
              take_from ~cpu got;
              ok
          in
          ok
          && List.for_all
               (fun cpu ->
                 cls.nr_runnable ~cpu
                 = Array.fold_left (fun n q -> if q = cpu then n + 1 else n) 0 queued_on)
               (List.init ncpus Fun.id))
        ops)

let test_cfs_task_order =
  let v =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl [ Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 1.5 ]);
          (2, float);
        ])
  in
  qtest ~name:"cfs task order = compare on (vruntime, tid)" ~count:2000
    QCheck.(make Gen.(pair (pair v (int_bound 3)) (pair v (int_bound 3))))
    (fun ((va, ta), (vb, tb)) ->
      let task v tid =
        let t =
          Kernel.Task.make ~tid ~name:"t" ~policy:Kernel.Task.Cfs ~nice:0
            ~affinity:(Cpumask.create_full ~ncpus:1)
            (fun () -> Kernel.Task.Exit)
        in
        t.vruntime <- v;
        t
      in
      Kernel.Cfs.TaskOrd.compare (task va ta) (task vb tb) = compare (va, ta) (vb, tb))

(* --- Task combinators --------------------------------------------------------------- *)

let test_compute_total_sums =
  qtest ~name:"compute_total consumes exactly its total" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 1 5000))
    (fun (slice, total) ->
      let behavior =
        Kernel.Task.compute_total ~slice ~total (fun () -> Kernel.Task.Exit)
      in
      let rec consume action acc =
        match action with
        | Kernel.Task.Run { ns; after } -> consume (after ()) (acc + ns)
        | Kernel.Task.Exit -> acc
        | Kernel.Task.Block _ | Kernel.Task.Yield _ -> -1
      in
      consume (behavior ()) 0 = total)

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        test_cpumask_roundtrip; test_cpumask_set_ops; test_cpumask_cardinal;
        test_cpumask_add_remove; test_squeue_fifo; test_squeue_overflow_accounting;
        test_squeue_visibility; test_snapshot_never_torn;
        test_prewrite_seq_commit_estale; test_eventq_model;
        test_topology_partitions; test_topology_sibling_involution;
        test_uniform_class_identity;
        test_dsl_work_conservation; test_dsl_no_lost_threads;
        test_dsl_bounded_starvation; test_rq_fifo_model;
        test_publish_walk_equivalence; test_buckets_fold_order;
        test_cfs_steal_exact; test_cfs_task_order; test_compute_total_sums;
      ]
  in
  Alcotest.run "properties" [ ("model-based", suite) ]
