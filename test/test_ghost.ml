(* Tests for the ghOSt core: enclaves, messages, queues, transactions,
   agents, watchdog, fallback and upgrade. *)

module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module System = Ghost.System
module Agent = Ghost.Agent
module Msg = Ghost.Msg
module Txn = Ghost.Txn
module Squeue = Ghost.Squeue

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let tiny ?(smt = 1) ncores =
  {
    Hw.Machines.name = Printf.sprintf "tiny-%dx%d" ncores smt;
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt;
    costs = Hw.Costs.skylake;
  }

let setup ?(ncores = 4) () =
  let k = Kernel.create (tiny ncores) in
  let sys = System.install k in
  (k, sys)

let enclave_all sys k ?watchdog_timeout () =
  System.create_enclave sys ?watchdog_timeout ~cpus:(Kernel.full_mask k) ()

let finite_task k ~name ~total =
  let done_at = ref (-1) in
  let task =
    Kernel.create_task k ~name
      (Task.compute_total ~slice:(us 100) ~total (fun () ->
           done_at := Kernel.now k;
           Task.Exit))
  in
  (task, done_at)

(* --- Enclaves --------------------------------------------------------------- *)

let test_enclave_partition () =
  let _k, sys = setup () in
  let e1 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 0; 1 ]) () in
  let e2 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 2; 3 ]) () in
  check_bool "alive" true (System.enclave_alive e1 && System.enclave_alive e2);
  check_bool "cpu 0 owned by e1" true
    (match System.enclave_of_cpu sys 0 with
    | Some e -> System.enclave_id e = System.enclave_id e1
    | None -> false);
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "create_enclave: cpu 1 already owned") (fun () ->
      ignore (System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 1 ]) ()))

let test_enclave_cpus_freed_on_destroy () =
  let k, sys = setup () in
  ignore k;
  let e1 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 0; 1 ]) () in
  System.destroy_enclave sys e1;
  check_bool "destroyed" false (System.enclave_alive e1);
  let e2 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 0; 1 ]) () in
  check_bool "cpus reusable" true (System.enclave_alive e2)

(* --- Messages --------------------------------------------------------------- *)

let test_manage_posts_created () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task, _ = finite_task k ~name:"w" ~total:(ms 1) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  let q = System.default_queue e in
  check_int "one message" 1 (Squeue.length q);
  (match Squeue.consume q ~now:(Kernel.now k) with
  | Some m ->
    check_bool "created kind" true (m.Msg.kind = Msg.THREAD_CREATED);
    check_int "right tid" task.Task.tid m.Msg.tid
  | None -> Alcotest.fail "no visible message")

let test_message_sequence_monotonic () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  (* A thread that blocks and wakes several times produces a monotone tseq.
     Drive it with direct commits (no agent drains the queue, so the whole
     history stays inspectable). *)
  let task =
    Kernel.create_task k ~name:"w" (fun () ->
        let rec loop n () =
          if n = 0 then Task.Exit
          else
            Task.Run
              { ns = us 50; after = (fun () -> Task.Block { after = loop (n - 1) }) }
        in
        loop 5 ())
  in
  System.manage e task;
  Kernel.start k task;
  for _ = 1 to 6 do
    Kernel.run_for k (ms 1);
    if Task.is_runnable task then begin
      let txn = System.make_txn sys ~tid:task.Task.tid ~cpu:1 () in
      System.commit sys e ~agent_cpu:0 ~agent_sw:None ~atomic:false [ txn ]
    end;
    Kernel.run_for k (ms 1);
    Kernel.wake k task
  done;
  Kernel.run_for k (ms 1);
  let q = System.default_queue e in
  let rec collect acc =
    match Squeue.consume q ~now:(Kernel.now k) with
    | Some m -> collect (m :: acc)
    | None -> List.rev acc
  in
  let msgs = collect [] in
  check_bool "got several messages" true (List.length msgs >= 8);
  let seqs = List.map (fun m -> m.Msg.tseq) msgs in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  check_bool "tseq strictly increasing" true (monotone seqs)

let test_queue_overflow_drops () =
  let q = Squeue.create ~id:1 ~capacity:2 in
  let mk i =
    {
      Msg.kind = Msg.TIMER_TICK;
      tid = -1;
      tseq = i;
      cpu = 0;
      posted_at = 0;
      visible_at = 0;
    }
  in
  check_bool "1 ok" true (Squeue.produce q (mk 1));
  check_bool "2 ok" true (Squeue.produce q (mk 2));
  check_bool "3 dropped" false (Squeue.produce q (mk 3));
  check_int "dropped count" 1 (Squeue.dropped q)

(* --- Transactions (direct System API) --------------------------------------- *)

let direct_commit sys e ~agent_cpu txn =
  System.commit sys e ~agent_cpu ~agent_sw:None ~atomic:false [ txn ]

let test_commit_latches_and_runs () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task, done_at = finite_task k ~name:"w" ~total:(us 200) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  check_bool "not yet running (no agent)" true (task.Task.state = Task.Runnable);
  let txn = System.make_txn sys ~tid:task.Task.tid ~cpu:2 () in
  direct_commit sys e ~agent_cpu:0 txn;
  check_bool "committed" true (Txn.committed txn);
  Kernel.run_until k (ms 1);
  check_bool "ran to completion" true (!done_at > 0);
  check_int "on target cpu" 2 task.Task.cpu

let test_commit_enoent () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  (* A policy may name any int as the txn tid, including ones no table
     could hold: each fails ENOENT without raising or latching. *)
  List.iter
    (fun tid ->
      let txn = System.make_txn sys ~tid ~cpu:0 () in
      direct_commit sys e ~agent_cpu:0 txn;
      check_bool (Printf.sprintf "enoent (tid %d)" tid) true
        (txn.Txn.status = Txn.Failed Txn.Enoent);
      check_bool (Printf.sprintf "nothing latched (tid %d)" tid) true
        (Option.is_none (System.latched sys ~cpu:0)))
    [ 4242; -1; max_int ];
  ignore k

let test_commit_affinity () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task, _ = finite_task k ~name:"w" ~total:(ms 1) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  Kernel.set_affinity k task (Cpumask.of_list ~ncpus:4 [ 0; 1 ]);
  let txn = System.make_txn sys ~tid:task.Task.tid ~cpu:3 () in
  direct_commit sys e ~agent_cpu:0 txn;
  check_bool "eaffinity" true (txn.Txn.status = Txn.Failed Txn.Eaffinity)

let test_commit_estale_thread_seq () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task, _ = finite_task k ~name:"w" ~total:(ms 1) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  let seq = match System.thread_seq sys task with Some s -> s | None -> -1 in
  (* A later event (affinity change) bumps tseq; the old seq is then stale. *)
  Kernel.set_affinity k task (Cpumask.of_list ~ncpus:4 [ 0; 1; 2 ]);
  let txn = System.make_txn sys ~tid:task.Task.tid ~cpu:1 ~thread_seq:seq () in
  direct_commit sys e ~agent_cpu:0 txn;
  check_bool "estale" true (txn.Txn.status = Txn.Failed Txn.Estale);
  check_int "stat counted" 1 (System.stats sys).System.estales

let test_commit_not_runnable () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task =
    Kernel.create_task k ~name:"sleeper" (fun () ->
        Task.Block { after = (fun () -> Task.Exit) })
  in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  (* Run it once so it reaches its Block. *)
  let first = System.make_txn sys ~tid:task.Task.tid ~cpu:1 () in
  direct_commit sys e ~agent_cpu:0 first;
  Kernel.run_until k (ms 1);
  check_bool "blocked" true (task.Task.state = Task.Blocked);
  let txn = System.make_txn sys ~tid:task.Task.tid ~cpu:1 () in
  direct_commit sys e ~agent_cpu:0 txn;
  check_bool "enotrunnable" true (txn.Txn.status = Txn.Failed Txn.Enotrunnable)

let test_atomic_group_abort () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let good, _ = finite_task k ~name:"good" ~total:(ms 1) in
  System.manage e good;
  Kernel.start k good;
  Kernel.run_until k (us 10);
  let t1 = System.make_txn sys ~tid:good.Task.tid ~cpu:1 () in
  let t2 = System.make_txn sys ~tid:999 ~cpu:2 () in
  System.commit sys e ~agent_cpu:0 ~agent_sw:None ~atomic:true [ t1; t2 ];
  check_bool "good txn aborted" true (t1.Txn.status = Txn.Failed Txn.Eaborted);
  check_bool "bad txn enoent" true (t2.Txn.status = Txn.Failed Txn.Enoent);
  check_bool "nothing latched" true (System.latched sys ~cpu:1 = None)

let test_recall () =
  let k, sys = setup () in
  let e = enclave_all sys k () in
  (* Latch onto a CPU occupied by a CFS hog so the thread stays latched. *)
  let hog, _ = finite_task k ~name:"hog" ~total:(ms 100) in
  Kernel.start k hog;
  Kernel.run_until k (us 10);
  let hog_cpu = hog.Task.cpu in
  let task, _ = finite_task k ~name:"w" ~total:(ms 1) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 20);
  let txn = System.make_txn sys ~tid:task.Task.tid ~cpu:hog_cpu () in
  direct_commit sys e ~agent_cpu:(if hog_cpu = 0 then 1 else 0) txn;
  check_bool "latched behind hog" true (System.latched sys ~cpu:hog_cpu <> None);
  (match System.recall sys e ~cpu:hog_cpu with
  | Some t -> check_int "recalled the thread" task.Task.tid t.Task.tid
  | None -> Alcotest.fail "recall returned nothing");
  check_bool "slot empty" true (System.latched sys ~cpu:hog_cpu = None)

(* --- Agents: centralized FIFO ----------------------------------------------- *)

let test_global_agent_schedules () =
  let k, sys = setup ~ncores:4 () in
  let e = enclave_all sys k () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let _group = Agent.attach_global sys e pol in
  let tasks = List.init 6 (fun i -> finite_task k ~name:(Printf.sprintf "w%d" i) ~total:(ms 2)) in
  List.iter
    (fun (t, _) ->
      System.manage e t;
      Kernel.start k t)
    tasks;
  Kernel.run_until k (ms 20);
  List.iter
    (fun ((t : Task.t), d) ->
      check_bool (Printf.sprintf "%s finished" t.Task.name) true (!d > 0))
    tasks

let test_global_agent_timeslice_preempts () =
  let k, sys = setup ~ncores:2 () in
  let e = enclave_all sys k () in
  (* 1 worker CPU (agent holds the other).  Two long threads with a 30us
     slice must interleave rather than run to completion. *)
  let st, pol = Policies.Fifo_centralized.policy ~timeslice:(us 30) () in
  let _group = Agent.attach_global sys e pol in
  let a, da = finite_task k ~name:"a" ~total:(us 200) in
  let b, db = finite_task k ~name:"b" ~total:(us 200) in
  List.iter
    (fun t ->
      System.manage e t;
      Kernel.start k t)
    [ a; b ];
  Kernel.run_until k (ms 5);
  check_bool "both finished" true (!da > 0 && !db > 0);
  check_bool "interleaved (completion gap small)" true
    (abs (!da - !db) < us 150);
  check_bool "preemptions happened" true
    (a.Task.nr_preemptions + b.Task.nr_preemptions >= 4);
  ignore st

let test_cfs_preempts_ghost_thread () =
  let k, sys = setup ~ncores:2 () in
  let e = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:2 [ 1 ]) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  (* Enclave has only cpu 1; the agent spins there... so use local model
     instead: a ghost thread on cpu 1, preempted by a CFS task. *)
  ignore pol;
  let gt =
    Kernel.create_task k ~name:"ghostly" (Task.compute_forever ~slice:(us 100))
  in
  System.manage e gt;
  Kernel.start k gt;
  Kernel.run_until k (us 10);
  let txn = System.make_txn sys ~tid:gt.Task.tid ~cpu:1 () in
  direct_commit sys e ~agent_cpu:0 txn;
  Kernel.run_until k (ms 1);
  check_bool "ghost thread running" true (gt.Task.state = Task.Running);
  (* CFS task pinned to cpu 1 preempts it immediately. *)
  let cfs =
    Kernel.create_task k ~name:"cfs"
      ~affinity:(Cpumask.of_list ~ncpus:2 [ 1 ])
      (Task.compute_total ~slice:(us 100) ~total:(us 500) (fun () -> Task.Exit))
  in
  Kernel.start k cfs;
  Kernel.run_until k (ms 1 + us 50);
  check_bool "cfs runs" true (cfs.Task.state = Task.Running || cfs.Task.state = Task.Dead);
  check_bool "ghost preempted" true (gt.Task.nr_preemptions > 0);
  (* And a THREAD_PREEMPTED message was posted. *)
  let q = System.default_queue e in
  let found = ref false in
  let rec scan () =
    match Squeue.consume q ~now:(Kernel.now k) with
    | Some m ->
      if m.Msg.kind = Msg.THREAD_PREEMPTED then found := true;
      scan ()
    | None -> ()
  in
  scan ();
  check_bool "THREAD_PREEMPTED posted" true !found

(* --- Agents: per-CPU model --------------------------------------------------- *)

let test_local_agents_schedule () =
  let k, sys = setup ~ncores:4 () in
  let e = enclave_all sys k () in
  let st, pol = Policies.Fifo_percpu.policy () in
  let _group = Agent.attach_local sys e pol in
  let tasks =
    List.init 8 (fun i -> finite_task k ~name:(Printf.sprintf "w%d" i) ~total:(ms 1))
  in
  List.iter
    (fun (t, _) ->
      System.manage e t;
      Kernel.start k t)
    tasks;
  Kernel.run_until k (ms 30);
  List.iter
    (fun ((t : Task.t), d) ->
      check_bool (Printf.sprintf "%s finished" t.Task.name) true (!d > 0))
    tasks;
  check_bool "several commits" true (Policies.Fifo_percpu.scheduled st >= 8)

let test_associate_queue_pending_protocol () =
  (* ASSOCIATE_QUEUE must fail while the old queue still holds messages for
     the thread, and succeed after a drain (3.1). *)
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task, _ = finite_task k ~name:"w" ~total:(ms 1) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  (* The CREATED message sits undrained in the default queue. *)
  let q2 = System.create_queue e ~capacity:16 in
  (match System.associate_queue e task q2 with
  | Error `Pending_messages -> ()
  | Ok () -> Alcotest.fail "association must fail with pending messages");
  (* Drain, then re-issue. *)
  let rec drain () =
    match Squeue.consume (System.default_queue e) ~now:(Kernel.now k) with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  (match System.associate_queue e task q2 with
  | Ok () -> ()
  | Error `Pending_messages -> Alcotest.fail "association must succeed after drain");
  (* Subsequent messages land on the new queue. *)
  Kernel.set_affinity k task (Cpumask.of_list ~ncpus:4 [ 0; 1 ]);
  Kernel.run_until k (us 20);
  check_bool "message routed to new queue" true (Squeue.length q2 = 1)

let test_destroy_queue_then_posts () =
  (* DESTROY_QUEUE drops the queue from the enclave, but threads still
     associated with it keep posting into it harmlessly until they are
     re-associated (3.1). *)
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task, _ = finite_task k ~name:"w" ~total:(ms 1) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  let rec drain q =
    match Squeue.consume q ~now:(Kernel.now k) with
    | Some _ -> drain q
    | None -> ()
  in
  drain (System.default_queue e);
  let q2 = System.create_queue e ~capacity:16 in
  (match System.associate_queue e task q2 with
  | Ok () -> ()
  | Error `Pending_messages -> Alcotest.fail "association must succeed");
  System.destroy_queue e q2;
  (* A post-destroy message lands in the orphaned queue, not the default. *)
  Kernel.set_affinity k task (Cpumask.of_list ~ncpus:4 [ 0; 1 ]);
  Kernel.run_until k (us 20);
  check_int "orphan queue receives the post" 1 (Squeue.length q2);
  check_int "default queue untouched" 0 (Squeue.length (System.default_queue e));
  (* Re-association still honors the pending-messages protocol against the
     dead queue, then reroutes. *)
  (match System.associate_queue e task (System.default_queue e) with
  | Error `Pending_messages -> ()
  | Ok () -> Alcotest.fail "pending messages in the dead queue must block");
  drain q2;
  (match System.associate_queue e task (System.default_queue e) with
  | Ok () -> ()
  | Error `Pending_messages -> Alcotest.fail "must succeed after drain");
  Kernel.set_affinity k task (Cpumask.of_list ~ncpus:4 [ 0; 1; 2 ]);
  Kernel.run_until k (us 30);
  check_int "rerouted to the default queue" 1
    (Squeue.length (System.default_queue e))

(* --- Dynamic resizing --------------------------------------------------------- *)

let test_resize_messages_and_callbacks () =
  let k, sys = setup () in
  let e =
    System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 0; 1; 2 ]) ()
  in
  let resizes = ref [] in
  System.on_resize e (fun r -> resizes := r :: !resizes);
  System.add_cpu sys e 3;
  check_bool "cpu 3 joined" true
    (match System.enclave_of_cpu sys 3 with
    | Some e' -> System.enclave_id e' = System.enclave_id e
    | None -> false);
  System.remove_cpu sys e 1;
  check_bool "cpu 1 left" true (System.enclave_of_cpu sys 1 = None);
  check_bool "cpu 1 off the mask" false
    (Cpumask.mem (System.enclave_cpus e) 1);
  (* Let the posted messages become visible (produce cost). *)
  Kernel.run_until k (us 1);
  let kinds = ref [] in
  let rec scan () =
    match Squeue.consume (System.default_queue e) ~now:(Kernel.now k) with
    | Some m ->
      kinds := m.Msg.kind :: !kinds;
      scan ()
    | None -> ()
  in
  scan ();
  check_bool "CPU_AVAILABLE posted" true (List.mem Msg.CPU_AVAILABLE !kinds);
  check_bool "CPU_TAKEN posted" true (List.mem Msg.CPU_TAKEN !kinds);
  check_bool "both callbacks fired" true
    (List.mem (System.Cpu_added 3) !resizes
    && List.mem (System.Cpu_removed 1) !resizes)

let test_remove_cpu_estale () =
  (* A transaction created before the CPU departs fails its commit with
     ESTALE; one created after the removal fails ENOENT. *)
  let k, sys = setup () in
  let e = enclave_all sys k () in
  let task =
    Kernel.create_task k ~name:"w" (Task.compute_forever ~slice:(us 100))
  in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (us 10);
  let in_flight = System.make_txn sys ~tid:task.Task.tid ~cpu:2 () in
  System.remove_cpu sys e 2;
  direct_commit sys e ~agent_cpu:0 in_flight;
  check_bool "in-flight commit fails ESTALE" true
    (in_flight.Txn.status = Txn.Failed Txn.Estale);
  let after = System.make_txn sys ~tid:task.Task.tid ~cpu:2 () in
  direct_commit sys e ~agent_cpu:0 after;
  check_bool "post-removal commit fails ENOENT" true
    (after.Txn.status = Txn.Failed Txn.Enoent);
  (* The surviving CPUs still commit fine. *)
  let ok = System.make_txn sys ~tid:task.Task.tid ~cpu:3 () in
  direct_commit sys e ~agent_cpu:0 ok;
  check_bool "other cpus unaffected" true (Txn.committed ok)

let test_percpu_work_stealing () =
  (* 2-CPU enclave: threads homed to cpu 1 finish early; its agent steals
     waiting threads from cpu 0's runqueue via ASSOCIATE_QUEUE. *)
  let k, sys = setup ~ncores:2 () in
  let e = enclave_all sys k () in
  let st, pol = Policies.Fifo_percpu.policy () in
  let _group = Agent.attach_local sys e pol in
  (* Round-robin homes: even indices -> cpu 0, odd -> cpu 1.  Odd threads
     are tiny; even threads are long, so cpu 0's queue backs up. *)
  let mk i =
    let total = if i mod 2 = 0 then ms 3 else us 50 in
    let t, d = finite_task k ~name:(Printf.sprintf "w%d" i) ~total in
    System.manage e t;
    Kernel.start k t;
    (t, d)
  in
  let tasks = List.init 6 mk in
  Kernel.run_until k (ms 30);
  List.iter
    (fun ((t : Task.t), d) ->
      check_bool (Printf.sprintf "%s finished" t.Task.name) true (!d > 0))
    tasks;
  check_bool "steals happened" true (Policies.Fifo_percpu.steals st > 0)

(* --- Fault isolation & upgrades ---------------------------------------------- *)

let test_watchdog_fallback () =
  let k, sys = setup ~ncores:2 () in
  (* Enclave with watchdog but NO agent: runnable managed threads starve,
     the watchdog fires and they fall back to CFS. *)
  let e = enclave_all sys k ~watchdog_timeout:(ms 10) () in
  let task, done_at = finite_task k ~name:"w" ~total:(ms 2) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (ms 5);
  check_bool "starving under ghost" true (task.Task.sum_exec = 0);
  Kernel.run_until k (ms 60);
  check_bool "enclave destroyed by watchdog" false (System.enclave_alive e);
  check_bool "watchdog reason" true (System.destroy_reason e = Some System.Watchdog);
  check_bool "task finished under CFS" true (!done_at > 0);
  check_bool "policy now CFS" true (task.Task.policy = Task.Cfs);
  check_int "watchdog stat" 1 (System.stats sys).System.watchdog_fires

let test_agent_crash_fallback () =
  let k, sys = setup ~ncores:2 () in
  let e = enclave_all sys k () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let group = Agent.attach_global sys e pol in
  let task, done_at = finite_task k ~name:"w" ~total:(ms 50) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (ms 5);
  check_bool "scheduled by agent" true (task.Task.sum_exec > 0);
  Agent.crash group;
  Kernel.run_until k (ms 10);
  check_bool "enclave destroyed after crash" false (System.enclave_alive e);
  check_bool "fallback reason" true
    (System.destroy_reason e = Some System.Agent_crash);
  Kernel.run_until k (ms 100);
  check_bool "task finished under CFS" true (!done_at > 0)

let test_inplace_upgrade () =
  let k, sys = setup ~ncores:2 () in
  let e = enclave_all sys k () in
  let _, pol1 = Policies.Fifo_centralized.policy () in
  let g1 = Agent.attach_global sys e pol1 in
  let task, done_at = finite_task k ~name:"w" ~total:(ms 100) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (ms 5);
  (* Planned upgrade: stop old agents, attach new ones within the grace
     period; the enclave must survive and scheduling resume. *)
  Agent.stop g1;
  Kernel.run_until k (Kernel.now k + us 50);
  let _, pol2 = Policies.Fifo_centralized.policy () in
  let g2 = Agent.attach_global sys e pol2 in
  Kernel.run_until k (ms 300);
  check_bool "enclave survived upgrade" true (System.enclave_alive e);
  check_bool "new agent attached" true (Agent.is_attached g2);
  check_bool "task finished under new agent" true (!done_at > 0);
  check_bool "still ghost policy" true (task.Task.policy = Task.Ghost)

let test_explicit_destroy_returns_threads () =
  let k, sys = setup ~ncores:2 () in
  let e = enclave_all sys k () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let group = Agent.attach_global sys e pol in
  let task, done_at = finite_task k ~name:"w" ~total:(ms 20) in
  System.manage e task;
  Kernel.start k task;
  Kernel.run_until k (ms 2);
  System.destroy_enclave sys e;
  Kernel.run_until k (ms 100);
  check_bool "task finished under CFS" true (!done_at > 0);
  check_bool "agents dead" true
    (List.for_all
       (fun (a : Task.t) -> a.Task.state = Task.Dead)
       (System.agent_tasks e));
  ignore group

(* --- Hot handoff -------------------------------------------------------------- *)

let test_global_agent_handoff () =
  let k, sys = setup ~ncores:2 () in
  let e = enclave_all sys k () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let group = Agent.attach_global sys e pol in
  Kernel.run_until k (ms 1);
  let cpu0 = Agent.global_cpu group in
  check_int "starts on cpu 0" 0 cpu0;
  (* A CFS task pinned to the agent's CPU forces a hot handoff. *)
  let cfs, cfs_done = finite_task k ~name:"pinned" ~total:(ms 2) in
  Kernel.set_affinity k cfs (Cpumask.of_list ~ncpus:2 [ cpu0 ]);
  Kernel.start k cfs;
  Kernel.run_until k (ms 10);
  check_bool "agent moved away" true (Agent.global_cpu group <> cpu0);
  check_bool "cfs task ran" true (!cfs_done > 0)

let () =
  Alcotest.run "ghost"
    [
      ( "enclave",
        [
          Alcotest.test_case "partition" `Quick test_enclave_partition;
          Alcotest.test_case "destroy frees cpus" `Quick
            test_enclave_cpus_freed_on_destroy;
        ] );
      ( "messages",
        [
          Alcotest.test_case "manage posts CREATED" `Quick test_manage_posts_created;
          Alcotest.test_case "tseq monotonic" `Quick test_message_sequence_monotonic;
          Alcotest.test_case "queue overflow" `Quick test_queue_overflow_drops;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "latch and run" `Quick test_commit_latches_and_runs;
          Alcotest.test_case "enoent" `Quick test_commit_enoent;
          Alcotest.test_case "eaffinity" `Quick test_commit_affinity;
          Alcotest.test_case "estale via tseq" `Quick test_commit_estale_thread_seq;
          Alcotest.test_case "enotrunnable" `Quick test_commit_not_runnable;
          Alcotest.test_case "atomic abort" `Quick test_atomic_group_abort;
          Alcotest.test_case "recall" `Quick test_recall;
        ] );
      ( "agents",
        [
          Alcotest.test_case "global schedules" `Quick test_global_agent_schedules;
          Alcotest.test_case "timeslice preemption" `Quick
            test_global_agent_timeslice_preempts;
          Alcotest.test_case "cfs preempts ghost" `Quick test_cfs_preempts_ghost_thread;
          Alcotest.test_case "local agents" `Quick test_local_agents_schedule;
          Alcotest.test_case "hot handoff" `Quick test_global_agent_handoff;
          Alcotest.test_case "associate-queue protocol" `Quick
            test_associate_queue_pending_protocol;
          Alcotest.test_case "destroy-queue then posts" `Quick
            test_destroy_queue_then_posts;
          Alcotest.test_case "per-cpu work stealing" `Quick
            test_percpu_work_stealing;
        ] );
      ( "resizing",
        [
          Alcotest.test_case "messages + callbacks" `Quick
            test_resize_messages_and_callbacks;
          Alcotest.test_case "remove_cpu fails in-flight txns ESTALE" `Quick
            test_remove_cpu_estale;
        ] );
      ( "fault-isolation",
        [
          Alcotest.test_case "watchdog fallback" `Quick test_watchdog_fallback;
          Alcotest.test_case "crash fallback" `Quick test_agent_crash_fallback;
          Alcotest.test_case "in-place upgrade" `Quick test_inplace_upgrade;
          Alcotest.test_case "explicit destroy" `Quick
            test_explicit_destroy_returns_threads;
        ] );
    ]
