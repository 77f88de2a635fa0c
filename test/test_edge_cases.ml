(* Edge cases and error paths across kernel and ghOSt APIs. *)

module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module System = Ghost.System
module Agent = Ghost.Agent
module Squeue = Ghost.Squeue
module Msg = Ghost.Msg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "edge-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

let setup ncores =
  let k = Kernel.create (machine ncores) in
  let sys = System.install k in
  (k, sys)

(* --- Kernel argument validation ----------------------------------------- *)

let test_kernel_arg_validation () =
  let k, _ = setup 2 in
  Alcotest.check_raises "empty affinity"
    (Invalid_argument "Kernel.create_task: empty affinity") (fun () ->
      ignore
        (Kernel.create_task k
           ~affinity:(Cpumask.create_empty ~ncpus:2)
           ~name:"x"
           (Task.compute_forever ~slice:(us 10))));
  let t =
    Kernel.create_task k ~name:"t" (Task.compute_forever ~slice:(us 10))
  in
  Kernel.start k t;
  Alcotest.check_raises "double start"
    (Invalid_argument "Kernel.start: task already started") (fun () ->
      Kernel.start k t)

let test_kill_every_state () =
  let k, _ = setup 2 in
  (* Created *)
  let a = Kernel.create_task k ~name:"a" (Task.compute_forever ~slice:(us 10)) in
  Kernel.kill k a;
  check_bool "created->dead" true (a.Task.state = Task.Dead);
  (* Runnable (queued behind a hog) *)
  let hog =
    Kernel.create_task k ~name:"hog"
      ~affinity:(Cpumask.singleton ~ncpus:2 0)
      (Task.compute_forever ~slice:(us 100))
  in
  Kernel.start k hog;
  Kernel.run_until k (us 50);
  let b =
    Kernel.create_task k ~name:"b"
      ~affinity:(Cpumask.singleton ~ncpus:2 0)
      (Task.compute_forever ~slice:(us 10))
  in
  Kernel.start k b;
  Kernel.kill k b;
  check_bool "runnable->dead" true (b.Task.state = Task.Dead);
  (* Blocked *)
  let c =
    Kernel.create_task k ~name:"c" (fun () ->
        Task.Block { after = (fun () -> Task.Exit) })
  in
  Kernel.start k c;
  Kernel.run_until k (ms 1);
  Kernel.kill k c;
  check_bool "blocked->dead" true (c.Task.state = Task.Dead);
  (* Running *)
  Kernel.kill k hog;
  Kernel.run_until k (ms 2);
  check_bool "running->dead" true (hog.Task.state = Task.Dead);
  check_bool "cpu released" true (Kernel.cpu_idle k 0)

let test_set_policy_roundtrip () =
  (* CFS -> MQ -> RT -> CFS while running; the task keeps progressing. *)
  let k, _ = setup 1 in
  let t = Kernel.create_task k ~name:"roam" (Task.compute_forever ~slice:(us 100)) in
  Kernel.start k t;
  Kernel.run_until k (ms 2);
  let p1 = t.Task.sum_exec in
  Kernel.set_policy k t Task.Microquanta;
  Kernel.run_until k (ms 4);
  let p2 = t.Task.sum_exec in
  check_bool "progress under MQ" true (p2 > p1);
  Kernel.set_policy k t Task.Rt;
  Kernel.run_until k (ms 6);
  let p3 = t.Task.sum_exec in
  check_bool "progress under RT" true (p3 > p2);
  Kernel.set_policy k t Task.Cfs;
  Kernel.run_until k (ms 8);
  check_bool "progress back under CFS" true (t.Task.sum_exec > p3)

(* --- Enclave / queue edge cases -------------------------------------------- *)

let test_manage_rejections () =
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let t = Kernel.create_task k ~name:"t" (Task.compute_forever ~slice:(us 10)) in
  System.manage e t;
  Alcotest.check_raises "double manage" (Invalid_argument "manage: already managed")
    (fun () -> System.manage e t);
  let _, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e pol in
  Kernel.run_until k (ms 1);
  (match System.agent_tasks e with
  | agent :: _ ->
    Alcotest.check_raises "cannot manage an agent"
      (Invalid_argument "manage: cannot manage an agent") (fun () ->
        System.manage e agent)
  | [] -> Alcotest.fail "no agents");
  System.destroy_enclave sys e;
  let t2 = Kernel.create_task k ~name:"t2" (Task.compute_forever ~slice:(us 10)) in
  Alcotest.check_raises "manage on dead enclave"
    (Invalid_argument "manage: enclave destroyed") (fun () -> System.manage e t2)

let test_unmanage_returns_to_cfs () =
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e pol in
  let t = Kernel.create_task k ~name:"t" (Task.compute_forever ~slice:(us 100)) in
  System.manage e t;
  Kernel.start k t;
  Kernel.run_until k (ms 2);
  check_bool "running under ghost" true (t.Task.policy = Task.Ghost);
  System.unmanage sys t;
  Kernel.run_until k (ms 4);
  check_bool "now cfs" true (t.Task.policy = Task.Cfs);
  check_bool "still progressing" true (t.Task.sum_exec > ms 1);
  (* Idempotent. *)
  System.unmanage sys t

let test_tick_queue_routing () =
  (* TIMER_TICK for a CPU goes to the queue configured for that CPU. *)
  let k, sys = setup 2 in
  let e =
    System.create_enclave sys ~deliver_ticks:true ~cpus:(Kernel.full_mask k) ()
  in
  let q1 = System.create_queue e ~capacity:1024 in
  System.associate_cpu_queue e ~cpu:1 q1;
  Kernel.run_until k (ms 5);
  let count_ticks q =
    let n = ref 0 in
    let rec go () =
      match Squeue.consume q ~now:(Kernel.now k) with
      | Some m ->
        if m.Msg.kind = Msg.TIMER_TICK then incr n;
        go ()
      | None -> ()
    in
    go ();
    !n
  in
  let on_q1 = count_ticks q1 in
  let on_default = count_ticks (System.default_queue e) in
  check_bool (Printf.sprintf "cpu1 ticks on q1 (%d)" on_q1) true (on_q1 >= 4);
  check_bool "cpu0 ticks on default" true (on_default >= 4);
  (* Roughly one per ms per cpu. *)
  check_bool "counts plausible" true (abs (on_q1 - on_default) <= 2)

let test_queue_drop_counting () =
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  ignore e;
  (* Overflow a tiny standalone queue through the system post path is
     internal; exercise the Squeue API contract instead. *)
  let q = Squeue.create ~id:9 ~capacity:1 in
  let m =
    { Msg.kind = Msg.TIMER_TICK; tid = -1; tseq = 0; cpu = 0; posted_at = 0;
      visible_at = 0 }
  in
  check_bool "first fits" true (Squeue.produce q m);
  check_bool "second drops" false (Squeue.produce q m);
  check_int "dropped" 1 (Squeue.dropped q);
  ignore (Squeue.consume q ~now:1);
  check_bool "fits again" true (Squeue.produce q m);
  ignore k

let test_recall_empty_and_foreign_cpu () =
  let k, sys = setup 4 in
  let e1 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 0; 1 ]) () in
  check_bool "recall on empty slot" true (System.recall sys e1 ~cpu:0 = None);
  Alcotest.check_raises "recall outside the enclave"
    (Invalid_argument "recall: cpu not in enclave") (fun () ->
      ignore (System.recall sys e1 ~cpu:3));
  ignore k

let test_commit_into_foreign_enclave_cpu () =
  (* Committing a thread onto a CPU the enclave does not own fails ENOENT. *)
  let k, sys = setup 4 in
  let e1 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 0; 1 ]) () in
  let _e2 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 2; 3 ]) () in
  let t = Kernel.create_task k ~name:"t" (Task.compute_forever ~slice:(us 10)) in
  System.manage e1 t;
  Kernel.start k t;
  Kernel.run_until k (us 10);
  let txn = System.make_txn sys ~tid:t.Task.tid ~cpu:2 () in
  System.commit sys e1 ~agent_cpu:0 ~agent_sw:None ~atomic:false [ txn ];
  check_bool "enoent for foreign cpu" true
    (txn.Ghost.Txn.status = Ghost.Txn.Failed Ghost.Txn.Enoent)

let test_scheduling_hints () =
  (* The hint word round-trips app -> status word -> agent, and biases the
     Search policy's ordering: when a high-hint background thread and a
     zero-hint worker wake together with one worker CPU free, the worker is
     placed first. *)
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Search_policy.policy () in
  let _g = Agent.attach_global sys e pol in
  let mk name =
    let runs = ref [] in
    let cell = ref None in
    let t =
      Kernel.create_task k ~name (fun () ->
          let rec loop () =
            match !cell with
            | _ ->
              Task.Block
                {
                  after =
                    (fun () ->
                      runs := Kernel.now k :: !runs;
                      Task.Run { ns = us 50; after = loop });
                }
          in
          loop ())
    in
    cell := Some t;
    System.manage e t;
    Kernel.start k t;
    (t, runs)
  in
  let bg, bg_runs = mk "background" in
  let worker, worker_runs = mk "worker" in
  System.set_hint sys bg (ms 1000);
  check_int "hint readable" (ms 1000) (System.hint sys bg);
  check_int "worker hint unset" 0 (System.hint sys worker);
  (* Wake both at the same instant, every 500us. *)
  let rec waker n () =
    if n > 0 then begin
      Kernel.wake k bg;
      Kernel.wake k worker;
      ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(us 500) (waker (n - 1)))
    end
  in
  ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(us 100) (waker 20));
  Kernel.run_until k (ms 15);
  let pairs = min (List.length !bg_runs) (List.length !worker_runs) in
  check_bool "both ran every round" true (pairs >= 15);
  let worker_first =
    List.for_all2
      (fun w b -> w < b)
      (List.filteri (fun i _ -> i < pairs) (List.rev !worker_runs))
      (List.filteri (fun i _ -> i < pairs) (List.rev !bg_runs))
  in
  check_bool "zero-hint worker always placed before high-hint background" true
    worker_first

let test_enclave_requires_cpus () =
  let _, sys = setup 2 in
  Alcotest.check_raises "empty cpu set"
    (Invalid_argument "create_enclave: no cpus") (fun () ->
      ignore (System.create_enclave sys ~cpus:(Cpumask.create_empty ~ncpus:2) ()))

let () =
  Alcotest.run "edge-cases"
    [
      ( "kernel",
        [
          Alcotest.test_case "argument validation" `Quick test_kernel_arg_validation;
          Alcotest.test_case "kill in every state" `Quick test_kill_every_state;
          Alcotest.test_case "policy roundtrip" `Quick test_set_policy_roundtrip;
        ] );
      ( "ghost",
        [
          Alcotest.test_case "manage rejections" `Quick test_manage_rejections;
          Alcotest.test_case "unmanage" `Quick test_unmanage_returns_to_cfs;
          Alcotest.test_case "tick routing" `Quick test_tick_queue_routing;
          Alcotest.test_case "queue drops" `Quick test_queue_drop_counting;
          Alcotest.test_case "recall edges" `Quick test_recall_empty_and_foreign_cpu;
          Alcotest.test_case "foreign cpu commit" `Quick
            test_commit_into_foreign_enclave_cpu;
          Alcotest.test_case "scheduling hints" `Quick test_scheduling_hints;
          Alcotest.test_case "enclave needs cpus" `Quick test_enclave_requires_cpus;
        ] );
    ]
