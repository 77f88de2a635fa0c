(* Lifecycle scenarios not covered elsewhere: upgrades under the local agent
   model, the watchdog staying quiet on healthy enclaves, yield rotation,
   and degenerate enclave shapes. *)

module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module System = Ghost.System
module Agent = Ghost.Agent

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "lifecycle-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

let setup ncores =
  let k = Kernel.create (machine ncores) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  (k, sys, e)

let spawn_ghost k e ~name behavior =
  let t = Kernel.create_task k ~name behavior in
  System.manage e t;
  Kernel.start k t;
  t

let test_local_agent_upgrade () =
  (* In-place upgrade under the per-CPU model: stop the local group, attach
     a replacement within the grace period, scheduling resumes. *)
  let k, sys, e = setup 2 in
  let _, pol1 = Policies.Fifo_percpu.policy () in
  let g1 = Agent.attach_local sys e pol1 in
  let t =
    spawn_ghost k e ~name:"svc" (Task.compute_forever ~slice:(us 100))
  in
  Kernel.run_until k (ms 3);
  let before = t.Task.sum_exec in
  check_bool "running under v1" true (before > 0);
  Agent.stop g1;
  Kernel.run_for k (us 50);
  let st2, pol2 = Policies.Fifo_percpu.policy () in
  let g2 = Agent.attach_local sys e pol2 in
  Kernel.run_until k (ms 10);
  check_bool "enclave survived" true (System.enclave_alive e);
  check_bool "progress resumed under v2" true (t.Task.sum_exec > before);
  check_bool "v2 scheduled it" true (Policies.Fifo_percpu.scheduled st2 > 0);
  check_bool "still ghost" true (t.Task.policy = Task.Ghost);
  ignore g2

let test_watchdog_quiet_when_healthy () =
  (* A healthy agent + watchdog: the enclave must NOT be destroyed even
     over many timeout periods. *)
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~watchdog_timeout:(ms 5) ~cpus:(Kernel.full_mask k) ()
  in
  let _, pol = Policies.Fifo_centralized.policy ~timeslice:(us 200) () in
  let _g = Agent.attach_global sys e pol in
  let a = spawn_ghost k e ~name:"a" (Task.compute_forever ~slice:(us 100)) in
  let b = spawn_ghost k e ~name:"b" (Task.compute_forever ~slice:(us 100)) in
  Kernel.run_until k (ms 100);
  check_bool "enclave alive after 20 timeout periods" true (System.enclave_alive e);
  check_int "no watchdog fires" 0 (System.stats sys).System.watchdog_fires;
  (* Both threads share the single worker cpu via the timeslice; neither
     starves past the timeout. *)
  check_bool "both progressed" true (a.Task.sum_exec > ms 20 && b.Task.sum_exec > ms 20)

let test_yield_rotates_cfs () =
  (* Cooperative CFS threads that yield after every slice rotate fairly. *)
  let k = Kernel.create (machine 1) in
  let mk name =
    let t =
      Kernel.create_task k ~name (fun () ->
          let rec loop () =
            Task.Run { ns = us 100; after = (fun () -> Task.Yield { after = loop }) }
          in
          loop ())
    in
    Kernel.start k t;
    t
  in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  Kernel.run_until k (ms 30);
  let total = a.Task.sum_exec + b.Task.sum_exec + c.Task.sum_exec in
  List.iter
    (fun (t : Task.t) ->
      let share = float_of_int t.Task.sum_exec /. float_of_int total in
      check_bool
        (Printf.sprintf "%s got ~1/3 (%.2f)" t.Task.name share)
        true
        (share > 0.25 && share < 0.42))
    [ a; b; c ]

let test_single_cpu_enclave_starves_without_handoff_target () =
  (* Degenerate: a 1-CPU enclave with a spinning global agent leaves no CPU
     for managed threads; the watchdog correctly reclaims them to CFS. *)
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~watchdog_timeout:(ms 5)
      ~cpus:(Cpumask.of_list ~ncpus:2 [ 1 ])
      ()
  in
  let _, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e pol in
  let t = spawn_ghost k e ~name:"starved" (Task.compute_forever ~slice:(us 100)) in
  Kernel.run_until k (ms 60);
  check_bool "watchdog reclaimed the degenerate enclave" false
    (System.enclave_alive e);
  check_bool "thread rescued to CFS and running" true
    (t.Task.policy = Task.Cfs && t.Task.sum_exec > 0)

let test_pause_shorter_than_watchdog_survives () =
  (* A stall shorter than the watchdog timeout (lib/faults' Stall injection
     point): the enclave must survive and scheduling must resume. *)
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~watchdog_timeout:(ms 10) ~cpus:(Kernel.full_mask k) ()
  in
  let _, pol = Policies.Fifo_centralized.policy ~timeslice:(us 100) () in
  let g = Agent.attach_global sys e pol in
  let a = spawn_ghost k e ~name:"a" (Task.compute_forever ~slice:(us 100)) in
  let b = spawn_ghost k e ~name:"b" (Task.compute_forever ~slice:(us 100)) in
  Kernel.run_until k (ms 5);
  Agent.set_paused g true;
  let exec_at_pause = a.Task.sum_exec + b.Task.sum_exec in
  Kernel.run_for k (ms 4);
  Agent.set_paused g false;
  Kernel.run_for k (ms 10);
  check_bool "enclave survived a sub-timeout pause" true (System.enclave_alive e);
  check_int "no watchdog fire" 0 (System.stats sys).System.watchdog_fires;
  check_bool "scheduling resumed for both" true
    (a.Task.sum_exec + b.Task.sum_exec > exec_at_pause + ms 2
    && a.Task.policy = Task.Ghost && b.Task.policy = Task.Ghost)

let test_enclave_recreate_after_watchdog () =
  (* After a watchdog kill, the same CPUs can host a fresh enclave with a
     working policy. *)
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e1 =
    System.create_enclave sys ~watchdog_timeout:(ms 5) ~cpus:(Kernel.full_mask k) ()
  in
  let t = spawn_ghost k e1 ~name:"w" (Task.compute_forever ~slice:(us 100)) in
  Kernel.run_until k (ms 40);
  check_bool "first enclave dead" false (System.enclave_alive e1);
  let e2 = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e2 pol in
  System.manage e2 t;
  Kernel.run_until k (ms 60);
  check_bool "second enclave schedules the same thread" true
    (t.Task.policy = Task.Ghost && System.enclave_alive e2)

let test_crash_then_new_enclave_cycle () =
  (* Crash -> fallback -> fresh enclave -> re-manage, twice in a row: the
     full operational loop of 3.4. *)
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let t = ref None in
  let cycle i =
    let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
    let _, pol = Policies.Fifo_centralized.policy () in
    let g = Agent.attach_global sys e pol in
    (match !t with
    | None -> t := Some (spawn_ghost k e ~name:"survivor" (Task.compute_forever ~slice:(us 100)))
    | Some task -> System.manage e task);
    Kernel.run_for k (ms 5);
    let task = Option.get !t in
    check_bool (Printf.sprintf "cycle %d: scheduled" i) true (Task.is_runnable task);
    Agent.crash g;
    Kernel.run_for k (ms 5);
    check_bool (Printf.sprintf "cycle %d: fell back" i) true
      (task.Task.policy = Task.Cfs)
  in
  cycle 1;
  cycle 2;
  let task = Option.get !t in
  check_bool "thread alive through two crashes" true (Task.is_runnable task)

let () =
  Alcotest.run "lifecycle"
    [
      ( "upgrades",
        [
          Alcotest.test_case "local agent upgrade" `Quick test_local_agent_upgrade;
          Alcotest.test_case "crash cycle x2" `Quick test_crash_then_new_enclave_cycle;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "quiet when healthy" `Quick
            test_watchdog_quiet_when_healthy;
          Alcotest.test_case "degenerate 1-cpu enclave" `Quick
            test_single_cpu_enclave_starves_without_handoff_target;
          Alcotest.test_case "sub-timeout pause survives" `Quick
            test_pause_shorter_than_watchdog_survives;
          Alcotest.test_case "recreate after fire" `Quick
            test_enclave_recreate_after_watchdog;
        ] );
      ("cfs", [ Alcotest.test_case "yield rotation" `Quick test_yield_rotates_cfs ]);
    ]
