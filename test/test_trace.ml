(* Tests for the kernel's scheduling-event wiring into the installed
   observability sink. *)

module Task = Kernel.Task

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "trace-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

(* Installs a fresh sink for [fn] and uninstalls it even when an assertion
   fails, so no sink leaks into the next test. *)
let with_sink fn =
  Obs.Metrics.reset ();
  let sink = Obs.Sink.create () in
  Obs.Sink.install sink;
  Fun.protect ~finally:Obs.Sink.uninstall (fun () -> fn sink)

(* The scheduling events the sink holds, oldest first, with their times. *)
let sched_events sink =
  List.filter_map
    (fun (e : Obs.Sink.ev) ->
      match e.kind with Obs.Sink.Sched s -> Some (e.time, s) | _ -> None)
    (Obs.Sink.events sink)

let test_kernel_emits_lifecycle () =
  with_sink (fun sink ->
      let k = Kernel.create (machine 2) in
      let task =
        Kernel.create_task k ~name:"traced" (fun () ->
            Task.Run
              {
                ns = us 100;
                after =
                  (fun () ->
                    Task.Block
                      {
                        after =
                          (fun () ->
                            Task.Run { ns = us 50; after = (fun () -> Task.Exit) });
                      });
              })
      in
      Kernel.start k task;
      Kernel.run_until k (ms 1);
      Kernel.wake k task;
      Kernel.run_until k (ms 2);
      let evs = List.map snd (sched_events sink) in
      let has pred = List.exists pred evs in
      let tid = task.Task.tid in
      check_bool "woken" true
        (has (function Obs.Sink.Wake w -> w.tid = tid | _ -> false));
      check_bool "dispatched" true
        (has (function
          | Obs.Sink.Dispatch d -> d.tid = tid && d.name = "traced"
          | _ -> false));
      check_bool "blocked" true
        (has (function Obs.Sink.Block b -> b.tid = tid | _ -> false));
      check_bool "exited" true
        (has (function Obs.Sink.Exit x -> x.tid = tid | _ -> false));
      check_bool "idle transitions" true
        (has (function Obs.Sink.Idle _ -> true | _ -> false)))

let test_kernel_emits_preemption () =
  with_sink (fun sink ->
      let k = Kernel.create (machine 1) in
      let hog = Kernel.create_task k ~name:"hog" (Task.compute_forever ~slice:(us 500)) in
      Kernel.start k hog;
      Kernel.run_until k (ms 1);
      let rt =
        Kernel.create_task k ~policy:Task.Rt ~name:"rt"
          (Task.compute_total ~slice:(us 50) ~total:(us 100) (fun () -> Task.Exit))
      in
      Kernel.start k rt;
      Kernel.run_until k (ms 2);
      check_bool "hog preemption traced" true
        (List.exists
           (function _, Obs.Sink.Preempt p -> p.tid = hog.Task.tid | _ -> false)
           (sched_events sink)))

let test_trace_event_order () =
  (* For a single task, its wakeup must precede its dispatch. *)
  with_sink (fun sink ->
      let k = Kernel.create (machine 1) in
      let task =
        Kernel.create_task k ~name:"x"
          (Task.compute_total ~slice:(us 100) ~total:(us 100) (fun () -> Task.Exit))
      in
      Kernel.start k task;
      Kernel.run_until k (ms 1);
      let evs = sched_events sink in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      check_bool "timestamps nondecreasing" true (nondecreasing (List.map fst evs));
      let idx pred =
        let rec go i = function
          | [] -> -1
          | (_, s) :: rest -> if pred s then i else go (i + 1) rest
        in
        go 0 evs
      in
      let woken = idx (function Obs.Sink.Wake _ -> true | _ -> false) in
      let dispatched = idx (function Obs.Sink.Dispatch _ -> true | _ -> false) in
      check_bool "woken before dispatch" true (woken >= 0 && dispatched > woken))

let test_sink_detach () =
  Obs.Metrics.reset ();
  let sink = Obs.Sink.create () in
  Obs.Sink.install sink;
  let k = Kernel.create (machine 1) in
  let t1 =
    Kernel.create_task k ~name:"a"
      (Task.compute_total ~slice:(us 50) ~total:(us 50) (fun () -> Task.Exit))
  in
  Kernel.start k t1;
  Fun.protect ~finally:Obs.Sink.uninstall (fun () -> Kernel.run_until k (ms 1));
  let n = Obs.Sink.recorded sink in
  check_bool "events recorded" true (n > 0);
  let t2 =
    Kernel.create_task k ~name:"b"
      (Task.compute_total ~slice:(us 50) ~total:(us 50) (fun () -> Task.Exit))
  in
  Kernel.start k t2;
  Kernel.run_until k (ms 2);
  check_int "no events after uninstall" n (Obs.Sink.recorded sink)

let () =
  Alcotest.run "trace"
    [
      ( "kernel-wiring",
        [
          Alcotest.test_case "lifecycle events" `Quick test_kernel_emits_lifecycle;
          Alcotest.test_case "preemption" `Quick test_kernel_emits_preemption;
          Alcotest.test_case "ordering" `Quick test_trace_event_order;
          Alcotest.test_case "detach" `Quick test_sink_detach;
        ] );
    ]
