(* Tests for the workload generators: pool, open-loop, batch, snapnet,
   search, vm, recorder. *)

module Task = Kernel.Task

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ?(smt = 1) ncores =
  {
    Hw.Machines.name = "wl-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt;
    costs = Hw.Costs.skylake;
  }

let spawn_cfs k ~prefix ~idx behavior =
  let t = Kernel.create_task k ~name:(Printf.sprintf "%s%d" prefix idx) behavior in
  Kernel.start k t;
  t

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_basic () =
  let k = Kernel.create (machine 2) in
  let done_jobs = ref [] in
  let pool =
    Workloads.Pool.create k ~n:2
      ~spawn:(fun ~idx b -> spawn_cfs k ~prefix:"w" ~idx b)
      ~work:(fun job _ -> [ Workloads.Pool.Compute (us job) ])
      ~on_done:(fun job -> done_jobs := job :: !done_jobs)
      ()
  in
  check_int "size" 2 (Workloads.Pool.size pool);
  check_int "idle at start" 2 (Workloads.Pool.idle_workers pool);
  List.iter (Workloads.Pool.submit pool) [ 10; 20; 30; 40 ];
  check_bool "backlog formed" true (Workloads.Pool.backlog pool >= 2);
  Kernel.run_until k (ms 2);
  check_int "all jobs done" 4 (List.length !done_jobs);
  check_int "idle at end" 2 (Workloads.Pool.idle_workers pool)

let test_pool_io_step () =
  let k = Kernel.create (machine 1) in
  let finished_at = ref (-1) in
  let pool =
    Workloads.Pool.create k ~n:1
      ~spawn:(fun ~idx b -> spawn_cfs k ~prefix:"w" ~idx b)
      ~work:(fun () _ ->
        [ Workloads.Pool.Compute (us 100); Workloads.Pool.Io (ms 2);
          Workloads.Pool.Compute (us 100) ])
      ~on_done:(fun () -> finished_at := Kernel.now k)
      ()
  in
  Workloads.Pool.submit pool ();
  Kernel.run_until k (ms 5);
  check_bool "io wait included" true (!finished_at >= ms 2 + us 200);
  (* During the Io the CPU must be free for others. *)
  let worker = Workloads.Pool.task_of pool 0 in
  check_bool "worker off-cpu during io" true (worker.Task.sum_exec < us 250)

let test_pool_polling_keeps_cpu () =
  let k = Kernel.create (machine 1) in
  let pool =
    Workloads.Pool.create k ~poll_ns:(us 100) ~poll_chunk:(us 10) ~n:1
      ~spawn:(fun ~idx b -> spawn_cfs k ~prefix:"w" ~idx b)
      ~work:(fun () _ -> [ Workloads.Pool.Compute (us 10) ])
      ~on_done:ignore ()
  in
  Workloads.Pool.submit pool ();
  Kernel.run_until k (us 50);
  (* Job (10us) done, but the worker is still polling, not parked. *)
  let worker = Workloads.Pool.task_of pool 0 in
  check_bool "worker polling (running)" true (worker.Task.state = Task.Running);
  Kernel.run_until k (ms 1);
  check_bool "worker parked after poll budget" true (worker.Task.state = Task.Blocked)

(* --- Openloop -------------------------------------------------------------- *)

let test_openloop_rate_and_latency () =
  let k = Kernel.create (machine 4) in
  let ol =
    Workloads.Openloop.create k ~seed:3 ~rate:50_000.0
      ~service:(Sim.Dist.Const 5_000.0) ~nworkers:32
      ~spawn:(fun ~idx b -> spawn_cfs k ~prefix:"w" ~idx b)
  in
  Workloads.Openloop.start ol ~until:(ms 200);
  Kernel.run_until k (ms 210);
  let n = Workloads.Recorder.completed (Workloads.Openloop.recorder ol) in
  (* 50k/s for 200ms = ~10000 requests. *)
  check_bool (Printf.sprintf "offered ~10000 (%d)" n) true (n > 9300 && n < 10700);
  let p50 = Workloads.Recorder.p (Workloads.Openloop.recorder ol) 50.0 in
  (* Idle machine: latency ~ service + wake path. *)
  check_bool
    (Printf.sprintf "p50 close to service time (%d)" p50)
    true
    (p50 >= 5_000 && p50 < 15_000)

let test_openloop_warmup_filter () =
  let k = Kernel.create (machine 2) in
  let ol =
    Workloads.Openloop.create k ~seed:3 ~rate:10_000.0
      ~service:(Sim.Dist.Const 2_000.0) ~nworkers:8
      ~spawn:(fun ~idx b -> spawn_cfs k ~prefix:"w" ~idx b)
  in
  Workloads.Openloop.set_record_after ol (ms 50);
  Workloads.Openloop.start ol ~until:(ms 100);
  Kernel.run_until k (ms 110);
  let recorded = Workloads.Recorder.completed (Workloads.Openloop.recorder ol) in
  let offered = Workloads.Openloop.offered ol in
  check_bool "warmup excluded" true (recorded < offered && recorded > offered / 3)

(* A rate the arrival clock cannot step by (no gap, or an infinite one) is
   refused when the generator is built, not by a run that never ends. *)
let test_openloop_rejects_bad_rates () =
  let k = Kernel.create (machine 2) in
  let create rate =
    Workloads.Openloop.create k ~seed:3 ~rate ~service:(Sim.Dist.Const 2_000.0)
      ~nworkers:1 ~spawn:(fun ~idx b -> spawn_cfs k ~prefix:"w" ~idx b)
  in
  let ol = create 10_000.0 in
  let bad fn = Invalid_argument (fn ^ ": rate must be finite and positive") in
  List.iter
    (fun rate ->
      Alcotest.check_raises (Printf.sprintf "create %g" rate)
        (bad "Openloop.create") (fun () -> ignore (create rate));
      Alcotest.check_raises (Printf.sprintf "set_rate %g" rate)
        (bad "Openloop.set_rate") (fun () -> Workloads.Openloop.set_rate ol rate))
    [ Float.nan; Float.infinity; 0.0; -5.0 ]

(* --- Batch ------------------------------------------------------------------ *)

let test_batch_share () =
  let k = Kernel.create (machine 2) in
  let b =
    Workloads.Batch.create k ~n:2 ~spawn:(fun ~idx bh -> spawn_cfs k ~prefix:"b" ~idx bh) ()
  in
  Kernel.run_until k (ms 10);
  Workloads.Batch.mark b;
  Kernel.run_until k (ms 30);
  let share = Workloads.Batch.share b ~since:(ms 10) ~now:(ms 30) ~cpus:2 in
  check_bool (Printf.sprintf "batch owns the machine (%.2f)" share) true (share > 0.95)

(* --- Snapnet ---------------------------------------------------------------- *)

let test_snapnet_pipeline () =
  let k = Kernel.create (machine 8) in
  let net =
    Workloads.Snapnet.create k ~seed:4 ~rate_per_flow:2_000.0 ~wire:(us 5)
      ~nworkers:4 ~nservers:2
      ~spawn_worker:(fun ~idx b -> spawn_cfs k ~prefix:"snapw" ~idx b)
      ()
  in
  Workloads.Snapnet.start net ~until:(ms 100);
  Kernel.run_until k (ms 120);
  let small = Workloads.Snapnet.rtt_small net in
  let large = Workloads.Snapnet.rtt_large net in
  check_bool "small msgs measured" true (Workloads.Recorder.completed small > 100);
  check_bool "large msgs measured" true (Workloads.Recorder.completed large > 500);
  (* RTT >= 2*wire + processing stages. *)
  check_bool "small rtt floor" true
    (Workloads.Recorder.p small 0.1 >= (2 * us 5) + 5_000);
  check_bool "large rtt exceeds small (copy cost)" true
    (Workloads.Recorder.p large 50.0 > Workloads.Recorder.p small 50.0)

(* --- Search ------------------------------------------------------------------ *)

let test_search_fanout_accounting () =
  let k = Kernel.create (machine ~smt:2 8) in
  let wl =
    Workloads.Search.create k ~seed:6 ~rate_a:500.0 ~rate_b:300.0 ~rate_c:200.0
      ~spawn:(fun _q ~socket:_ ~idx b -> spawn_cfs k ~prefix:"sw" ~idx b)
      ()
  in
  Workloads.Search.start wl ~until:(ms 300);
  Kernel.run_until k (ms 500);
  let done_a = Workloads.Search.completed wl Workloads.Search.A in
  let done_b = Workloads.Search.completed wl Workloads.Search.B in
  let done_c = Workloads.Search.completed wl Workloads.Search.C in
  check_bool "A queries completed" true (done_a > 50);
  check_bool "B queries completed" true (done_b > 30);
  check_bool "C queries completed" true (done_c > 20);
  (* B has an I/O phase: its p50 must exceed 1ms (the min SSD wait). *)
  let b50 = Workloads.Recorder.p (Workloads.Search.recorder wl Workloads.Search.B) 50.0 in
  check_bool "B latency dominated by io" true (b50 > ms 1)

(* --- Vm ----------------------------------------------------------------------- *)

let test_vm_completes_and_measures () =
  let k = Kernel.create (machine 4) in
  let wl =
    Workloads.Vm.create k ~nvms:2 ~vcpus:2 ~work:(ms 5) ~stagger:(us 100)
      ~spawn:(fun ~vm ~vcpu ~cookie b ->
        let t =
          Kernel.create_task k ~cookie
            ~name:(Printf.sprintf "vm%d-%d" vm vcpu)
            b
        in
        Kernel.start k t;
        t)
      ()
  in
  Kernel.run_until k (ms 50);
  check_bool "all done" true (Workloads.Vm.all_done wl);
  (match Workloads.Vm.makespan wl with
  | Some span -> check_bool "makespan ~work" true (span >= ms 5 && span < ms 10)
  | None -> Alcotest.fail "no makespan");
  match Workloads.Vm.rate wl with
  | Some r -> check_bool "rate positive" true (r > 0.0)
  | None -> Alcotest.fail "no rate"

let test_vm_smt_slowdown () =
  (* Same work on 1 SMT core (forced sharing) vs 2 separate cores. *)
  let run ncores =
    let m = machine ~smt:2 ncores in
    let k = Kernel.create m in
    let wl =
      Workloads.Vm.create k ~nvms:1 ~vcpus:2 ~work:(ms 10) ~stagger:0
        ~spawn:(fun ~vm ~vcpu ~cookie b ->
          let t =
            Kernel.create_task k ~cookie
              ~name:(Printf.sprintf "vm%d-%d" vm vcpu)
              b
          in
          Kernel.start k t;
          t)
        ()
    in
    Kernel.run_until k (ms 100);
    match Workloads.Vm.makespan wl with Some s -> s | None -> max_int
  in
  let shared = run 1 and solo = run 2 in
  (* smt_factor = 0.8: full sharing costs 1/0.8 = 1.25x. *)
  check_bool
    (Printf.sprintf "SMT sharing slower (%d vs %d)" shared solo)
    true
    (float_of_int shared > 1.15 *. float_of_int solo)

(* --- Recorder ------------------------------------------------------------------ *)

let test_recorder_throughput () =
  let r = Workloads.Recorder.create () in
  for _ = 1 to 500 do
    Workloads.Recorder.record_value r 1000
  done;
  Alcotest.(check (float 0.01))
    "throughput" 500.0
    (Workloads.Recorder.throughput r ~duration:(Sim.Units.sec 1));
  check_int "p100" 1000 (Workloads.Recorder.p r 100.0);
  Workloads.Recorder.reset r;
  check_int "reset" 0 (Workloads.Recorder.completed r)

let () =
  Alcotest.run "workloads"
    [
      ( "pool",
        [
          Alcotest.test_case "basic" `Quick test_pool_basic;
          Alcotest.test_case "io step" `Quick test_pool_io_step;
          Alcotest.test_case "polling" `Quick test_pool_polling_keeps_cpu;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "rate and latency" `Quick test_openloop_rate_and_latency;
          Alcotest.test_case "warmup filter" `Quick test_openloop_warmup_filter;
          Alcotest.test_case "rejects bad rates" `Quick
            test_openloop_rejects_bad_rates;
        ] );
      ("batch", [ Alcotest.test_case "share" `Quick test_batch_share ]);
      ("snapnet", [ Alcotest.test_case "pipeline" `Quick test_snapnet_pipeline ]);
      ("search", [ Alcotest.test_case "fanout accounting" `Quick test_search_fanout_accounting ]);
      ( "vm",
        [
          Alcotest.test_case "completes" `Quick test_vm_completes_and_measures;
          Alcotest.test_case "smt slowdown" `Quick test_vm_smt_slowdown;
        ] );
      ("recorder", [ Alcotest.test_case "throughput" `Quick test_recorder_throughput ]);
    ]
