(* Heterogeneous-topology (P/E hybrid) tests: core-class plumbing from
   Hw.Topology through Kernel execution scaling and the v3 ABI, the EDF
   runqueue ordering model, and the hybrid frame experiment's liveness
   (batch is not starved under frame load). *)

module Topology = Hw.Topology
module Costs = Hw.Costs
module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Abi = Ghost.Abi

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Sim.Units.us
let ms = Sim.Units.ms
let qtest = QCheck.Test.make

(* --- Topology classes --------------------------------------------------------- *)

let test_preset_classes () =
  let h = Hw.Machines.hybrid_1s.Hw.Machines.topo in
  check_int "hybrid classes" 2 (Topology.num_classes h);
  check_bool "hybrid not uniform" false (Topology.uniform h);
  List.iter
    (fun c ->
      check_int
        (Printf.sprintf "cpu %d class" c)
        (if c < 4 then Topology.perf_class else Topology.efficient_class)
        (Topology.class_of h c))
    (Topology.cpus h);
  List.iter
    (fun (m : Hw.Machines.t) ->
      let t = m.Hw.Machines.topo in
      check_bool (m.Hw.Machines.name ^ " uniform") true (Topology.uniform t);
      check_int (m.Hw.Machines.name ^ " classes") 1 (Topology.num_classes t);
      List.iter
        (fun c -> check_int "class 0" 0 (Topology.class_of t c))
        (Topology.cpus t))
    [ Hw.Machines.skylake_2s; Hw.Machines.haswell_2s; Hw.Machines.xeon_e5_1s;
      Hw.Machines.rome_2s ]

let test_with_classes_validation () =
  let t = Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:4 ~smt:2 in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Topology.with_classes: 3 class entries for 4 cores")
    (fun () -> ignore (Topology.with_classes t [| 0; 1; 0 |]));
  check_bool "negative class rejected" true
    (try
       ignore (Topology.with_classes t [| 0; 1; 0; -1 |]);
       false
     with Invalid_argument _ -> true)

let test_with_classes_zero_identity () =
  (* All-zero classes must produce a topology structurally identical to
     the legacy constructor's — the root of the uniform-machine
     byte-identity guarantee. *)
  let t = Topology.create ~sockets:2 ~ccx_per_socket:4 ~cores_per_ccx:4 ~smt:2 in
  let z = Topology.with_classes t (Array.make (Topology.num_cores t) 0) in
  check_bool "with_classes zeros = create" true
    (Marshal.to_string z [] = Marshal.to_string t [])

let test_costs_accessors () =
  let c = Hw.Machines.hybrid_1s.Hw.Machines.costs in
  Alcotest.(check (float 0.0)) "P speed" 1.0 (Costs.class_speed_of c 0);
  Alcotest.(check (float 0.0)) "E speed" 0.5 (Costs.class_speed_of c 1);
  Alcotest.(check (float 0.0)) "E switch scale" 0.9
    (Costs.class_switch_scale_of c 1);
  Alcotest.(check (float 0.0)) "out of range speed is 1.0" 1.0
    (Costs.class_speed_of c 7);
  Alcotest.(check (float 0.0)) "out of range scale is 1.0" 1.0
    (Costs.class_switch_scale_of c 7);
  check_int "migration surcharge" 180 c.Costs.migration_class_extra;
  Alcotest.(check (float 0.0)) "uniform preset speed" 1.0
    (Costs.class_speed_of Costs.skylake 0)

(* --- Kernel execution scaling ------------------------------------------------- *)

let test_kernel_scaler () =
  let k = Kernel.create Hw.Machines.hybrid_1s in
  Alcotest.(check (float 0.0)) "P cpu speed" 1.0 (Kernel.exec_speed k 0);
  Alcotest.(check (float 0.0)) "E cpu speed" 0.5 (Kernel.exec_speed k 4);
  check_int "P wall identity" 1_000 (Kernel.wall_of_work k ~cpu:0 1_000);
  check_int "E wall doubles" 2_000 (Kernel.wall_of_work k ~cpu:4 1_000);
  check_int "E wall rounds up" 2_001 (Kernel.wall_of_work k ~cpu:4 1_001 - 1);
  check_int "P work identity" 1_000 (Kernel.work_of_wall k ~cpu:0 1_000);
  check_int "E work halves" 500 (Kernel.work_of_wall k ~cpu:4 1_000);
  (* Round trip: work -> wall -> work never loses work on any CPU. *)
  List.iter
    (fun cpu ->
      List.iter
        (fun w ->
          check_bool "roundtrip covers the work" true
            (Kernel.work_of_wall k ~cpu (Kernel.wall_of_work k ~cpu w) >= w))
        [ 1; 2; 999; 1_000; 1_001; 123_457 ])
    [ 0; 3; 4; 7 ]

let test_e_core_runs_half_speed () =
  (* The same 1 ms CFS compute segment takes ~2x wall time pinned on an E
     core vs a P core. *)
  let finish_time cpu =
    let k = Kernel.create Hw.Machines.hybrid_1s in
    let tdone = ref 0 in
    let t =
      Kernel.create_task k
        ~affinity:(Kernel.Cpumask.of_list ~ncpus:8 [ cpu ])
        ~name:"seg"
        (fun () ->
          Task.Run
            { ns = ms 1;
              after = (fun () -> tdone := Kernel.now k; Task.Exit) })
    in
    Kernel.start k t;
    Kernel.run_until k (ms 10);
    !tdone
  in
  let p = finish_time 0 and e = finish_time 4 in
  check_bool "P core finished" true (p > 0);
  check_bool "E core finished" true (e > 0);
  check_bool "E core takes >= 2x the work" true (e >= ms 2);
  check_bool "P core takes < 2x" true (p < ms 2)

(* --- ABI v3 core-class visibility ---------------------------------------------- *)

let probe_setup machine schedule =
  let k = Kernel.create machine in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let pol = Agent.make_policy ~name:"probe" ~schedule () in
  let g = Agent.attach_global sys e pol in
  (k, sys, e, g)

let test_abi_core_class () =
  check_int "abi version is 3" 3 Abi.version;
  let seen = ref [] in
  let k, _sys, _e, _g =
    probe_setup Hw.Machines.hybrid_1s (fun ctx _msgs ->
        if !seen = [] then
          seen := List.map (Abi.core_class ctx) (Abi.enclave_cpu_list ctx))
  in
  Kernel.run_until k (ms 1);
  (* CPU 1 hosts no classes query: the global agent spins on cpu 0, which
     is still in the enclave list it reports. *)
  check_bool "probe ran" true (!seen <> []);
  Alcotest.(check (list int)) "P/E classes via ABI"
    [ 0; 0; 0; 0; 1; 1; 1; 1 ]
    (List.sort compare !seen);
  let seen_u = ref [] in
  let ku, _, _, _ =
    probe_setup Hw.Machines.xeon_e5_1s (fun ctx _msgs ->
        if !seen_u = [] then
          seen_u := List.map (Abi.core_class ctx) (Abi.enclave_cpu_list ctx))
  in
  Kernel.run_until ku (ms 1);
  check_bool "uniform machine all class 0" true
    (!seen_u <> [] && List.for_all (fun c -> c = 0) !seen_u)

(* --- EDF runqueue model -------------------------------------------------------- *)

let test_edf_no_inversion =
  (* Push tasks with arbitrary deadlines in arbitrary order; pops must
     come out in nondecreasing deadline order (no deadline inversion). *)
  qtest ~name:"edf rq pops in nondecreasing deadline order" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 24) (int_bound 1_000_000))
    (fun deadlines ->
      let n = List.length deadlines in
      let k = Kernel.create Hw.Machines.hybrid_1s in
      let sys = System.install k in
      let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
      let dl = Hashtbl.create 16 in
      let popped = ref [] in
      let ran = ref false in
      let pol =
        Agent.make_policy ~name:"edf-model"
          ~schedule:(fun ctx _msgs ->
            if not !ran then begin
              let rq =
                Policies.Dsl.Rq.edf (fun _ctx (t : Task.t) ->
                    Hashtbl.find dl t.Task.tid)
              in
              let known =
                List.filter
                  (fun (t : Task.t) -> Hashtbl.mem dl t.Task.tid)
                  (Abi.managed_threads ctx)
              in
              if List.length known = n then begin
                ran := true;
                List.iter
                  (fun (t : Task.t) -> Policies.Dsl.Rq.push rq ctx t.Task.tid)
                  known;
                let rec drain () =
                  match Policies.Dsl.Rq.pop rq ctx with
                  | Some t ->
                    popped := Hashtbl.find dl t.Task.tid :: !popped;
                    drain ()
                  | None -> ()
                in
                drain ()
              end
            end)
          ()
      in
      let _g = Agent.attach_global sys e pol in
      List.iteri
        (fun i d ->
          let t =
            Kernel.create_task k
              ~name:(Printf.sprintf "edf%d" i)
              (Task.compute_forever ~slice:(us 100))
          in
          Hashtbl.replace dl t.Task.tid d;
          System.manage e t;
          Kernel.start k t)
        deadlines;
      Kernel.run_until k (ms 2);
      let order = List.rev !popped in
      !ran
      && List.length order = n
      && order = List.sort compare deadlines)

let () =
  Alcotest.run "hybrid"
    [
      ( "topology-classes",
        [
          Alcotest.test_case "preset classes" `Quick test_preset_classes;
          Alcotest.test_case "with_classes validation" `Quick
            test_with_classes_validation;
          Alcotest.test_case "with_classes zeros = create" `Quick
            test_with_classes_zero_identity;
          Alcotest.test_case "costs accessors" `Quick test_costs_accessors;
        ] );
      ( "kernel-scaling",
        [
          Alcotest.test_case "wall/work conversions" `Quick test_kernel_scaler;
          Alcotest.test_case "E core half speed end-to-end" `Quick
            test_e_core_runs_half_speed;
        ] );
      ( "abi-v3",
        [ Alcotest.test_case "core_class via ABI" `Quick test_abi_core_class ] );
      ( "edf-model",
        [ QCheck_alcotest.to_alcotest test_edf_no_inversion ] );
    ]
