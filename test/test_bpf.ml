(* Tests for the BPF fastpath tier (§3.5): the verifier's accept/reject
   table, VM execution and budget, shared-map plumbing, scheduling
   properties with a fastpath installed, bit-identity when no program is
   installed, and agent-crash grace-window service. *)

module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module P = Bpf.Prog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "bpf-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

let setup ncores =
  let k = Kernel.create (machine ncores) in
  let sys = System.install k in
  (k, sys)

(* --- Verifier: accept/reject table ---------------------------------------- *)

let mk ?(hook = P.Pick) ?(maps = []) insns =
  { P.name = "t"; hook; insns = Array.of_list insns; maps }

let accepts name p =
  match Bpf.Verifier.verify p with
  | Ok v ->
    check_bool (name ^ ": budget bounded by insn count") true
      (Bpf.Verifier.max_steps v <= Array.length p.P.insns)
  | Error e -> Alcotest.failf "%s unexpectedly rejected: %s" name e

let rejects name p =
  match Bpf.Verifier.verify p with
  | Ok _ -> Alcotest.failf "%s unexpectedly accepted" name
  | Error _ -> ()

let test_verifier_accepts_kit () =
  accepts "ring_pick" (Bpf.Kit.ring_pick ~cap:64);
  accepts "wakeup_first_idle" Bpf.Kit.wakeup_first_idle;
  accepts "wakeup_place" (Bpf.Kit.wakeup_place ~cls_mask:1023);
  accepts "tick_requeue" (Bpf.Kit.tick_requeue ~cap:64);
  (* A masked register is a provable map index. *)
  accepts "masked index"
    (mk
       ~maps:[ { P.mid = 0; size = 4 } ]
       [ P.Alui (P.And, 1, 3); P.Ldmap (0, 0, 1); P.Exit ])

let test_verifier_rejects () =
  rejects "empty program" (mk []);
  rejects "last insn not Exit" (mk [ P.Ldi (0, 1) ]);
  rejects "backward jump" (mk [ P.Ldi (0, 1); P.Jmp (-2); P.Exit ]);
  rejects "jump past the end" (mk [ P.Jmp 5; P.Exit ]);
  rejects "conditional jump past the end"
    (mk [ P.Jcci (P.Eq, 1, 0, 7); P.Exit ]);
  rejects "bad register" (mk [ P.Ldi (9, 0); P.Exit ]);
  rejects "register-operand shift"
    (mk [ P.Ldi (0, 1); P.Alu (P.Lsl, 0, 1); P.Exit ]);
  rejects "shift immediate out of range"
    (mk [ P.Ldi (0, 1); P.Alui (P.Lsl, 0, 63); P.Exit ]);
  rejects "undeclared map" (mk [ P.Ldi (1, 0); P.Ldmap (0, 0, 1); P.Exit ]);
  rejects "duplicate map declaration"
    (mk
       ~maps:[ { P.mid = 0; size = 4 }; { P.mid = 0; size = 4 } ]
       [ P.Ldi (0, 0); P.Exit ]);
  rejects "oversized map"
    (mk
       ~maps:[ { P.mid = 0; size = Bpf.Verifier.max_map_size + 1 } ]
       [ P.Ldi (0, 0); P.Exit ]);
  rejects "unprovable map index"
    (mk ~maps:[ { P.mid = 0; size = 4 } ] [ P.Ldmap (0, 0, 1); P.Exit ]);
  rejects "too many instructions"
    (mk
       (List.init (Bpf.Verifier.max_insns + 1) (fun _ -> P.Ldi (0, 0))
       @ [ P.Exit ]))

(* --- VM execution ----------------------------------------------------------- *)

let null_snap =
  {
    Bpf.Snapshot.ncpus = (fun () -> 1);
    cpu_at = (fun _ -> 0);
    idle = (fun _ -> 1);
    latched = (fun _ -> -1);
    curr = (fun _ -> -1);
    curr_ghost = (fun _ -> 0);
    since_dispatch = (fun _ -> 0);
    runnable = (fun _ -> 1);
    thread_seq = (fun _ -> 0);
    first_idle = (fun () -> 0);
    socket = (fun _ -> 0);
    core_class = (fun _ -> 0);
  }

let run_ok p ~maps ~r1 ~r2 =
  match Bpf.Verifier.verify p with
  | Error e -> Alcotest.failf "verify failed: %s" e
  | Ok v -> Bpf.Vm.run (Bpf.Vm.create ()) v ~snap:null_snap ~maps ~r1 ~r2

let test_vm_basics () =
  check_int "constant result" 7 (run_ok (mk [ P.Ldi (0, 7); P.Exit ]) ~maps:[||] ~r1:0 ~r2:0);
  check_int "r1 passthrough" 42
    (run_ok (mk [ P.Mov (0, 1); P.Exit ]) ~maps:[||] ~r1:42 ~r2:0);
  check_int "arithmetic" 12
    (run_ok
       (mk [ P.Mov (0, 1); P.Alu (P.Add, 0, 2); P.Alui (P.Mul, 0, 2); P.Exit ])
       ~maps:[||] ~r1:4 ~r2:2);
  check_int "taken branch skips" 1
    (run_ok
       (mk [ P.Ldi (0, 1); P.Jcci (P.Eq, 1, 5, 1); P.Ldi (0, 2); P.Exit ])
       ~maps:[||] ~r1:5 ~r2:0);
  (* Map store then load through a masked index. *)
  let maps = [| Array.make 8 0 |] in
  let r =
    run_ok
      (mk
         ~maps:[ { P.mid = 0; size = 8 } ]
         [
           P.Alui (P.And, 1, 7);
           P.Ldi (2, 99);
           P.Stmap (0, 1, 2);
           P.Ldmap (0, 0, 1);
           P.Exit;
         ])
      ~maps ~r1:13 ~r2:0
  in
  check_int "store/load roundtrip" 99 r;
  check_int "store landed at masked slot" 99 maps.(0).(13 land 7)

(* --- System map plumbing ---------------------------------------------------- *)

let test_map_plumbing () =
  let _k, sys = setup 2 in
  let k2 = _k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k2) () in
  (match System.bpf_install sys e (Bpf.Kit.ring_pick ~cap:8) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_bool "update ok" true
    (System.bpf_map_update e ~map:Bpf.Kit.ring_data ~idx:3 77 = Ok ());
  check_bool "get roundtrip" true
    (System.bpf_map_get e ~map:Bpf.Kit.ring_data ~idx:3 = Some 77);
  check_bool "bad map id rejected" true
    (match System.bpf_map_update e ~map:99 ~idx:0 1 with Error _ -> true | Ok () -> false);
  check_bool "undeclared map rejected" true
    (match System.bpf_map_update e ~map:Bpf.Kit.conf_map ~idx:0 1 with
    | Error _ -> true
    | Ok () -> false);
  check_bool "index out of bounds rejected" true
    (match System.bpf_map_update e ~map:Bpf.Kit.ring_data ~idx:8 1 with
    | Error _ -> true
    | Ok () -> false);
  (* Redeclaring a shared map with a conflicting size is an install error;
     contents survive a compatible reinstall. *)
  check_bool "conflicting map size rejected" true
    (match System.bpf_install sys e (Bpf.Kit.tick_requeue ~cap:16) with
    | Error _ -> true
    | Ok () -> false);
  (match System.bpf_install sys e (Bpf.Kit.ring_pick ~cap:8) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_bool "map contents survive reinstall" true
    (System.bpf_map_get e ~map:Bpf.Kit.ring_data ~idx:3 = Some 77);
  check_int "verifier_rejects counted" 1
    (System.stats sys).System.bpf_verifier_rejects

(* A pick program may return any int.  One no thread has is a validation
   miss: the CPU falls back to the agent path and nothing raises. *)
let test_pick_unknown_tid () =
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  (match System.bpf_install sys e (Bpf.Kit.ring_pick ~cap:8) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_bool "slot written" true
    (System.bpf_map_update e ~map:Bpf.Kit.ring_data ~idx:0 max_int = Ok ());
  check_bool "tail advanced" true
    (System.bpf_map_update e ~map:Bpf.Kit.ring_meta ~idx:Bpf.Kit.meta_tail 1
    = Ok ());
  (* A managed thread waking with no agent leaves its CPU idle, which runs
     the pick hook. *)
  let t = Kernel.create_task k ~name:"w" (fun () -> Task.Exit) in
  System.manage e t;
  Kernel.start k t;
  Kernel.run_until k (us 50);
  let st = System.stats sys in
  check_int "unknown tid counted as a miss" 1 st.System.bpf_misses;
  check_bool "fell back to the agent path" true (st.System.bpf_fallbacks > 0);
  check_int "nothing picked" 0 st.System.bpf_picks;
  check_bool "ring consumed" true
    (System.bpf_map_get e ~map:Bpf.Kit.ring_meta ~idx:Bpf.Kit.meta_head = Some 1)

(* --- Bit-identity: a rejected install must not perturb the run -------------- *)

let run_fifo_workload ~poke_rejected_install () =
  let k, sys = setup 4 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  if poke_rejected_install then
    (match System.bpf_install sys e (mk [ P.Ldi (0, 1) ]) with
    | Ok () -> Alcotest.fail "bogus program accepted"
    | Error _ -> ());
  let _st, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e ~min_iteration:(us 20) ~idle_gap:(us 50) pol in
  let ol =
    Workloads.Openloop.create k ~seed:11 ~rate:120_000.0
      ~service:(Sim.Dist.Const 9_000.0) ~nworkers:16
      ~spawn:(fun ~idx b ->
        let t = Kernel.create_task k ~name:(Printf.sprintf "w%d" idx) b in
        System.manage e t;
        Kernel.start k t;
        t)
  in
  Workloads.Openloop.start ol ~until:(ms 30);
  Kernel.run_until k (ms 40);
  let rec_ = Workloads.Openloop.recorder ol in
  ( Workloads.Recorder.completed rec_,
    Workloads.Recorder.p rec_ 99.0,
    (Kernel.stats k).Kernel.ctx_switches,
    (System.stats sys).System.commits )

let test_no_program_bit_identity () =
  let a = run_fifo_workload ~poke_rejected_install:false () in
  let b = run_fifo_workload ~poke_rejected_install:true () in
  check_bool "rejected install leaves the run bit-identical" true (a = b)

(* --- Fastpath scheduling properties ----------------------------------------- *)

let run_openloop ~seed ~fastpath =
  let k, sys = setup 4 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _st, pol = Policies.Shinjuku.policy ~fastpath ~is_batch:(fun _ -> false) () in
  let _g = Agent.attach_global sys e ~min_iteration:(us 20) ~idle_gap:(us 50) pol in
  let ol =
    Workloads.Openloop.create k ~seed ~rate:150_000.0
      ~service:(Sim.Dist.Const 8_000.0) ~nworkers:16
      ~spawn:(fun ~idx b ->
        let t = Kernel.create_task k ~name:(Printf.sprintf "w%d" idx) b in
        System.manage e t;
        Kernel.start k t;
        t)
  in
  Workloads.Openloop.start ol ~until:(ms 30);
  (* Generous drain window: every offered request must complete. *)
  Kernel.run_until k (ms 45);
  ( Workloads.Openloop.offered ol,
    Workloads.Recorder.completed (Workloads.Openloop.recorder ol),
    (System.stats sys).System.bpf_picks )

let test_no_lost_threads =
  QCheck.Test.make ~name:"fastpath loses no offered work" ~count:8
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let offered, completed, picks = run_openloop ~seed ~fastpath:true in
      offered = completed && picks > 0)

let test_fastpath_matches_agent_completions =
  QCheck.Test.make ~name:"fastpath and agent-only both drain the offered load"
    ~count:6
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let o1, c1, _ = run_openloop ~seed ~fastpath:true in
      let o2, c2, _ = run_openloop ~seed ~fastpath:false in
      o1 = o2 && c1 = o1 && c2 = o2)

let test_work_conservation () =
  (* 12 x 300 us of work on 3 worker CPUs with a deliberately sleepy agent
     (1 ms poll gap).  Agent-only, every batch waits out the gap; the pick
     ring keeps the CPUs fed, so the fastpath makespan approaches the
     W/c bound. *)
  let run fastpath =
    let k, sys = setup 4 in
    let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
    let _st, pol = Policies.Fifo_centralized.policy ~fastpath () in
    let _g = Agent.attach_global sys e ~min_iteration:(us 50) ~idle_gap:(ms 1) pol in
    let done_at = ref [] in
    for i = 0 to 11 do
      let t =
        Kernel.create_task k
          ~name:(Printf.sprintf "j%d" i)
          (Task.compute_total ~slice:(us 50) ~total:(us 300) (fun () ->
               done_at := Kernel.now k :: !done_at;
               Task.Exit))
      in
      System.manage e t;
      Kernel.start k t
    done;
    Kernel.run_until k (ms 20);
    check_int (Printf.sprintf "all jobs finished (fastpath=%b)" fastpath) 12
      (List.length !done_at);
    List.fold_left max 0 !done_at
  in
  let makespan_fp = run true in
  let makespan_agent = run false in
  check_bool
    (Printf.sprintf "fastpath near work-conserving (%d ns)" makespan_fp)
    true
    (makespan_fp < ms 2);
  check_bool
    (Printf.sprintf "fastpath beats the sleepy agent (%d vs %d ns)" makespan_fp
       makespan_agent)
    true
    (makespan_fp < makespan_agent)

(* --- Grace window: programs outlive the agent ------------------------------- *)

let test_grace_window_service () =
  let k, sys = setup 4 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let destroyed = ref None in
  System.on_destroy e (fun r -> destroyed := Some r);
  let _st, pol = Policies.Fifo_centralized.policy ~fastpath:true () in
  let g = Agent.attach_global sys e ~min_iteration:(us 20) ~idle_gap:(us 50) pol in
  let ol =
    Workloads.Openloop.create k ~seed:17 ~rate:280_000.0
      ~service:(Sim.Dist.Const 10_000.0) ~nworkers:32
      ~spawn:(fun ~idx b ->
        let t = Kernel.create_task k ~name:(Printf.sprintf "w%d" idx) b in
        System.manage e t;
        Kernel.start k t;
        t)
  in
  Workloads.Openloop.start ol ~until:(ms 30);
  Kernel.run_until k (ms 10);
  let picks0 = (System.stats sys).System.bpf_picks in
  check_bool "fastpath active before crash" true (picks0 > 0);
  Agent.crash g;
  (* Inside the grace window the enclave is alive and agent-less; installed
     programs keep dispatching published/woken work. *)
  Kernel.run_until k (Kernel.now k + us 150);
  check_bool "not destroyed inside the grace window" true (!destroyed = None);
  check_bool "fastpath kept serving without an agent" true
    ((System.stats sys).System.bpf_picks > picks0);
  Kernel.run_until k (Kernel.now k + ms 2);
  check_bool "grace expiry destroys the enclave" true
    (!destroyed = Some System.Agent_crash)

(* --- Suite ------------------------------------------------------------------- *)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ test_no_lost_threads; test_fastpath_matches_agent_completions ]
  in
  Alcotest.run "bpf"
    [
      ( "verifier",
        [
          Alcotest.test_case "accepts kit programs" `Quick test_verifier_accepts_kit;
          Alcotest.test_case "rejects table" `Quick test_verifier_rejects;
        ] );
      ("vm", [ Alcotest.test_case "execution basics" `Quick test_vm_basics ]);
      ( "maps",
        [
          Alcotest.test_case "plumbing + bounds" `Quick test_map_plumbing;
          Alcotest.test_case "pick of an unknown tid" `Quick test_pick_unknown_tid;
        ] );
      ( "identity",
        [ Alcotest.test_case "rejected install is inert" `Quick test_no_program_bit_identity ] );
      ( "scheduling",
        qsuite
        @ [ Alcotest.test_case "work conservation" `Quick test_work_conservation ] );
      ( "grace-window",
        [ Alcotest.test_case "programs outlive the agent" `Quick test_grace_window_service ] );
    ]
