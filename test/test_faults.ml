(* lib/faults: fault plans must be deterministic, inert when empty, and the
   §3.4 recovery paths they drive must behave as the paper claims —
   crash -> grace period -> CFS fallback, upgrade -> replacement attach,
   stuck agent -> watchdog, queue burst -> drops without enclave death. *)

module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Plan = Faults.Plan
module Injector = Faults.Injector

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "faults-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

let spawn_ghost k e ~name behavior =
  let t = Kernel.create_task k ~name behavior in
  System.manage e t;
  Kernel.start k t;
  t

(* A small serving scenario shared by the determinism tests: FIFO global
   agent, open-loop load on 3 worker CPUs.  Returns everything an observer
   could compare across runs. *)
let serving_run ~seed ~plan =
  let k = Kernel.create ~seed (machine 4) in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~watchdog_timeout:(ms 20) ~cpus:(Kernel.full_mask k) ()
  in
  let _, pol = Policies.Fifo_centralized.policy ~timeslice:(us 100) () in
  let g = Agent.attach_global sys e pol in
  let spawn ~idx behavior =
    spawn_ghost k e ~name:(Printf.sprintf "w%d" idx) behavior
  in
  let ol =
    Workloads.Openloop.create k ~seed ~rate:150_000.
      ~service:(Sim.Dist.Exponential 8_000.) ~nworkers:16 ~spawn
  in
  let inj =
    match plan with
    | None -> None
    | Some p ->
      Some
        (Injector.arm ~rng:(Kernel.rng k)
           { Injector.sys; enclave = e; group = Some g; replace = None }
           p)
  in
  Workloads.Openloop.start ol ~until:(ms 20);
  Kernel.run_until k (ms 25);
  let rec_ = Workloads.Openloop.recorder ol in
  ( Workloads.Openloop.offered ol,
    Workloads.Recorder.completed rec_,
    Workloads.Recorder.p rec_ 50.0,
    Workloads.Recorder.p rec_ 99.0,
    Sim.Engine.events_fired (Kernel.engine k),
    Option.map Injector.report inj )

(* --- Satellite 1: arming an empty plan is bit-for-bit inert ------------------- *)

let test_empty_plan_bit_identical =
  QCheck.Test.make ~name:"armed empty plan reproduces the unarmed run" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let offered, done_, p50, p99, fired, _ = serving_run ~seed ~plan:None in
      let offered', done', p50', p99', fired', rep =
        serving_run ~seed ~plan:(Some Plan.empty)
      in
      (match rep with
      | Some r -> r.Faults.Report.fired = [] && r.Faults.Report.destroyed_at = None
      | None -> false)
      && offered = offered' && done_ = done' && p50 = p50' && p99 = p99'
      && fired = fired')

let test_arrivals_unchanged_by_crash_plan () =
  (* The fault stream is independent of the workload's: a crash plan changes
     completions but never the offered-load sequence. *)
  let offered_base, _, _, _, _, _ = serving_run ~seed:3 ~plan:None in
  let plan = Plan.make ~name:"crash" [ { at = ms 8; jitter = 0; kind = Crash } ] in
  let offered_crash, _, _, _, _, rep = serving_run ~seed:3 ~plan:(Some plan) in
  check_int "offered load identical" offered_base offered_crash;
  match rep with
  | Some r -> check_string "reason" "agent-crash" (Option.get r.Faults.Report.destroy_reason)
  | None -> Alcotest.fail "no report"

(* --- Plan parsing -------------------------------------------------------------- *)

let plan_gen =
  let open QCheck.Gen in
  let time = map (fun n -> n * 1_000) (int_range 0 500_000) in
  let kind =
    oneof
      [
        return Plan.Crash;
        map2
          (fun g abi -> Plan.Upgrade { handoff_gap = g; abi })
          time
          (oneof [ return None; map Option.some (int_range 0 9) ]);
        map (fun d -> Plan.Stall { duration = d }) time;
        map2 (fun p d -> Plan.Slow { penalty = p; duration = d }) time time;
        map (fun n -> Plan.Burst { count = n }) (int_range 1 1_000_000);
      ]
  in
  let event =
    map2 (fun at (jitter, kind) -> { Plan.at; jitter; kind }) time (pair time kind)
  in
  map (fun evs -> Plan.make ~name:"gen" evs) (list_size (int_range 0 6) event)

let test_plan_roundtrip =
  QCheck.Test.make ~name:"plan to_string/parse round-trips" ~count:200
    (QCheck.make plan_gen) (fun p ->
      match Plan.parse (Plan.to_string p) with
      | Ok p' -> p'.Plan.events = p.Plan.events
      | Error _ -> false)

let test_plan_parse_errors () =
  let bad s =
    match Plan.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "missing time" true (bad "crash");
  check_bool "unknown kind" true (bad "meteor@5ms");
  check_bool "bad option" true (bad "upgrade@5ms:gap");
  check_bool "bad time" true (bad "crash@5parsecs");
  check_bool "overflowing time" true (bad "crash@10000000000s");
  check_bool "overflowing option" true (bad "stall@5ms:for=10000000000s");
  check_bool "min_int us wraps to 0" true (bad "crash@-4611686018427387904us");
  check_bool "negative time" true (bad "crash@-5ms");
  check_bool "negative option" true (bad "slow@5ms:penalty=-1us");
  let rejects what expected s =
    Alcotest.(check (result reject string)) what (Error expected) (Plan.parse s)
  in
  rejects "misspelt key" {|stall takes no option "fro"|} "stall@1ms:fro=5ms";
  rejects "key of another kind" {|burst takes no option "for"|} "burst@1ms:for=5ms";
  rejects "crash takes no key" {|crash takes no option "zzz"|} "crash@1ms:zzz=1";
  rejects "key given twice" {|option "for" given twice|} "stall@1ms:for=5ms:for=6ms";
  check_bool "jitter on any kind" true (not (bad "burst@1ms:n=5:jitter=1ms"));
  check_bool "zero time ok" true (not (bad "crash@0s:jitter=0ns"));
  check_bool "largest second ok" true (not (bad "crash@4611686018s"));
  check_bool "none ok" true (Plan.parse "none" = Ok Plan.empty);
  check_bool "presets parse" true
    (List.for_all
       (fun n -> Plan.preset n ~at:(ms 5) <> None)
       Plan.preset_names)

(* --- Crash: no replacement -> grace period -> CFS ------------------------------ *)

let test_crash_falls_back_to_cfs () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let g = Agent.attach_global sys e pol in
  let t = spawn_ghost k e ~name:"svc" (Task.compute_forever ~slice:(us 100)) in
  let plan = Plan.make ~name:"crash" [ { at = ms 5; jitter = 0; kind = Crash } ] in
  let inj =
    Injector.arm ~rng:(Kernel.rng k)
      { Injector.sys; enclave = e; group = Some g; replace = None }
      plan
  in
  Kernel.run_until k (ms 10);
  let r = Injector.report inj in
  check_bool "enclave destroyed" false (System.enclave_alive e);
  check_string "reason" "agent-crash" (Option.get r.Faults.Report.destroy_reason);
  (* The grace period is the whole fault-to-fallback latency. *)
  check_int "fallback = 200us grace period" 200_000
    (Option.get r.Faults.Report.fallback_ns);
  check_int "destroyed at crash + grace" (ms 5 + 200_000)
    (Option.get r.Faults.Report.destroyed_at);
  check_bool "thread on CFS and still running" true
    (t.Task.policy = Task.Cfs && Task.is_runnable t)

(* --- Upgrade: stop -> handoff gap -> replacement rebuilds ---------------------- *)

let test_upgrade_replacement_rebuilds () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol1 = Policies.Fifo_centralized.policy () in
  let g1 = Agent.attach_global sys e pol1 in
  let st2 = ref None in
  let t = spawn_ghost k e ~name:"svc" (Task.compute_forever ~slice:(us 100)) in
  let plan =
    Plan.make ~name:"upgrade"
      [ { at = ms 5; jitter = 0; kind = Upgrade { handoff_gap = us 100; abi = None } } ]
  in
  let inj =
    Injector.arm ~rng:(Kernel.rng k)
      {
        Injector.sys;
        enclave = e;
        group = Some g1;
        replace =
          Some
            (fun ?abi:_ () ->
              let st, pol2 = Policies.Fifo_centralized.policy () in
              st2 := Some st;
              Agent.attach_global sys e pol2);
      }
      plan
  in
  Kernel.run_until k (ms 4);
  let before = t.Task.sum_exec in
  Kernel.run_until k (ms 12);
  let r = Injector.report inj in
  check_bool "enclave survived" true (System.enclave_alive e);
  check_int "handoff gap measured" (us 100) (Option.get r.Faults.Report.handoff_ns);
  check_bool "v2 group is current" true
    (match Injector.current_group inj with
    | Some g -> Agent.is_attached g && g != g1
    | None -> false);
  check_bool "v2 rebuilt state and scheduled" true
    (match !st2 with
    | Some st -> Policies.Fifo_centralized.scheduled st > 0
    | None -> false);
  check_bool "progress resumed" true (t.Task.sum_exec > before);
  check_bool "still ghost-managed" true (t.Task.policy = Task.Ghost)

(* --- Upgrade with an ABI the runtime doesn't speak -> rejected -> CFS ---------- *)

let test_upgrade_abi_mismatch_rejected () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol1 = Policies.Fifo_centralized.policy () in
  let g1 = Agent.attach_global sys e pol1 in
  let t = spawn_ghost k e ~name:"svc" (Task.compute_forever ~slice:(us 100)) in
  let bad_abi = Ghost.Abi.version + 1 in
  let plan =
    Plan.make ~name:"rejected upgrade"
      [
        {
          at = ms 5;
          jitter = 0;
          kind = Upgrade { handoff_gap = us 100; abi = Some bad_abi };
        };
      ]
  in
  let inj =
    Injector.arm ~rng:(Kernel.rng k)
      {
        Injector.sys;
        enclave = e;
        group = Some g1;
        replace =
          Some
            (fun ?abi () ->
              let _, pol2 = Policies.Fifo_centralized.policy () in
              let pol2 =
                match abi with
                | Some v -> { pol2 with Agent.abi_version = v }
                | None -> pol2
              in
              Agent.attach_global sys e pol2);
      }
      plan
  in
  Kernel.run_until k (ms 10);
  let r = Injector.report inj in
  check_bool "rejection recorded" true (r.Faults.Report.rejected_at <> None);
  check_bool "no replacement attached" true (r.Faults.Report.replaced_at = None);
  check_bool "enclave destroyed" false (System.enclave_alive e);
  check_string "reason" "agent-crash" (Option.get r.Faults.Report.destroy_reason);
  check_bool "thread rescued to CFS" true
    (t.Task.policy = Task.Cfs && Task.is_runnable t);
  (* The plan spec round-trips with its abi option intact. *)
  check_bool "abi in rendered plan" true
    (match Plan.parse (Plan.to_string plan) with
    | Ok p -> p.Plan.events = plan.Plan.events
    | Error _ -> false)

(* --- Upgrade experiment: recovery read from the plan's own instant ------------- *)

(* A late upgrade's spike is counted where it happens, not at the default
   upgrade's instant; a plan that misses the measured window is refused. *)
let test_upgrade_windows_follow_plan () =
  let plan at =
    match Plan.parse (Printf.sprintf "upgrade@%dms:gap=5ms" at) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r = Experiments.Upgrade.run ~plan:(plan 250) ~seed:42 ~measure_ns:(ms 300) () in
  check_int "fault instant" (ms 250) r.Experiments.Upgrade.upgrade_at;
  (* The 5 ms gap outlasts the grace period: the enclave dies before the
     replacement can attach, whatever the p99 ratio reads. *)
  check_bool "not recovered" false r.Experiments.Upgrade.recovered;
  check_bool
    (Printf.sprintf "degraded requests counted (%d)" r.Experiments.Upgrade.degraded)
    true
    (r.Experiments.Upgrade.degraded > 0);
  Alcotest.check_raises "plan past the window"
    (Invalid_argument
       "upgrade: plan \"upgrade@400ms:gap=5ms\" has no first event in the \
        measured window [50ms, 350ms)")
    (fun () ->
      ignore
        (Experiments.Upgrade.run ~plan:(plan 400) ~seed:42 ~measure_ns:(ms 300) ()))

(* --- Stuck agent -> watchdog --------------------------------------------------- *)

let stuck_run () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~watchdog_timeout:(ms 5) ~cpus:(Kernel.full_mask k) ()
  in
  let _, pol = Policies.Fifo_centralized.policy ~timeslice:(us 100) () in
  let g = Agent.attach_global sys e pol in
  (* Two threads on one worker CPU: when the agent pauses, the one holding
     the CPU keeps running, but the queued one is runnable-unscheduled —
     exactly what the watchdog exists to notice. *)
  let t = spawn_ghost k e ~name:"svc" (Task.compute_forever ~slice:(us 100)) in
  let _t2 = spawn_ghost k e ~name:"svc2" (Task.compute_forever ~slice:(us 100)) in
  let plan =
    Plan.make ~name:"stuck"
      [ { at = ms 3; jitter = 0; kind = Stall { duration = ms 50 } } ]
  in
  let inj =
    Injector.arm ~rng:(Kernel.rng k)
      { Injector.sys; enclave = e; group = Some g; replace = None }
      plan
  in
  Kernel.run_until k (ms 20);
  (Injector.report inj, e, t)

let test_stuck_agent_trips_watchdog () =
  let r, e, t = stuck_run () in
  check_bool "enclave destroyed" false (System.enclave_alive e);
  check_string "reason" "watchdog" (Option.get r.Faults.Report.destroy_reason);
  check_int "one watchdog fire" 1 r.Faults.Report.watchdog_fires;
  (* Stall at 3ms, 5ms timeout: death within [3ms, 3ms+2*timeout]. *)
  let dead = Option.get r.Faults.Report.destroyed_at in
  check_bool "death after the stall" true (dead > ms 3 && dead <= ms 13);
  check_bool "thread rescued to CFS" true (t.Task.policy = Task.Cfs)

let test_report_deterministic () =
  (* Same seed + same plan => bit-identical rendered reports. *)
  let r1, _, _ = stuck_run () in
  let r2, _, _ = stuck_run () in
  check_string "reports identical" (Faults.Report.to_string r1)
    (Faults.Report.to_string r2)

(* --- Burst / slow: degradation without death ----------------------------------- *)

let test_burst_drops_without_death () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let g = Agent.attach_global sys e pol in
  let t = spawn_ghost k e ~name:"svc" (Task.compute_forever ~slice:(us 100)) in
  let plan =
    Plan.make ~name:"burst"
      [ { at = ms 2; jitter = 0; kind = Burst { count = 100_000 } } ]
  in
  let inj =
    Injector.arm ~rng:(Kernel.rng k)
      { Injector.sys; enclave = e; group = Some g; replace = None }
      plan
  in
  Kernel.run_until k (ms 10);
  let r = Injector.report inj in
  check_bool "overflow surfaced as drops" true (r.Faults.Report.enclave_drops > 0);
  check_bool "enclave survived the burst" true (System.enclave_alive e);
  check_bool "thread still scheduled" true
    (t.Task.policy = Task.Ghost && t.Task.sum_exec > 0)

let test_slow_commits_still_progress () =
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e =
    System.create_enclave sys ~watchdog_timeout:(ms 20) ~cpus:(Kernel.full_mask k) ()
  in
  let _, pol = Policies.Fifo_centralized.policy () in
  let g = Agent.attach_global sys e pol in
  let done_ = ref false in
  let _t =
    spawn_ghost k e ~name:"job"
      (Task.compute_total ~slice:(us 100) ~total:(ms 4) (fun () ->
           done_ := true;
           Task.Exit))
  in
  let plan =
    Plan.make ~name:"slow"
      [ { at = ms 1; jitter = 0; kind = Slow { penalty = us 50; duration = ms 10 } } ]
  in
  let _inj =
    Injector.arm ~rng:(Kernel.rng k)
      { Injector.sys; enclave = e; group = Some g; replace = None }
      plan
  in
  Kernel.run_until k (ms 30);
  check_bool "enclave survived slow commits" true (System.enclave_alive e);
  check_bool "job completed despite the penalty" true !done_

(* --- Satellite 2: destroy reasons + fault instants in Obs ---------------------- *)

let counter_value snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> -1

let test_metrics_see_faults () =
  Obs.Metrics.reset ();
  let sink = Obs.Sink.create () in
  Obs.Sink.install sink;
  Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
      let k = Kernel.create (machine 2) in
      let sys = System.install k in
      let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
      let _, pol = Policies.Fifo_centralized.policy () in
      let g = Agent.attach_global sys e pol in
      let _t = spawn_ghost k e ~name:"svc" (Task.compute_forever ~slice:(us 100)) in
      let plan =
        Plan.make ~name:"crash" [ { at = ms 2; jitter = 0; kind = Crash } ]
      in
      ignore
        (Injector.arm ~rng:(Kernel.rng k)
           { Injector.sys; enclave = e; group = Some g; replace = None }
           plan);
      Kernel.run_until k (ms 5));
  let snap = Obs.Metrics.snapshot () in
  check_int "agent-crash destroy counted" 1
    (counter_value snap "enclave.destroyed.agent_crash");
  check_int "fault instant counted" 1 (counter_value snap "faults.injected");
  Obs.Metrics.reset ()

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_empty_plan_bit_identical;
          Alcotest.test_case "arrivals unchanged by crash plan" `Quick
            test_arrivals_unchanged_by_crash_plan;
          Alcotest.test_case "report deterministic" `Quick test_report_deterministic;
        ] );
      ( "plan",
        [
          QCheck_alcotest.to_alcotest test_plan_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash -> CFS fallback" `Quick
            test_crash_falls_back_to_cfs;
          Alcotest.test_case "upgrade -> replacement rebuilds" `Quick
            test_upgrade_replacement_rebuilds;
          Alcotest.test_case "upgrade experiment windows follow the plan" `Quick
            test_upgrade_windows_follow_plan;
          Alcotest.test_case "upgrade abi mismatch -> rejected, CFS" `Quick
            test_upgrade_abi_mismatch_rejected;
          Alcotest.test_case "stuck agent -> watchdog" `Quick
            test_stuck_agent_trips_watchdog;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "burst -> drops, no death" `Quick
            test_burst_drops_without_death;
          Alcotest.test_case "slow commits still progress" `Quick
            test_slow_commits_still_progress;
        ] );
      ("obs", [ Alcotest.test_case "metrics see faults" `Quick test_metrics_see_faults ]);
    ]
