(* Tests for the policy registry (name?param=value construction) and the
   declarative scenario layer. *)

module Registry = Policies.Registry
module Ghost_policy = Policies.Ghost_policy
module System = Ghost.System
module Agent = Ghost.Agent

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ms = Sim.Units.ms
let us = Sim.Units.us

(* --- Registry ---------------------------------------------------------------- *)

let test_registry_names () =
  let names = Registry.names () in
  List.iter
    (fun n -> check_bool (n ^ " registered") true (List.mem n names))
    [
      "adaptive"; "central"; "fifo-centralized"; "fifo-percpu"; "hybrid-edf";
      "search"; "secure-vm"; "shinjuku"; "snap";
    ];
  check_int "exactly nine policies" 9 (List.length names)

let test_registry_make_all_by_name () =
  List.iter
    (fun n ->
      let i = Registry.make n in
      check_bool (n ^ " constructible") true (i.Ghost_policy.name = n);
      check_bool (n ^ " has doc") true (String.length (Registry.doc n) > 0))
    (Registry.names ())

let test_registry_params () =
  let i = Registry.make "shinjuku?timeslice=30us&shenango_ext=true" in
  check_bool "name" true (i.Ghost_policy.name = "shinjuku");
  check_bool "spec preserved" true
    (i.Ghost_policy.spec = "shinjuku?timeslice=30us&shenango_ext=true");
  check_bool "global mode" true (i.Ghost_policy.mode = `Global);
  let local = Registry.make "fifo-percpu" in
  check_bool "percpu is local" true (local.Ghost_policy.mode = `Local)

let test_registry_rejects () =
  (try
     ignore (Registry.make "nonesuch");
     Alcotest.fail "unknown policy accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Registry.make "shinjuku?bogus=1");
    Alcotest.fail "unknown parameter accepted"
  with Invalid_argument _ -> ()

(* Time knobs take finite, non-negative durations that fit an int; an
   Int knob keeps its plain integer meaning. *)
let test_registry_rejects_bad_times () =
  let rejected spec =
    match Registry.make spec with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun spec -> check_bool spec true (rejected spec))
    [
      "shinjuku?timeslice=-5us"; "shinjuku?timeslice=-5"; "shinjuku?timeslice=nanus";
      "shinjuku?timeslice=infms"; "shinjuku?timeslice=1e30us";
      "fifo-centralized?timeslice=-1ns"; "adaptive?target_p99=-0.5ms";
    ];
  List.iter
    (fun spec -> check_bool spec false (rejected spec))
    [ "shinjuku?timeslice=0us"; "search?pending_wait=0"; "adaptive?backlog_hi=0" ];
  (* A scenario's windows are times too: a negative one is refused, where
     it used to run and report nothing served. *)
  let make (warmup_ns, measure_ns, cooldown_ns) () =
    ignore
      (Scenario.make ~warmup_ns ~measure_ns ~cooldown_ns
         ~machine:Hw.Machines.xeon_e5_1s
         ~enclaves:
           [ Scenario.enclave ~policy:"shinjuku" ~cpus:[ 0; 1 ] ~workloads:[] "s" ]
         "windows")
  in
  List.iter
    (fun w ->
      Alcotest.check_raises "negative window"
        (Invalid_argument "Scenario.make: negative window") (make w))
    [ (0, ms (-5), 0); (-1, ms 1, 0); (0, ms 1, -1) ];
  make (0, 0, 0) ()

let test_parse_values () =
  let open Ghost_policy in
  check_bool "30us" true (parse_value "30us" = Int 30_000);
  check_bool "0.5ms" true (parse_value "0.5ms" = Int 500_000);
  check_bool "2s" true (parse_value "2s" = Int 2_000_000_000);
  check_bool "5ns" true (parse_value "5ns" = Int 5);
  check_bool "plain int" true (parse_value "7" = Int 7);
  check_bool "bool" true (parse_value "true" = Bool true);
  check_bool "string fallback" true (parse_value "worker" = String "worker");
  check_bool "flag without =" true
    (parse_spec "central?schedule_be" = ("central", [ ("schedule_be", Bool true) ]))

let test_registry_attach_and_stats () =
  (* A registry-built instance attaches and schedules; publish_stats lands
     its counters in the Obs.Metrics registry under policy.<name>.*. *)
  let machine =
    {
      Hw.Machines.name = "registry-4c";
      topo =
        Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:4 ~smt:1;
      costs = Hw.Costs.skylake;
    }
  in
  let k = Kernel.create machine in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let inst = Registry.make "fifo-centralized?timeslice=100us" in
  let _group = Registry.attach sys e inst in
  for i = 0 to 3 do
    let t =
      Kernel.create_task k
        ~name:(Printf.sprintf "w%d" i)
        (Kernel.Task.compute_total ~slice:(us 20) ~total:(us 200) (fun () ->
             Kernel.Task.Exit))
    in
    System.manage e t;
    Kernel.start k t
  done;
  Kernel.run_until k (ms 5);
  let stats = inst.Ghost_policy.stats () in
  let scheduled = try List.assoc "scheduled" stats with Not_found -> 0 in
  check_bool "scheduled some" true (scheduled > 0);
  Obs.Metrics.reset ();
  Registry.publish_stats inst;
  let gauge =
    List.assoc_opt "policy.fifo-centralized.scheduled" (Obs.Metrics.snapshot ())
  in
  check_bool "metric published" true
    (match gauge with Some (Obs.Metrics.Gauge n) -> n = scheduled | _ -> false);
  Obs.Metrics.reset ()

(* --- Scenario ---------------------------------------------------------------- *)

let test_smoke_all_policies () =
  List.iter
    (fun (name, rep) ->
      let r = Scenario.enclave_report rep "smoke" in
      check_int (name ^ " completes its jobs") r.Scenario.jobs_total
        r.Scenario.jobs_completed;
      check_bool (name ^ " enclave alive") true
        (r.Scenario.destroy_reason = None))
    (Scenario.smoke ())

let jobs_scenario seed =
  Scenario.make ~seed
    ~machine:
      {
        Hw.Machines.name = "det-4c";
        topo =
          Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:4
            ~smt:1;
        costs = Hw.Costs.skylake;
      }
    ~measure_ns:(ms 5)
    ~enclaves:
      [
        Scenario.enclave ~policy:"fifo-centralized?timeslice=50us"
          ~cpus:[ 0; 1; 2; 3 ]
          ~workloads:
            [
              Scenario.Jobs
                { n = 6; slice_ns = us 20; total_ns = us 400; prefix = "job" };
            ]
          "det";
      ]
    "determinism"

let test_scenario_deterministic () =
  let report seed =
    Scenario.enclave_report (Scenario.run (jobs_scenario seed)) "det"
  in
  let a = report 42 and b = report 42 in
  check_int "same completions" a.Scenario.jobs_completed b.Scenario.jobs_completed;
  check_bool "same finish time" true
    (a.Scenario.finished_at = b.Scenario.finished_at);
  check_bool "all finished" true
    (a.Scenario.jobs_completed = a.Scenario.jobs_total)

let () =
  Alcotest.run "scenario"
    [
      ( "registry",
        [
          Alcotest.test_case "nine policies" `Quick test_registry_names;
          Alcotest.test_case "all constructible by name" `Quick
            test_registry_make_all_by_name;
          Alcotest.test_case "spec params" `Quick test_registry_params;
          Alcotest.test_case "rejects unknown" `Quick test_registry_rejects;
          Alcotest.test_case "rejects bad times" `Quick
            test_registry_rejects_bad_times;
          Alcotest.test_case "value parsing" `Quick test_parse_values;
          Alcotest.test_case "attach + stats publishing" `Quick
            test_registry_attach_and_stats;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "smoke: every policy by name" `Quick
            test_smoke_all_policies;
          Alcotest.test_case "deterministic at fixed seed" `Quick
            test_scenario_deterministic;
        ] );
    ]
