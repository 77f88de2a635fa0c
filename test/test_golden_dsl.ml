(* Golden report digests for the centralized DSL template and the fleet
   lane merge.

   Every case runs a short deterministic scenario and pins a Marshal
   digest of its whole report (reports are closure-free plain data), so
   any drift in simulated behaviour — a scan step not charged, a pop or a
   ring write reordered — changes a digest.  The cases cover every
   registered policy's smoke run plus an open-loop + batch serving run of
   each centralized parameterization, with and without the BPF fastpath,
   on a uniform and a P/E hybrid machine.  Eight-machine cluster runs
   with dispatch RPCs, gossip and the fleet controller crossing lanes pin
   the merge's (time, lane, seq) order.

   Re-bless, only after a change that is meant to alter simulated
   behaviour:

     GOLDEN_BLESS=1 dune exec test/test_golden_dsl.exe

   prints the current table in source form; paste it over [golden]. *)

let ms = Sim.Units.ms

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let serving_specs =
  [
    "shinjuku"; "shinjuku?fastpath=true";
    "shinjuku?shenango_ext=true&fastpath=true"; "central?fastpath=true";
    "fifo-centralized"; "fifo-centralized?fastpath=true"; "hybrid-edf";
    "hybrid-edf?fastpath=true"; "adaptive"; "snap";
  ]

let machines = [ Hw.Machines.xeon_e5_1s; Hw.Machines.hybrid_1s ]

(* The class-0 prefix each policy reads off thread names: hybrid-edf
   serves frames, the others serve workers. *)
let lc_prefix spec =
  if String.starts_with ~prefix:"hybrid-edf" spec then "frame" else "worker"

(* Eight CPUs (one runs the global agent), dispersive requests whose slow
   mode outlasts every timeslice, and batch threads for the down-class
   phases to evict and donate to. *)
let serving spec (m : Hw.Machines.t) =
  Scenario.make ~seed:3 ~warmup_ns:(ms 1) ~measure_ns:(ms 6) ~cooldown_ns:(ms 1)
    ~machine:m
    ~enclaves:
      [
        Scenario.enclave ~policy:spec ~cpus:(List.init 8 Fun.id)
          ~workloads:
            [
              Scenario.Openloop
                {
                  wseed = 11;
                  rate = 400_000.0;
                  service =
                    Sim.Dist.Bimodal
                      { p_slow = 0.02; fast = 4_000.0; slow = 150_000.0 };
                  nworkers = 48;
                  prefix = lc_prefix spec;
                };
              Scenario.Batch { n = 3; prefix = "batch" };
            ]
          "serve";
      ]
    (Printf.sprintf "golden-%s@%s" spec m.Hw.Machines.name)

(* Eight machines under per-CPU and centralized agents.  Every machine
   gossips its depth each 250 us and the controller reweights each 500 us,
   so cross-lane posts from many lanes land at equal times on the
   coordinator lane, and the dispatch RPCs into the machines are routed
   by the controller's weights or by the static cycle. *)
let fleet_policies = [ "fifo-percpu"; "shinjuku" ]

let routings =
  [ ("weighted", Cluster.Balancer.Weighted);
    ("round-robin", Cluster.Balancer.Round_robin) ]

let fleet policy routing name =
  let machines =
    Array.init 8 (fun i ->
        Scenario.make ~seed:(20 + i) ~warmup_ns:(ms 1) ~measure_ns:(ms 4)
          ~cooldown_ns:(ms 1) ~machine:Hw.Machines.xeon_e5_1s
          ~enclaves:
            [
              Scenario.enclave ~policy ~cpus:(List.init 4 Fun.id)
                ~workloads:[] "serve";
            ]
          (Printf.sprintf "golden-fleet-m%d" i))
  in
  Cluster.make ~machines
    ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 16 }
    ~arrivals:
      { Cluster.aseed = 5; rate = 400_000.0;
        service = Sim.Dist.Exponential 50_000.0 }
    ~routing ~gossip_period_ns:(Sim.Units.us 250)
    ~control_period_ns:(Sim.Units.us 500) name

let cases () =
  List.map (fun (name, r) -> ("smoke-" ^ name, digest_of r)) (Scenario.smoke ())
  @ List.concat_map
      (fun (m : Hw.Machines.t) ->
        List.map
          (fun spec ->
            ( Printf.sprintf "%s@%s" spec m.Hw.Machines.name,
              digest_of (Scenario.run (serving spec m)) ))
          serving_specs)
      machines
  @ List.concat_map
      (fun policy ->
        List.map
          (fun (rname, routing) ->
            let name = Printf.sprintf "fleet-%s-%s" policy rname in
            (name, digest_of (Cluster.run (fleet policy routing name))))
          routings)
      fleet_policies

let golden =
  [
    ("smoke-adaptive", "f77dbcaa18a135bad46ceef7457837e2");
    ("smoke-central", "201011cb839140c46657da067957db10");
    ("smoke-fifo-centralized", "466fc818c4cf1b76fde2a9474e27e4f5");
    ("smoke-fifo-percpu", "85278a41506fa51fe31c14d8863a26c0");
    ("smoke-hybrid-edf", "743206e8fad48d1bb0f60c361597a2e2");
    ("smoke-search", "46870cf7c7a544598d6c2b61b3a82bb1");
    ("smoke-secure-vm", "4c39ed7bb6fd20e32792cc91214bcffe");
    ("smoke-shinjuku", "7d4eebc604291abf0fa69e703f846671");
    ("smoke-snap", "f025ee6d09e4f8eeede143cc9b435acc");
    ("shinjuku@xeon-e5-1s", "ed8efce6b261d7312db7f7130e991978");
    ("shinjuku?fastpath=true@xeon-e5-1s", "a5df7618890ad63e1c5876038c71ebe8");
    ("shinjuku?shenango_ext=true&fastpath=true@xeon-e5-1s", "b7b170d3f04f9988dbcf0c4259876025");
    ("central?fastpath=true@xeon-e5-1s", "3eadde3e40bbcec79325b109455215ea");
    ("fifo-centralized@xeon-e5-1s", "9ed47663e5af88f5b753fdf451d5bf06");
    ("fifo-centralized?fastpath=true@xeon-e5-1s", "0fc394e322df543aa71e49930c8f1b16");
    ("hybrid-edf@xeon-e5-1s", "32da676f85be91f936efca2a1fe8e9ab");
    ("hybrid-edf?fastpath=true@xeon-e5-1s", "ec010f109ea83450ae015e1e842b51f5");
    ("adaptive@xeon-e5-1s", "0419ef3a710f438fe45e34300a3ca791");
    ("snap@xeon-e5-1s", "d8a0f6267a9791cd10d17477c2bb3e77");
    ("shinjuku@hybrid-1s", "e30b39bd58d062fc3360ef7242e696e2");
    ("shinjuku?fastpath=true@hybrid-1s", "59791d975869206e56e65878f00ae58b");
    ("shinjuku?shenango_ext=true&fastpath=true@hybrid-1s", "a2e4db2bf5d27f6dac8975fb2ae8c77a");
    ("central?fastpath=true@hybrid-1s", "f82bae37a48308f18daaca3741ce10c7");
    ("fifo-centralized@hybrid-1s", "6af5791ae905ad9faacf5e4098666deb");
    ("fifo-centralized?fastpath=true@hybrid-1s", "a924ad1150524e888c13fe3cc3fdb685");
    ("hybrid-edf@hybrid-1s", "986473d36955ac090ae682d0f3025fb6");
    ("hybrid-edf?fastpath=true@hybrid-1s", "532bf34ad58eb543eb5ded31347ff090");
    ("adaptive@hybrid-1s", "fc16bfd893257256880e0ec24c84bca5");
    ("snap@hybrid-1s", "55c488cd4c15107db2d24a96c49b2de0");
    ("fleet-fifo-percpu-weighted", "9f1ecbc0cf4a6bef1224988e4bfedee1");
    ("fleet-fifo-percpu-round-robin", "a9f22e8640ba65083fd13af870d4fc29");
    ("fleet-shinjuku-weighted", "261f004521ace1d9ca39347fed4e8040");
    ("fleet-shinjuku-round-robin", "7ba7589e196416a1604ec94093fac0e4");
  ]

let test_digests () =
  let got = cases () in
  Alcotest.(check int) "case count" (List.length golden) (List.length got);
  List.iter
    (fun (k, d) ->
      match List.assoc_opt k golden with
      | Some want -> Alcotest.(check string) k want d
      | None -> Alcotest.failf "no golden digest recorded for %s" k)
    got

let bless () =
  print_endline "let golden =\n  [";
  List.iter (fun (k, d) -> Printf.printf "    (%S, %S);\n" k d) (cases ());
  print_endline "  ]"

let () =
  if Sys.getenv_opt "GOLDEN_BLESS" <> None then bless ()
  else
    Alcotest.run "golden-dsl"
      [ ("digests", [ Alcotest.test_case "report digests" `Quick test_digests ]) ]
