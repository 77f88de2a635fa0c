(* Golden report digests for the centralized DSL template, the fleet
   lane merge and every registered experiment.

   Every case runs a short deterministic scenario and pins a Marshal
   digest of its whole report (reports are closure-free plain data), so
   any drift in simulated behaviour — a scan step not charged, a pop or a
   ring write reordered — changes a digest.  The cases cover every
   registered policy's smoke run plus an open-loop + batch serving run of
   each centralized parameterization, with and without the BPF fastpath,
   on a uniform and a P/E hybrid machine.  Eight-machine cluster runs
   with dispatch RPCs, gossip and the fleet controller crossing lanes pin
   the merge's (time, lane, seq) order, and a 2-machine one with no fleet
   traffic pins a passive cluster machine.  Each entry of
   [Experiments.Registry] runs at its [Short] size, and the child that
   digests its report also checks the entry's verdict on it.  The BPF
   ablation's no-program run pins the numbers the engine gave before the
   fastpath tier existed.

   Re-bless, only after a change that is meant to alter simulated
   behaviour:

     GOLDEN_BLESS=1 dune exec test/test_golden_dsl.exe

   prints the current table in source form; paste it over [golden]. *)

let ms = Sim.Units.ms
let digest_of = Experiments.Registry.digest_of

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

(* Two serving machines in one cluster with no fleet arrivals: each runs
   its own open-loop load on its own lane. *)
let passive_cluster () =
  let scn i =
    Scenario.make ~seed:(100 + i) ~warmup_ns:(ms 5) ~measure_ns:(ms 10)
      ~cooldown_ns:(ms 5) ~machine:Hw.Machines.xeon_e5_1s
      ~enclaves:
        [
          Scenario.enclave ~policy:"shinjuku" ~cpus:(List.init 8 Fun.id)
            ~workloads:
              [
                Scenario.Openloop
                  {
                    wseed = 7 + i;
                    rate = 20_000.0;
                    service = Sim.Dist.Exponential 50_000.0;
                    nworkers = 50;
                    prefix = "worker";
                  };
              ]
            "serve";
        ]
      (Printf.sprintf "dsl-m%d" i)
  in
  let r = Cluster.run (Cluster.make ~machines:(Array.init 2 scn) "dsl-cluster") in
  Array.to_list
    (Array.map (fun (m : Cluster.machine_report) -> m.Cluster.scenario)
       r.Cluster.machines)

(* ["ok   NAME: CHECK"] or ["FAIL NAME: CHECK"]. *)
let verdict_lines name =
  List.map (fun c ->
      Printf.sprintf "%s %s: %s"
        (if Experiments.Registry.holds c then "ok  " else "FAIL")
        name (Experiments.Registry.show_check c))

(* Runs each named case in a child process, at most two at a time, and
   returns the lines each printed, in the given order: its digest, then
   one line per verdict check.  The registry's short runs take ~7.5 s of
   host time, and tier 1 runs on 2-CPU machines.  The children start from
   the end of the list, where the registry keeps the repository's own
   experiments: colocation's ~0.8 s then overlaps the paper entries.
   Every run is deterministic, so which process computes a case does not
   change it; a child that raises prints nothing, which fails the digest
   comparison. *)
let in_children cases =
  flush_all ();
  let start (name, digest) =
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (try output_string oc (digest ())
       with e -> prerr_endline (name ^ ": " ^ Printexc.to_string e));
      close_out oc;
      Unix._exit 0
    | pid ->
      Unix.close w;
      (pid, (name, Unix.in_channel_of_descr r))
  in
  let rec go pending running finished =
    match (pending, running) with
    | [], [] -> finished
    | c :: rest, ([] | [ _ ]) -> go rest (start c :: running) finished
    | _ ->
      let pid, _ = Unix.wait () in
      let name, ic = List.assoc pid running in
      let d = String.split_on_char '\n' (In_channel.input_all ic) in
      close_in ic;
      go pending (List.remove_assoc pid running) ((name, d) :: finished)
  in
  let finished = go (List.rev cases) [] [] in
  List.map (fun (name, _) -> (name, List.assoc name finished)) cases

(* A registry entry's case: the digest of its [Short] report, then a line
   per check of its verdict on that report. *)
let registry_case (Experiments.Registry.E e) =
  Option.map
    (fun digest ->
      ( e.name,
        fun () ->
          let r = e.run Short ~seed:42 in
          String.concat "\n" (digest r :: verdict_lines e.name (e.verdict r)) ))
    e.digest

(* Every case's name and digest, and each registry entry's verdict
   lines. *)
let cases () =
  let children =
    in_children
      (("bpf-identity", fun () ->
         digest_of (Experiments.Bpf_ablation.run_identity ()))
      :: List.filter_map registry_case Experiments.Registry.all)
  in
  let digests =
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
  @ [ ("cluster", digest_of (passive_cluster ())) ]
  @ List.map (fun (name, lines) -> (name, List.hd lines)) children
  in
  (* table2 counts the copy of lib/ in the build tree's [..]. *)
  let table2 = Experiments.Registry.table2 in
  let table2_lines =
    verdict_lines table2.name
      (table2.verdict (Experiments.Table2.run ~root:".." ()))
  in
  (digests, ("table2", table2_lines) :: List.map (fun (n, l) -> (n, List.tl l)) children)

let golden =
  [
    ("smoke-adaptive", "7d78e7af67c8d5e7d38792eb9608ab9c");
    ("smoke-central", "d48b20b3f966a649ca25c8df6e8bd385");
    ("smoke-fifo-centralized", "efd2e3a1bc679aa16863e689060f0641");
    ("smoke-fifo-percpu", "a2eae8e0744d8bbd732d09f510789e53");
    ("smoke-hybrid-edf", "7b4a35a6aed2a97a8ba4349356063c97");
    ("smoke-search", "e415b45ce9a82854df58ea1f5d568448");
    ("smoke-secure-vm", "a295eabaed561c33ab96c1c7e130b89f");
    ("smoke-shinjuku", "8f644c54a564a19c2940e67f36399e1b");
    ("smoke-snap", "a427a936e4ce2a2454ffbb070e35cbd3");
    ("shinjuku@xeon-e5-1s", "89ed16ce129a1a59c4bce83352627032");
    ("shinjuku?fastpath=true@xeon-e5-1s", "c10d86bb208271e5cdc28c539066f807");
    ("shinjuku?shenango_ext=true&fastpath=true@xeon-e5-1s", "0d55e487248330e0260606d64a363fe7");
    ("central?fastpath=true@xeon-e5-1s", "687736c41c9b37ff07666765e689d274");
    ("fifo-centralized@xeon-e5-1s", "729d9da6c29e9b681fdadd91fed7e183");
    ("fifo-centralized?fastpath=true@xeon-e5-1s", "bb14e02e3ca0be475621479501db7b48");
    ("hybrid-edf@xeon-e5-1s", "4db2f1bf94e0b575b7b2536435f2a918");
    ("hybrid-edf?fastpath=true@xeon-e5-1s", "02308eb693524da997a2dcb83db5b1cc");
    ("adaptive@xeon-e5-1s", "d4833409571f593c788e373d64b18d60");
    ("snap@xeon-e5-1s", "28067b1b14c3626c75f06e57f9bd48af");
    ("shinjuku@hybrid-1s", "33636388c2fbbc19fdda0bcc09ad565b");
    ("shinjuku?fastpath=true@hybrid-1s", "1c052231e85706f08be35e03a07cdac6");
    ("shinjuku?shenango_ext=true&fastpath=true@hybrid-1s", "29130f500f23c58dc866d0d88e8117e1");
    ("central?fastpath=true@hybrid-1s", "614bd7d010e414127351bd47893fa532");
    ("fifo-centralized@hybrid-1s", "938e68093585ab41b8454208018e77fc");
    ("fifo-centralized?fastpath=true@hybrid-1s", "bd56f7c925ba7c9d40f89519b5c35ea7");
    ("hybrid-edf@hybrid-1s", "05af3abb8d7cbd6df542088029651094");
    ("hybrid-edf?fastpath=true@hybrid-1s", "de300b31bcccb2274e3c6ee6569dd5a0");
    ("adaptive@hybrid-1s", "2d23a9975f93fbe77ad7775da13528c6");
    ("snap@hybrid-1s", "943dee5019f749c75de02a6d0b4e2733");
    ("fleet-fifo-percpu-weighted", "5f63d81eb9350d1cc22c318d7c916d67");
    ("fleet-fifo-percpu-round-robin", "e0ed1f5c30dfa5f1cb271d6497cc5d7b");
    ("fleet-shinjuku-weighted", "26636d9cef4caa7c3404c70667146233");
    ("fleet-shinjuku-round-robin", "46047d8c77cbe2541adfc1bc5db2239d");
    ("cluster", "d1f82b5d5989345a8d0558a1f0f4b450");
    ("bpf-identity", "4763c6cd374b6fe8ffefcfb575a2aec5");
    ("table3", "16c139b287c092491c3939c2c8c921e1");
    ("fig5", "ad06c2cdac48e1051c1be72d212a2532");
    ("fig6a", "4fcb7af0302a10ebb55d363dc7b4c7fc");
    ("fig6bc", "e4610cf300bc643bf7a0ea0c86f037e6");
    ("fig7a", "7ac404b033709d3c79de128bcc6f1b65");
    ("fig7b", "67cf5f2e7c07ac48dbf5b6ae59ef4085");
    ("fig8", "e3772dfaaa185240c16363987566d7b3");
    ("table4", "a88e28197e82b816dce45cc947eae116");
    ("bpf", "2f39100104e1e81471ab1ae1b59b96f1");
    ("tickless", "acf059405deefc77df0dc3ed17afe6b6");
    ("upgrade", "c84cbe386bc916a06918dc8defb09cf9");
    ("resilience", "d3d6fa2990ece9f339c8b5c5e4864d44");
    ("colocation", "b0c334713567dff3c72a69ef41a46026");
    ("fleet", "5ccb750c69b6729508c94e7b3a555d26");
    ("hybrid", "128feac25b10ad1eba08a87b3b9a37a2");
    ("adaptive", "ffbbe34c71e3cbe9d751629c74c78d73");
  ]

let results = lazy (cases ())

let test_digests () =
  let got = fst (Lazy.force results) in
  Alcotest.(check int) "case count" (List.length golden) (List.length got);
  List.iter
    (fun (k, d) ->
      match List.assoc_opt k golden with
      | Some want -> Alcotest.(check string) k want d
      | None -> Alcotest.failf "no golden digest recorded for %s" k)
    got

(* Prints an entry's readings, then fails naming each of its predicates
   that does not hold. *)
let test_verdict name () =
  let lines = List.assoc name (snd (Lazy.force results)) in
  List.iter print_endline lines;
  match List.filter (String.starts_with ~prefix:"FAIL") lines with
  | [] -> ()
  | fails ->
    Alcotest.failf "%d %s predicates fail:\n%s" (List.length fails) name
      (String.concat "\n" fails)

let bless () =
  print_endline "let golden =\n  [";
  List.iter
    (fun (k, d) -> Printf.printf "    (%S, %S);\n" k d)
    (fst (cases ()));
  print_endline "  ]"

let () =
  if Sys.getenv_opt "GOLDEN_BLESS" <> None then bless ()
  else
    (* Every failing case prints its readings, so one run names every
       predicate that does not hold. *)
    Alcotest.run ~show_errors:true "golden-dsl"
      [
        ("digests", [ Alcotest.test_case "report digests" `Quick test_digests ]);
        ( "verdicts",
          List.map
            (fun (Experiments.Registry.E e) ->
              Alcotest.test_case e.name `Quick (test_verdict e.name))
            Experiments.Registry.all );
      ]
