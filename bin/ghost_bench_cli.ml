(* Command-line front-end to the experiment harnesses.

   One subcommand per Experiments.Registry entry runs it at its full size;
   `trace NAME` records one at its short size.  The remaining subcommands
   inject faults, run a fleet, and list policies and machine presets;
   `dune exec bench/main.exe` runs the whole suite with its guards. *)

open Cmdliner
module R = Experiments.Registry

let ms = Sim.Units.ms

(* Flags whose values a simulation cannot run with are usage errors
   (exit 124), not exceptions or runs that never end. *)
let checked what ok parse print =
  Arg.conv
    ( (fun s ->
        match parse s with
        | Some v when ok v -> Ok v
        | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))),
      print )

let positive_int =
  checked "a positive integer" (fun n -> n > 0) int_of_string_opt
    Format.pp_print_int

let rate_conv =
  checked "a finite, positive rate"
    (fun r -> Float.is_finite r && r > 0.0)
    float_of_string_opt Format.pp_print_float

let duration_arg ~default ~doc =
  let ms_conv =
    checked "a non-negative duration" (fun n -> n >= 0) int_of_string_opt
      Format.pp_print_int
  in
  Arg.(value & opt ms_conv default & info [ "d"; "duration-ms" ] ~docv:"MS" ~doc)

(* A file the run cannot use is a usage error too, reported before anything
   is simulated.  Opening for append leaves an existing file as it is until
   the run writes it, and a file the check created goes again at once, so a
   run that fails later leaves no empty output behind. *)
let usage_error msg =
  Printf.eprintf "ghost_bench_cli: %s\n" msg;
  exit Cmd.Exit.cli_error

let check_writable path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
  | oc ->
    close_out oc;
    if not existed then Sys.remove path
  | exception Sys_error e -> usage_error e

(* Every simulating subcommand takes the same --seed; 42 is the default
   the whole tree uses.  Most workloads keep their own fixed seeds, so
   offered load stays comparable across systems and seeds. *)
let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "RNG seed (default 42).  It reaches the jitter of fault plans, \
           $(b,trace)'s span sampling and the arrivals of $(b,upgrade), \
           $(b,fleet) and $(b,cluster); every other workload draws from its \
           own fixed seed")

(* --- policies (registry discovery) ---------------------------------------- *)

let policies_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"machine-readable output (one JSON object)")
  in
  let module Knob = Policies.Ghost_policy.Knob in
  let kind_name : Knob.kind -> string = function
    | Time -> "time"
    | Int -> "int"
    | Bool -> "bool"
    | Float -> "float"
    | String -> "string"
  in
  let mode_name = function `Global -> "global" | `Local -> "per-cpu" in
  let run json =
    let infos = Policies.Registry.infos () in
    if json then
      let knob_json (k : Knob.spec) =
        Obs.Json.Obj
          [
            ("key", Obs.Json.Str k.key);
            ("kind", Obs.Json.Str (kind_name k.kind));
            ( "default",
              match k.default with
              | None -> Obs.Json.Null
              | Some _ -> Obs.Json.Str (Knob.render_default k) );
            ("doc", Obs.Json.Str k.doc);
          ]
      in
      let pol_json (i : Policies.Registry.info) =
        ( i.Policies.Registry.info_name,
          Obs.Json.Obj
            [
              ( "mode",
                Obs.Json.Str (mode_name i.Policies.Registry.info_mode) );
              ("doc", Obs.Json.Str i.Policies.Registry.info_doc);
              ( "knobs",
                Obs.Json.Arr
                  (List.map knob_json i.Policies.Registry.info_knobs) );
            ] )
      in
      print_endline (Obs.Json.to_string (Obs.Json.Obj (List.map pol_json infos)))
    else
      List.iter
        (fun (i : Policies.Registry.info) ->
          Printf.printf "%s  [%s]\n  %s\n"
            i.Policies.Registry.info_name
            (mode_name i.Policies.Registry.info_mode)
            i.Policies.Registry.info_doc;
          List.iter
            (fun (k : Knob.spec) ->
              Printf.printf "    %-12s %-7s default %-8s %s\n" k.key
                (kind_name k.kind) (Knob.render_default k) k.doc)
            i.Policies.Registry.info_knobs;
          print_newline ())
        infos
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:
         "List registered scheduling policies with their declared knobs \
          (spec-string parameters), e.g. $(b,shinjuku?timeslice=30us)")
    Term.(const run $ json_arg)

(* --- topo (machine-preset discovery) --------------------------------------- *)

let topo_cmd =
  let presets =
    [
      Hw.Machines.skylake_2s; Hw.Machines.haswell_2s; Hw.Machines.xeon_e5_1s;
      Hw.Machines.rome_2s; Hw.Machines.hybrid_1s;
    ]
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"machine-readable output (one JSON object)")
  in
  let machine_arg =
    Arg.(
      value
      & pos 0
          (some
             (enum (List.map (fun (m : Hw.Machines.t) -> (m.name, m)) presets)))
          None
      & info [] ~docv:"MACHINE"
          ~doc:"only this preset (default: all presets)")
  in
  let cpus_arg =
    Arg.(value & flag & info [ "cpus" ] ~doc:"also list every logical CPU")
  in
  let class_row topo costs k =
    ( k,
      Hw.Costs.class_speed_of costs k,
      Hw.Costs.class_switch_scale_of costs k,
      List.length
        (List.filter
           (fun c -> c = k)
           (Array.to_list (Hw.Topology.core_classes topo))) )
  in
  let run json machine cpus =
    let picked = match machine with None -> presets | Some m -> [ m ] in
    let machine_json (m : Hw.Machines.t) =
      let topo = m.Hw.Machines.topo and costs = m.Hw.Machines.costs in
      let classes =
        List.init (Hw.Topology.num_classes topo) (class_row topo costs)
      in
      ( m.Hw.Machines.name,
        Obs.Json.Obj
          ([
             ("sockets", Obs.Json.Num (float_of_int (Hw.Topology.sockets topo)));
             ("ccx", Obs.Json.Num (float_of_int (Hw.Topology.num_ccx topo)));
             ("cores", Obs.Json.Num (float_of_int (Hw.Topology.num_cores topo)));
             ("cpus", Obs.Json.Num (float_of_int (Hw.Topology.num_cpus topo)));
             ("smt", Obs.Json.Num (float_of_int (Hw.Topology.smt topo)));
             ( "uniform",
               Obs.Json.Num (if Hw.Topology.uniform topo then 1.0 else 0.0) );
             ( "migration_class_extra",
               Obs.Json.Num
                 (float_of_int costs.Hw.Costs.migration_class_extra) );
             ( "classes",
               Obs.Json.Arr
                 (List.map
                    (fun (k, speed, scale, ncores) ->
                      Obs.Json.Obj
                        [
                          ("class", Obs.Json.Num (float_of_int k));
                          ("cores", Obs.Json.Num (float_of_int ncores));
                          ("speed", Obs.Json.Num speed);
                          ("switch_scale", Obs.Json.Num scale);
                        ])
                    classes) );
           ]
          @
          if cpus then
            [
              ( "cpu_classes",
                Obs.Json.Arr
                  (List.map
                     (fun c ->
                       Obs.Json.Num
                         (float_of_int (Hw.Topology.class_of topo c)))
                     (Hw.Topology.cpus topo)) );
            ]
          else []) )
    in
    if json then
      print_endline
        (Obs.Json.to_string (Obs.Json.Obj (List.map machine_json picked)))
    else
      List.iter
        (fun (m : Hw.Machines.t) ->
          let topo = m.Hw.Machines.topo and costs = m.Hw.Machines.costs in
          Printf.printf
            "%s  %d socket(s) x %d ccx x %d core(s) x smt %d = %d cpus%s\n"
            m.Hw.Machines.name (Hw.Topology.sockets topo)
            (Hw.Topology.num_ccx topo / Hw.Topology.sockets topo)
            (Hw.Topology.num_cores topo
            / Hw.Topology.num_ccx topo)
            (Hw.Topology.smt topo) (Hw.Topology.num_cpus topo)
            (if Hw.Topology.uniform topo then "" else "  [hybrid]");
          List.iter
            (fun k ->
              let k, speed, scale, ncores = class_row topo costs k in
              Printf.printf
                "  class %d  %2d cores  speed %.2fx  switch x%.2f%s\n" k ncores
                speed scale
                (if k = Hw.Topology.perf_class then "  (P)"
                 else if k = Hw.Topology.efficient_class then "  (E)"
                 else ""))
            (List.init (Hw.Topology.num_classes topo) (fun k -> k));
          if costs.Hw.Costs.migration_class_extra <> 0 then
            Printf.printf "  cross-class migration surcharge %d ns\n"
              costs.Hw.Costs.migration_class_extra;
          if cpus then
            List.iter
              (fun c ->
                Printf.printf
                  "  cpu %3d  core %3d  ccx %2d  socket %d  class %d\n" c
                  (Hw.Topology.core_of topo c)
                  (Hw.Topology.ccx_of topo c)
                  (Hw.Topology.socket_of topo c)
                  (Hw.Topology.class_of topo c))
              (Hw.Topology.cpus topo);
          print_newline ())
        picked
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "List machine presets with their topology and per-class core \
          capabilities (speed, switch scale, migration surcharge); \
          $(b,hybrid-1s) is the P/E preset")
    Term.(const run $ json_arg $ machine_arg $ cpus_arg)

(* --- one subcommand per registered experiment ------------------------------ *)

(* The report, then each predicate of the entry's verdict, as `bench`
   prints them. *)
let experiment_cmd (R.E e) =
  let run seed =
    let r = e.run Full ~seed in
    e.print r;
    List.iter
      (fun c ->
        Printf.printf "verdict %s: %s  %s\n" e.name (R.show_check c)
          (if R.holds c then "ok" else "FAIL"))
      (e.verdict r)
  in
  Cmd.v (Cmd.info e.name ~doc:(e.doc ^ ", at full size")) Term.(const run $ seed_arg)

(* --- faults -------------------------------------------------------------- *)

(* A spec containing '@' is a full plan ("crash@80ms,burst@100ms:n=50000");
   otherwise it names a preset, injected 40% into the run.  Either is
   checked as the flag is parsed, so a bad one is a usage error. *)
let plan_conv =
  let parse spec =
    if String.contains spec '@' then
      match Faults.Plan.parse spec with
      | Ok p -> Ok (fun ~horizon_ns:_ -> p)
      | Error e -> Error (`Msg (Printf.sprintf "bad plan %S: %s" spec e))
    else if List.mem spec Faults.Plan.preset_names then
      Ok
        (fun ~horizon_ns ->
          Option.get (Faults.Plan.preset spec ~at:(horizon_ns * 2 / 5)))
    else
      Error
        (`Msg
          (Printf.sprintf "unknown preset %S (one of: %s, or an explicit plan)"
             spec
             (String.concat ", " Faults.Plan.preset_names)))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<plan>")

let faults_cmd =
  let exp =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("upgrade", `Upgrade); ("resilience", `Resilience);
                  ("fig6", `Fig6) ]))
          None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "harness to inject into: $(b,upgrade) (Fig. 9-style windowed p99 \
             around the fault), $(b,resilience) (finite jobs; do they all \
             complete?), $(b,fig6) (ghOSt-Shinjuku sweep point + recovery \
             report)")
  in
  let plan =
    Arg.(
      value
      & opt (some plan_conv) None
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "fault plan: a preset ($(b,crash), $(b,upgrade), $(b,stuck), \
             $(b,slow), $(b,burst), $(b,none)) or an explicit schedule like \
             upgrade@120ms:gap=100us or crash@80ms,burst@60ms:n=50000; \
             events separated by commas, times suffixed ns/us/ms/s")
  in
  let scenario =
    Arg.(
      value
      & opt (enum [ ("crash", Experiments.Resilience.Crash);
                    ("stuck", Experiments.Resilience.Stuck) ])
          Experiments.Resilience.Crash
      & info [ "scenario" ] ~doc:"resilience default plan: crash or stuck")
  in
  let run exp plan scenario duration seed =
    match exp with
    | `Upgrade -> (
      let measure_ns = ms duration in
      let plan = Option.map (fun p -> p ~horizon_ns:(ms 50 + measure_ns)) plan in
      (* A plan whose first event misses the measured window is refused
         before anything is simulated. *)
      match Experiments.Upgrade.run ~measure_ns ~seed ?plan () with
      | r -> Experiments.Upgrade.print r
      | exception Invalid_argument e -> usage_error e)
    | `Resilience ->
      let plan = Option.map (fun p -> p ~horizon_ns:(ms 100)) plan in
      Experiments.Resilience.print
        (Experiments.Resilience.run ~scenario ~seed ?plan ())
    | `Fig6 ->
      let measure_ns = ms duration in
      let horizon_ns = ms 200 + measure_ns in
      let plan =
        match plan with
        | Some p -> p ~horizon_ns
        | None -> Option.get (Faults.Plan.preset "upgrade" ~at:(horizon_ns * 2 / 5))
      in
      let point, report =
        Experiments.Fig6.run_ghost_faulted ~measure_ns ~seed ~plan
      in
      Experiments.Fig6.print ~title:"Fig. 6 point under faults" [ point ];
      Faults.Report.print report
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Inject a deterministic fault plan (agent crash, in-place upgrade, \
          stuck agent, slow commits, message burst) into a serving experiment \
          and print the recovery report (§3.4)")
    Term.(
      const run $ exp $ plan $ scenario
      $ duration_arg ~default:300 ~doc:"measured window (ms)"
      $ seed_arg)

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let exp =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (R.E e as x) -> (e.name, x)) R.all))) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf "registered experiment to trace at its short size: %s"
               (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") R.names))))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"output file (default $(docv) = EXPERIMENT.trace.json)")
  in
  let sample =
    Arg.(
      value & opt positive_int 1
      & info [ "sample" ] ~docv:"N"
          ~doc:
            "keep 1 in $(docv) spans per span name (deterministic for a \
             fixed seed); instants and scheduling state are always kept")
  in
  let ring_capacity =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "ring-capacity" ] ~docv:"WORDS"
          ~doc:
            "trace ring size in words; when full the ring drops oldest \
             records (surfaced as obs.ring_dropped)")
  in
  let run (R.E e) out seed sample ring_capacity =
    let path = Option.value out ~default:(e.name ^ ".trace.json") in
    check_writable path;
    Obs.Metrics.reset ();
    let sink = Obs.Sink.create ?capacity:ring_capacity ~sample ~seed () in
    Obs.Sink.install sink;
    Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
        ignore (e.run Short ~seed));
    (* An entry that simulates nothing (table2 counts source lines) leaves
       the sink empty: say so rather than write a trace of no events. *)
    if Obs.Sink.recorded sink = 0 then
      usage_error
        (Printf.sprintf "trace %s: the run recorded no events; %s not written"
           e.name path);
    (* The knobs that shaped the trace travel with it, so the file still
       says how it was recorded. *)
    let num n = Obs.Json.Str (string_of_int n) in
    Obs.Perfetto.write_file sink ~path
      ~meta:
        [
          ("experiment", Obs.Json.Str e.name);
          ("seed", num seed);
          ("sample", num sample);
          ("ring_capacity", num (Obs.Sink.capacity sink));
          ("ring_recorded", num (Obs.Sink.recorded sink));
          ("ring_dropped", num (Obs.Sink.dropped sink));
        ];
    Printf.printf "%s: %d events over %.3f ms of sim time\n" path
      (Obs.Sink.length sink)
      (float_of_int (Obs.Sink.last_time sink) /. 1e6);
    Printf.printf "open in https://ui.perfetto.dev (Open trace file)\n\n";
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Counter n -> Printf.printf "  %-28s %d\n" name n
        | Obs.Metrics.Gauge n -> Printf.printf "  %-28s %d (gauge)\n" name n
        | Obs.Metrics.Histogram h ->
          Printf.printf "  %-28s n=%d p50=%dns p99=%dns max=%dns\n" name
            h.Obs.Metrics.count h.Obs.Metrics.p50 h.Obs.Metrics.p99
            h.Obs.Metrics.max)
      (Obs.Metrics.snapshot ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a registered experiment at its short size with span tracing \
          enabled and export a Perfetto/Chrome trace_event JSON file")
    Term.(const run $ exp $ out $ seed_arg $ sample $ ring_capacity)

(* --- cluster (fleet-scale simulation) ------------------------------------ *)

let cluster_cmd =
  let machines_arg =
    Arg.(
      value & opt positive_int 2
      & info [ "machines" ] ~docv:"N" ~doc:"fleet size (default 2)")
  in
  (* A spec the registry rejects (unknown name or knob, a negative or
     non-finite time) is a usage error, not an uncaught exception. *)
  let spec =
    let parse s =
      match Policies.Registry.make s with
      | _ -> Ok s
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let policy_arg =
    Arg.(
      value & opt spec "shinjuku"
      & info [ "policy" ] ~docv:"SPEC"
          ~doc:
            "policy spec for every machine's serving enclave (registry \
             syntax, e.g. $(b,shinjuku?timeslice=10us); see \
             $(b,ghost_bench_cli policies) for names and knobs)")
  in
  let rate_arg =
    Arg.(
      value & opt rate_conv 40_000.0
      & info [ "rate" ] ~docv:"R" ~doc:"fleet-wide offered load (req/s)")
  in
  let routing_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("static", Cluster.Balancer.Round_robin);
               ("weighted", Cluster.Balancer.Weighted);
             ])
          Cluster.Balancer.Weighted
      & info [ "routing" ]
          ~doc:"$(b,static) round-robin or $(b,weighted) (fleet controller)")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "export a Perfetto trace of the whole fleet; each machine \
             renders as its own process group (m0/, m1/, ...)")
  in
  let run n policy rate routing trace duration seed =
    Option.iter check_writable trace;
    let scenarios =
      Array.init n (fun i ->
          Scenario.make ~seed:(seed + i) ~warmup_ns:(ms 10)
            ~measure_ns:(ms duration) ~cooldown_ns:(ms 10)
            ~machine:Hw.Machines.xeon_e5_1s
            ~enclaves:
              [
                Scenario.enclave ~policy
                  ~cpus:(List.init 8 (fun c -> c))
                  ~workloads:[] "serve";
              ]
            (Printf.sprintf "m%d" i))
    in
    let c =
      Cluster.make ~machines:scenarios
        ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 32 }
        ~arrivals:
          {
            Cluster.aseed = seed * 7919;
            rate;
            service = Sim.Dist.Exponential 100_000.0;
          }
        ~routing
        (Printf.sprintf "cli-%dx-%s" n policy)
    in
    let sink =
      Option.map
        (fun _ ->
          let s = Obs.Sink.create ~seed () in
          Obs.Sink.install s;
          s)
        trace
    in
    let report =
      Fun.protect
        ~finally:(fun () -> if sink <> None then Obs.Sink.uninstall ())
        (fun () -> Cluster.run c)
    in
    print_string (Cluster.to_string report);
    match (trace, sink) with
    | Some path, Some s ->
      Obs.Perfetto.write_file s ~path
        ~meta:
          [
            ("experiment", Obs.Json.Str "cluster");
            ("machines", Obs.Json.Str (string_of_int n));
            ("policy", Obs.Json.Str policy);
            ("seed", Obs.Json.Str (string_of_int seed));
          ];
      Printf.printf "%s: %d events over %.3f ms of sim time\n" path
        (Obs.Sink.length s)
        (float_of_int (Obs.Sink.last_time s) /. 1e6);
      Printf.printf "open in https://ui.perfetto.dev (Open trace file)\n"
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Fleet-scale simulation: N machines on per-machine event lanes \
          behind a load balancer, with queue-depth gossip and the fleet \
          controller when $(b,--routing weighted)")
    Term.(
      const run $ machines_arg $ policy_arg $ rate_arg $ routing_arg
      $ trace_arg
      $ duration_arg ~default:50 ~doc:"measurement window (ms)"
      $ seed_arg)

let main_cmd =
  let doc = "reproduce the ghOSt paper's evaluation (SOSP '21)" in
  Cmd.group
    (Cmd.info "ghost_bench_cli" ~version:"1.0" ~doc)
    ([ policies_cmd; topo_cmd ]
    @ List.map experiment_cmd R.all
    @ [ faults_cmd; trace_cmd; cluster_cmd ])

let () = exit (Cmd.eval main_cmd)
