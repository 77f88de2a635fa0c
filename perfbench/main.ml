(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload's fixed simulated run twice (the second
   must reproduce the first exactly) for the simulated-clock results, then
   spends the rest of S host seconds on short timing runs for the
   host-clock ones, and reports the end-to-end metrics.  --trace 1 runs the
   workload in four instrumented phases and reports the per-layer metrics
   instead.  The last line of standard output is one JSON object; the exit
   code is nonzero when an output check fails. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME one of the workloads below");
    ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
    ("--seconds", Arg.Set_int seconds, "S host seconds to measure (default 10)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced run");
  ]

let usage () =
  Printf.sprintf "main.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1]"
    (String.concat "|" (List.map (fun (w : Suite.t) -> w.name) Suite.all))

(* --- Checks ------------------------------------------------------------------ *)

let failures = ref []
let check ok msg = if not ok then failures := msg :: !failures

(* The simulated-clock results two runs of one seed must share exactly. *)
let sim_key (r : Suite.rep) =
  (r.offered, r.completed, r.p50_ns, r.p99_ns, Int64.bits_of_float r.goodput_qps)

let check_rep ~what (r : Suite.rep) =
  check (r.offered = r.expected_offered)
    (Printf.sprintf "%s: %d requests offered, the seed determines %d" what
       r.offered r.expected_offered);
  check (r.completed <= r.window_offered)
    (Printf.sprintf "%s: %d completions of %d window arrivals" what r.completed
       r.window_offered);
  check (Quant.percentile_ok ~count:r.completed 99.0)
    (Printf.sprintf "%s: p99 has fewer than %d samples beyond it (n=%d)" what
       Quant.min_beyond r.completed)

let check_same ~what (a : Suite.rep) (b : Suite.rep) =
  check (sim_key a = sim_key b)
    (Printf.sprintf "%s: simulated-clock results differ from the reference run" what)

(* --- Output ------------------------------------------------------------------ *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~specs ~attempted ~failed values =
  let correct = !failures = [] in
  List.iter (fun msg -> Printf.printf "CHECK FAILED: %s\n" msg) (List.rev !failures);
  let metric (s : Spec.metric) =
    let v =
      match List.assoc_opt s.name values with
      | Some v -> v
      | None -> failwith ("metric not computed: " ^ s.name)
    in
    Printf.printf "%-32s %14s %s\n" s.name (number v) s.unit_;
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (number v) s.unit_
  in
  let fields = List.map metric specs in
  let failed = if correct then failed else attempted in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields);
  exit (if correct then 0 else 1)

(* --- End-to-end run ---------------------------------------------------------- *)

(* Set-up time: single constructions, each after a full major collection
   so that every one starts from the same heap state, one before each
   timing run. *)
let time_setup (w : Suite.t) ~seed =
  Gc.full_major ();
  let t0 = Suite.now_s () in
  w.setup ~seed;
  Suite.now_s () -. t0

(* Every timing run simulates the same events, so each window slice is
   charged its fastest host time across runs.  Host noise on a shared
   machine only ever adds time and comes in bursts of seconds, which a
   slice's many runs, spread over the whole measurement, mostly miss. *)
let fastest (runs : float array list) =
  let runs = Array.of_list runs in
  Array.init (Array.length runs.(0)) (fun i ->
      Array.fold_left (fun acc r -> Float.min acc r.(i)) infinity runs)

let sum = Array.fold_left ( +. ) 0.0

let min_speed_runs = 5

let end_to_end (w : Suite.t) ~seed ~seconds =
  let deadline = Suite.now_s () +. float_of_int seconds in
  (* Two full runs: the simulated-clock results, and the same-seed rerun
     that must reproduce them byte for byte. *)
  let reps = [ w.run ~seed ~policy:w.policy Suite.no_hooks;
               w.run ~seed ~policy:w.policy Suite.no_hooks ] in
  ignore (time_setup w ~seed);
  let runs = ref [] in
  while List.length !runs < min_speed_runs || Suite.now_s () < deadline do
    let setup = time_setup w ~seed in
    Gc.full_major ();
    runs := (setup, w.speed ~seed) :: !runs
  done;
  let best = fastest (List.map snd !runs) in
  (* A burst of noise slows a construction as much as the timing run that
     follows it: each construction is scaled by that run's slowdown over
     the fastest slices, and the median of the scaled times is reported. *)
  let setups =
    List.map (fun (setup, segs) -> setup *. sum best /. sum segs) !runs
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let r0 = List.hd reps in
  List.iteri
    (fun i (r : Suite.rep) ->
      let what = Printf.sprintf "rep %d" i in
      check_rep ~what r;
      check (r.digest = r0.digest)
        (Printf.sprintf "%s: report digest %s differs from rep 0's %s" what
           r.digest r0.digest))
    reps;
  Printf.printf "%s seed=%d timing runs=%d digest=%s\n" w.name seed
    (List.length !runs) r0.digest;
  Printf.printf "setup: median %.6g s unscaled, %.6g s scaled\n"
    (Quant.median (List.map fst !runs)) (Quant.median setups);
  Printf.printf
    "open loop: generator lateness 0 by construction; p99 over n=%d samples; \
     sim_incomplete_frac=%.6g\n"
    r0.completed
    (float_of_int (r0.window_offered - r0.completed) /. float_of_int r0.window_offered);
  let total f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  emit ~specs:Spec.end_to_end
    ~attempted:(total (fun r -> r.window_offered))
    ~failed:(total (fun r -> r.window_offered - r.completed))
    [
      ("sim_s_per_host_s",
        float_of_int (Array.length best * Suite.segment_ns) *. 1e-9 /. sum best);
      ("setup_s", Quant.median setups);
      ("peak_heap_mb", peak_heap_mb);
      ("sim_p50_us", float_of_int r0.p50_ns /. 1e3);
      ("sim_p99_us", float_of_int r0.p99_ns /. 1e3);
      ("sim_goodput_kqps", r0.goodput_qps /. 1e3);
    ]

(* --- Traced run -------------------------------------------------------------- *)

(* Host nanoseconds spent inside policy callbacks, via a timed copy of the
   registry policy that only the traced run instantiates. *)
let policy_ns = ref 0L

let timed f =
  let t0 = Monotonic_clock.now () in
  Fun.protect f ~finally:(fun () ->
      policy_ns := Int64.add !policy_ns (Int64.sub (Monotonic_clock.now ()) t0))

let register_timed spec =
  let base, _ = Policies.Ghost_policy.parse_spec spec in
  let name = "perfbench-timed-" ^ base in
  let info = Policies.Registry.info base in
  Policies.Registry.register ~name ~mode:info.info_mode
    ~doc:("host-timed copy of " ^ spec) (fun _params ->
      let inst = Policies.Registry.make spec in
      let p = inst.policy in
      ( {
          p with
          Ghost.Agent.schedule = (fun abi msgs -> timed (fun () -> p.schedule abi msgs));
          on_result = (fun abi txn -> timed (fun () -> p.on_result abi txn));
        },
        inst.stats ));
  name

let hist snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Histogram h) -> h
  | _ -> { Obs.Metrics.count = 0; sum = 0; mean = 0.0; p50 = 0; p90 = 0; p99 = 0; max = 0 }

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter c) -> c
  | _ -> 0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Host time of the Scenario layer's own calls on the workload's machines:
   [start] builds one, [finish] turns its (here empty) recorders into a
   report.  Medians over a few repetitions. *)
let scenario_calls (w : Suite.t) ~seed =
  let time f =
    let t0 = Suite.now_s () in
    let x = f () in
    (x, Suite.now_s () -. t0)
  in
  let one () =
    let started, start_s = time (fun () -> List.map Scenario.start (w.scenarios ~seed)) in
    let _, finish_s = time (fun () -> List.map Scenario.finish started) in
    (start_s, finish_s)
  in
  let runs = List.init 5 (fun _ -> one ()) in
  (Quant.median (List.map fst runs), Quant.median (List.map snd runs))

let traced (w : Suite.t) ~seed ~seconds =
  let deadline = Suite.now_s () +. float_of_int seconds in
  let run ?(policy = w.policy) hooks = w.run ~seed ~policy hooks in
  (* A: the untraced reference, twice; the second has a warm heap. *)
  let a0 = run Suite.no_hooks in
  let a = run Suite.no_hooks in
  check_rep ~what:"reference" a;
  check (a.digest = a0.digest) "reference: same-seed rerun changed the report digest";
  (* B: stack samples over the measure window, sink off. *)
  let sampled = ref [] in
  let sampler = { Suite.window_start = Sampler.start; window_end = Sampler.stop } in
  while !sampled = [] || Suite.now_s () < deadline do
    sampled := run sampler :: !sampled
  done;
  List.iter (check_same ~what:"sampled run" a) !sampled;
  (* C: the Obs sink, installed after warmup. *)
  let sink = Obs.Sink.create () in
  let snap = ref [] and dropped = ref 0 in
  let c =
    run
      {
        window_start = (fun () -> Obs.Sink.install sink; Obs.Metrics.reset ());
        window_end =
          (fun () ->
            snap := Obs.Metrics.snapshot ();
            dropped := Obs.Sink.dropped sink;
            Obs.Sink.uninstall ());
      }
  in
  check_same ~what:"sink-on run" a c;
  (* D: the timed copy of the policy. *)
  let ns0 = ref 0L and ns1 = ref 0L in
  let d =
    run ~policy:(register_timed w.policy)
      {
        window_start = (fun () -> ns0 := !policy_ns);
        window_end = (fun () -> ns1 := !policy_ns);
      }
  in
  check_same ~what:"timed-policy run" a d;
  let start_s, finish_s = scenario_calls w ~seed in
  let snap = !snap in
  let win_ms = float_of_int (Suite.window_sim_ns a) /. 1e6 in
  let per_ms x = float_of_int x /. win_ms in
  let ctx, ipis, wakeups, resched =
    match a.kstats with
    | Some (c, i, w, r) -> (per_ms c, per_ms i, per_ms w, per_ms r)
    | None ->
      (* Cluster.run keeps its kernels; these two counts come from the sink,
         which counts at the same sites over the same window. *)
      (per_ms (counter snap "sched.dispatches"), 0.0,
       per_ms (counter snap "sched.wakeups"), 0.0)
  in
  let us ns = float_of_int ns /. 1e3 in
  let wd = hist snap "sched.wakeup_to_dispatch_ns" in
  let committed = counter snap "txn.committed" and failed = counter snap "txn.failed" in
  let picks = counter snap "bpf.picks" and misses = counter snap "bpf.misses" in
  let f = float_of_int in
  let shares =
    List.map (fun l -> (l ^ ".self_share", Sampler.share l)) (Layer.other :: Layer.names)
  in
  let all = a0 :: a :: c :: d :: !sampled in
  let total f = List.fold_left (fun acc (r : Suite.rep) -> acc + f r) 0 all in
  Printf.printf "%s seed=%d traced: %d sampled runs, %d samples\n" w.name seed
    (List.length !sampled) !Sampler.total;
  emit ~specs:Spec.per_layer
    ~attempted:(total (fun r -> r.window_offered))
    ~failed:(total (fun r -> r.window_offered - r.completed))
    (shares
    @ [
        ("sim.events", f a.events);
        ("sim.events_per_host_s", f a.events /. a.sim_host_s);
        ("kernel.ctx_switches", ctx);
        ("kernel.ipis", ipis);
        ("kernel.wakeups", wakeups);
        ("kernel.reschedules", resched);
        ("kernel.wd_p50_us", us wd.p50);
        ("kernel.wd_p99_us", us wd.p99);
        ("core.msgs_produced", f (counter snap "msg.produced"));
        ("core.msg_queue_delay_p99_us", us (hist snap "msg.queue_delay_ns").p99);
        ("core.txn_committed", f committed);
        ("core.txn_failed", f failed);
        ("core.txn_fail_frac", ratio (f failed) (f (committed + failed)));
        ("core.txn_commit_p99_us", us (hist snap "txn.commit_latency_ns").p99);
        ("policies.passes", f a.passes);
        ("policies.host_ns_per_pass",
          ratio (Int64.to_float (Int64.sub !ns1 !ns0)) (f d.passes));
        ("policies.pass_p99_us", us (hist snap "agent.pass_ns").p99);
        ("bpf.picks", f picks);
        ("bpf.misses", f misses);
        ("bpf.fallbacks", f (counter snap "bpf.fallbacks"));
        ("bpf.misses_per_pick", ratio (f misses) (f picks));
        ("workloads.offered", f a.window_offered);
        ("workloads.completed", f a.completed);
        ("workloads.incomplete_frac",
          ratio (f (a.window_offered - a.completed)) (f a.window_offered));
        ("obs.trace_overhead", Suite.window_host_s c /. Suite.window_host_s a);
        ("obs.ring_dropped", f !dropped);
        ("cluster.events", f a.cluster_events);
        ("cluster.rebalances", f a.rebalances);
        ("scenario.start_s", start_s);
        ("scenario.finish_s", finish_s);
        ("gc.minor_words_per_event", a.minor_words /. f a.events);
        ("gc.promoted_words_per_event", a.promoted_words /. f a.events);
        ("gc.major_collections", f a.major_collections);
        ("sampler.samples", f !Sampler.total);
      ])

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) (usage ());
  match Suite.find !workload with
  | None ->
    prerr_endline (usage ());
    exit 2
  | Some w ->
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline (usage ());
      exit 2
    end;
    if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds
    else end_to_end w ~seed:!seed ~seconds:!seconds
