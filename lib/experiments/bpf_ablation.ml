module System = Ghost.System
module Agent = Ghost.Agent

type row = {
  label : string;
  offered : int;
  completed : int;
  wd_count : int;
  wd_p50_us : float;
  wd_p99_us : float;
  sojourn_p99_us : float;
  sojourn_mean_us : float;
  throughput_kqps : float;
  bpf_picks : int;
  bpf_misses : int;
  bpf_fallbacks : int;
  minor_words : float;
}

let wd_hist () =
  match
    List.assoc_opt "sched.wakeup_to_dispatch_ns" (Obs.Metrics.snapshot ())
  with
  | Some (Obs.Metrics.Histogram h) -> h
  | Some _ | None ->
    { Obs.Metrics.count = 0; sum = 0; mean = 0.0; p50 = 0; p90 = 0; p99 = 0; max = 0 }

let run_one ~seed ~fastpath ~duration_ns =
  let machine = Hw.Machines.xeon_e5_1s in
  let kernel, sys = Common.make_system ~seed machine in
  (* A small enclave (agent + 4 worker CPUs) driven near saturation: the
     FIFO usually holds waiting threads, so whether a freshly idle CPU can
     serve one immediately (BPF pick) or must wait for the agent's next
     pass is exactly what wakeup→dispatch shows. *)
  let e =
    System.create_enclave sys ~cpus:(Common.mask_of kernel [ 0; 1; 2; 3; 4 ]) ()
  in
  let _st, pol = Policies.Shinjuku.policy ~fastpath ~is_batch:(fun _ -> false) () in
  (* A slow agent loop makes the scheduling gaps visible (§5's 30 us global
     loop on the big Search machine). *)
  let _g = Agent.attach_global sys e ~min_iteration:10_000 ~idle_gap:25_000 pol in
  let spawn ~idx behavior =
    Common.spawn_ghost kernel e ~name:(Printf.sprintf "w%d" idx) behavior
  in
  let warmup = Sim.Units.ms 100 in
  let ol =
    Workloads.Openloop.create kernel ~seed:5 ~rate:330_000.0
      ~service:(Sim.Dist.Const 10_000.0) ~nworkers:64 ~spawn
  in
  Workloads.Openloop.set_record_after ol warmup;
  Workloads.Openloop.start ol ~until:(warmup + duration_ns);
  (* Warm up first, then attach the sink: wakeup→dispatch chains only open
     while a sink is installed, and recording is passive (no simulated
     cost), so the offered traffic stays bit-identical across configs. *)
  Kernel.run_until kernel warmup;
  let stats = System.stats sys in
  let picks0 = stats.System.bpf_picks in
  let misses0 = stats.System.bpf_misses in
  let fallbacks0 = stats.System.bpf_fallbacks in
  let sink = Obs.Sink.create () in
  Obs.Sink.install sink;
  Obs.Metrics.reset ();
  let words0 = Gc.minor_words () in
  Kernel.run_until kernel (warmup + duration_ns + Sim.Units.ms 10);
  let minor_words = Gc.minor_words () -. words0 in
  let wd = wd_hist () in
  Obs.Sink.uninstall ();
  let rec_ = Workloads.Openloop.recorder ol in
  {
    label = (if fastpath then "shinjuku + BPF fastpath" else "shinjuku (agent only)");
    offered = Workloads.Openloop.offered ol;
    completed = Workloads.Recorder.completed rec_;
    wd_count = wd.Obs.Metrics.count;
    wd_p50_us = float_of_int wd.Obs.Metrics.p50 /. 1e3;
    wd_p99_us = float_of_int wd.Obs.Metrics.p99 /. 1e3;
    sojourn_p99_us = float_of_int (Workloads.Recorder.p rec_ 99.0) /. 1e3;
    sojourn_mean_us = Workloads.Recorder.mean rec_ /. 1e3;
    throughput_kqps =
      Workloads.Recorder.throughput rec_ ~duration:duration_ns /. 1e3;
    bpf_picks = stats.System.bpf_picks - picks0;
    bpf_misses = stats.System.bpf_misses - misses0;
    bpf_fallbacks = stats.System.bpf_fallbacks - fallbacks0;
    minor_words;
  }

let run ~duration_ns ~seed =
  [
    run_one ~seed ~fastpath:false ~duration_ns;
    run_one ~seed ~fastpath:true ~duration_ns;
  ]

(* The no-program control: the exact configuration (and numbers) the engine
   produced before the fastpath tier existed.  Tier 1 pins its digest, so
   an enclave with no installed program stays byte-identical to the
   pre-BPF engine. *)

type identity = {
  id_completed : int;
  id_p50_ns : int;
  id_p99_ns : int;
  id_mean_ns : float;
  id_commits : int;
  id_msgs : int;
  id_ctx_switches : int;
}

let run_identity () =
  let machine = Hw.Machines.xeon_e5_1s in
  let kernel, sys = Common.make_system ~seed:42 machine in
  let e =
    System.create_enclave sys ~cpus:(Common.mask_of kernel [ 0; 1; 2; 3; 4 ]) ()
  in
  let _st, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e ~min_iteration:10_000 ~idle_gap:25_000 pol in
  let spawn ~idx behavior =
    Common.spawn_ghost kernel e ~name:(Printf.sprintf "w%d" idx) behavior
  in
  let warmup = Sim.Units.ms 100 in
  let duration = Sim.Units.ms 150 in
  let ol =
    Workloads.Openloop.create kernel ~seed:5 ~rate:330_000.0
      ~service:(Sim.Dist.Const 10_000.0) ~nworkers:64 ~spawn
  in
  Workloads.Openloop.set_record_after ol warmup;
  Workloads.Openloop.start ol ~until:(warmup + duration);
  Kernel.run_until kernel (warmup + duration + Sim.Units.ms 10);
  let rec_ = Workloads.Openloop.recorder ol in
  let sstats = System.stats sys in
  let kstats = Kernel.stats kernel in
  {
    id_completed = Workloads.Recorder.completed rec_;
    id_p50_ns = Workloads.Recorder.p rec_ 50.0;
    id_p99_ns = Workloads.Recorder.p rec_ 99.0;
    id_mean_ns = Workloads.Recorder.mean rec_;
    id_commits = sstats.System.commits;
    id_msgs = sstats.System.msgs_posted;
    id_ctx_switches = kstats.Kernel.ctx_switches;
  }

let print rows =
  Gstats.Table.print_title
    "BPF fastpath ablation: wakeup-to-dispatch at high load (10 us requests)";
  Gstats.Table.print
    ~header:
      [
        "config"; "offered"; "wd p50 us"; "wd p99 us"; "sojourn p99 us"; "kq/s";
        "picks"; "misses"; "fallbacks";
      ]
    (List.map
       (fun r ->
         [
           r.label;
           string_of_int r.offered;
           Printf.sprintf "%.1f" r.wd_p50_us;
           Printf.sprintf "%.1f" r.wd_p99_us;
           Printf.sprintf "%.1f" r.sojourn_p99_us;
           Printf.sprintf "%.0f" r.throughput_kqps;
           string_of_int r.bpf_picks;
           string_of_int r.bpf_misses;
           string_of_int r.bpf_fallbacks;
         ])
       rows)
