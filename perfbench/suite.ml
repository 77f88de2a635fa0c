(* The three benchmark workloads, each run as a fixed stretch of simulated
   time so that every simulated-clock result is a pure function of the
   seed.  The benchmark's --seed reaches only the workload seeds (the
   open-loop [wseed], the fleet's [aseed]); machine seeds stay fixed.

   All arrivals are open loop in simulated time: the seeded arrival process
   emits requests on its schedule whatever the backlog, and each request is
   timed from its scheduled arrival, so the generator is never late. *)

let ms = Sim.Units.ms

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The measure window is timed in slices of this much simulated time, so a
   burst of host noise can be told apart from the simulation's own cost. *)
let segment_ns = ms 1

(* One run of a workload: simulated-clock results, the digest of its full
   report, and what the host spent on it. *)
type rep = {
  digest : string;
  offered : int;  (* requests the run offered (fleet: served and recorded) *)
  expected_offered : int;  (* the same count, recomputed from the seed alone *)
  window_offered : int;  (* seed-determined arrivals inside the measure window *)
  completed : int;  (* window arrivals completed by the end of cooldown *)
  p50_ns : int;
  p99_ns : int;
  goodput_qps : float;
  segments : float array;
      (* host seconds of each [segment_ns] slice of the measure window *)
  sim_host_s : float;  (* host time of all simulation calls of the run *)
  events : int;  (* events fired over the whole run *)
  minor_words : float;  (* allocation over the simulation calls *)
  promoted_words : float;
  major_collections : int;
  kstats : (int * int * int * int) option;
      (* measure-window deltas of ctx switches, IPIs, wakeups, reschedules *)
  passes : int;  (* agent scheduling passes in the measure window *)
  cluster_events : int;
  rebalances : int;
}

(* Callbacks the traced runs use to bracket the measure window (install a
   sink, start the sampler); they run outside the window's host timing. *)
type hooks = { window_start : unit -> unit; window_end : unit -> unit }

let no_hooks = { window_start = ignore; window_end = ignore }

type t = {
  name : string;
  policy : string;  (* registry spec of the serving enclave *)
  run : seed:int -> policy:string -> hooks -> rep;
  speed : seed:int -> float array;
      (* host seconds of each window slice of a short run, timed only *)
  setup : seed:int -> unit;  (* build everything, advance no simulated time *)
  scenarios : seed:int -> Scenario.t list;  (* the machines [setup] starts *)
}

(* --- Arrival counts the seed determines ------------------------------------- *)

(* Replays {!Workloads.Openloop}'s draw sequence (first gap, then per
   arrival: service, next gap) without simulating anything. *)
let openloop_arrivals ~wseed ~rate ~service ~warmup ~horizon =
  let rng = Sim.Rng.create wseed in
  let gap () =
    max 1 (int_of_float (Sim.Rng.exponential rng ~mean:(1e9 /. rate)))
  in
  let rec go t total window =
    if t >= horizon then (total, window)
    else begin
      ignore (Sim.Dist.sample_ns rng service);
      go (t + gap ()) (total + 1) (if t >= warmup then window + 1 else window)
    end
  in
  go (gap ()) 0 0

(* Replays the cluster's arrival stream; returns the window arrivals. *)
let fleet_arrivals ~aseed ~rate ~warmup ~horizon =
  let rng = Sim.Rng.stream (Sim.Rng.create aseed) ~label:"cluster.arrival" in
  let gap = Sim.Dist.Exponential (1e9 /. rate) in
  let rec go t window =
    if t >= horizon then window
    else
      go (t + Sim.Dist.sample_ns rng gap) (if t >= warmup then window + 1 else window)
  in
  go (Sim.Dist.sample_ns rng gap) 0

(* --- Single-machine workloads --------------------------------------------- *)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, s.Gc.major_collections)

let kernel_counts k =
  let s = Kernel.stats k in
  Kernel.(s.ctx_switches, s.ipis, s.wakeups, s.reschedules)

let report_text (r : Scenario.report) =
  let b = Buffer.create 512 in
  List.iter
    (fun (e : Scenario.enclave_report) ->
      let opt f = function None -> "-" | Some x -> f x in
      Printf.bprintf b "%s %s offered=%s achieved=%s batch=%s jobs=%d/%d\n"
        e.ename e.policy
        (opt (Printf.sprintf "%h") e.offered_qps)
        (opt (Printf.sprintf "%h") e.achieved_qps)
        (opt (Printf.sprintf "%h") e.batch_share)
        e.jobs_completed e.jobs_total;
      Option.iter
        (fun (l : Scenario.latency) ->
          Printf.bprintf b "lat %d %d %d %d\n" l.p50_ns l.p90_ns l.p99_ns l.p999_ns)
        e.latency;
      List.iter
        (fun (k, v) -> Printf.bprintf b "%s=%d " k v)
        (e.stats_at_measure_start @ e.stats_at_measure_end);
      Buffer.add_char b '\n')
    r.enclaves;
  Buffer.contents b

type openloop = {
  rate : float;
  service : Sim.Dist.t;
  nworkers : int;
  prefix : string;
}

let time_window k (scn : Scenario.t) =
  Array.init (scn.measure_ns / segment_ns) (fun i ->
      let t0 = now_s () in
      Kernel.run_until k (scn.warmup_ns + ((i + 1) * segment_ns));
      now_s () -. t0)

let run_scenario ~(scn : Scenario.t) ~ename ~(ol : openloop) ~wseed hooks =
  let horizon = scn.warmup_ns + scn.measure_ns in
  let st = Scenario.start scn in
  let k = Scenario.kernel_of st in
  let le = Scenario.find (Scenario.live_of st) ename in
  let workload = Option.get (Scenario.openloop le) in
  let group = Scenario.group le in
  let expected_offered, window_offered =
    openloop_arrivals ~wseed ~rate:ol.rate ~service:ol.service
      ~warmup:scn.warmup_ns ~horizon
  in
  (* Exact sojourn times of the window's requests (the recorder keeps only
     log buckets, whose percentiles move in 3% steps). *)
  let sojourns = Quant.samples window_offered and n = ref 0 in
  Workloads.Openloop.set_on_complete workload
    (Some
       (fun ~now ~arrival ->
         if !n < window_offered then sojourns.{!n} <- now - arrival;
         incr n));
  let mw0, pw0, mc0 = gc_words () in
  let s0 = now_s () in
  Kernel.run_until k scn.warmup_ns;
  Scenario.mark_measure_start st;
  hooks.window_start ();
  let (c0, i0, w0, r0), p0 = (kernel_counts k, Ghost.Agent.iterations group) in
  let segments = time_window k scn in
  let (c1, i1, w1, r1), p1 = (kernel_counts k, Ghost.Agent.iterations group) in
  hooks.window_end ();
  Scenario.mark_measure_end st;
  Kernel.run_until k (horizon + scn.cooldown_ns);
  let s1 = now_s () in
  let mw1, pw1, mc1 = gc_words () in
  let report = Scenario.finish st in
  let er = Scenario.enclave_report report ename in
  let n = min !n window_offered in
  Quant.sort sojourns n;
  let recorder = Workloads.Openloop.recorder workload in
  let offered = Workloads.Openloop.offered workload in
  let events = Sim.Engine.events_fired (Kernel.engine k) in
  let c, i, w, r = kernel_counts k in
  {
    digest =
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "%s\noffered=%d completed=%d events=%d k=%d,%d,%d,%d\n"
              (report_text report) offered
              (Workloads.Recorder.completed recorder)
              events c i w r));
    offered;
    expected_offered;
    window_offered;
    completed = Workloads.Recorder.completed recorder;
    p50_ns = Quant.nearest_rank sojourns n 50.0;
    p99_ns = Quant.nearest_rank sojourns n 99.0;
    goodput_qps = Option.get er.achieved_qps;
    segments;
    sim_host_s = s1 -. s0;
    events;
    minor_words = mw1 -. mw0;
    promoted_words = pw1 -. pw0;
    major_collections = mc1 - mc0;
    kstats = Some (c1 - c0, i1 - i0, w1 - w0, r1 - r0);
    passes = p1 - p0;
    cluster_events = 0;
    rebalances = 0;
  }

(* [speed_ns]: the window of the short runs that time the simulator.  The
   full window is long so the simulated tail percentiles are steady across
   seeds; host noise comes in bursts of seconds, so the host clock is read
   over many short runs spread across the whole measurement instead. *)
let single ~name ~policy ~cpus ?min_iteration ?idle_gap ~ol ?(extra = [])
    ~warmup_ns ~measure_ns ~speed_ns ~cooldown_ns () =
  let ename = "serving" in
  let scenario ?(measure_ns = measure_ns) ~seed ~policy () =
    Scenario.make ~seed:42 ~machine:Hw.Machines.xeon_e5_1s ~warmup_ns
      ~measure_ns ~cooldown_ns
      ~enclaves:
        [
          Scenario.enclave ?min_iteration ?idle_gap ~policy ~cpus
            ~workloads:
              (Scenario.Openloop
                 { wseed = seed; rate = ol.rate; service = ol.service;
                   nworkers = ol.nworkers; prefix = ol.prefix }
              :: extra)
            ename;
        ]
      name
  in
  {
    name;
    policy;
    run =
      (fun ~seed ~policy hooks ->
        run_scenario ~scn:(scenario ~seed ~policy ()) ~ename ~ol ~wseed:seed hooks);
    speed =
      (fun ~seed ->
        let scn = scenario ~measure_ns:speed_ns ~seed ~policy () in
        let k = Scenario.kernel_of (Scenario.start scn) in
        Kernel.run_until k warmup_ns;
        time_window k scn);
    setup = (fun ~seed -> ignore (Scenario.start (scenario ~seed ~policy ())));
    scenarios = (fun ~seed -> [ scenario ~seed ~policy () ]);
  }

(* --- The workloads ----------------------------------------------------------- *)

(* Fig. 6b/c: RocksDB bimodal requests (99.5% x 4 us, 0.5% x 10 ms) on a
   21-CPU Shinjuku enclave with one spinning global agent, plus batch
   threads soaking up idle CPU.  200 kq/s rather than the 240 kq/s knee:
   there the slow requests keep ~12 of the 20 worker CPUs busy, bursts
   that fill all 20 sit right at the 1% tail, and p99 swings by half from
   seed to seed. *)
let serve_central =
  single ~name:"serve-central" ~policy:"shinjuku?shenango_ext=true"
    ~cpus:(List.init 21 Fun.id)
    ~ol:
      {
        rate = 200_000.0;
        service =
          Sim.Dist.Bimodal { p_slow = 0.005; fast = 4_000.0; slow = 10_000_000.0 };
        nworkers = 200;
        prefix = "worker";
      }
    ~extra:[ Scenario.Batch { n = 10; prefix = "batch" } ]
    ~warmup_ns:(ms 50) ~measure_ns:(ms 500) ~speed_ns:(ms 100)
    ~cooldown_ns:(ms 30) ()

(* The BPF fastpath ablation's saturating configuration: a slow agent on a
   5-CPU enclave, so idle CPUs pick from the in-kernel program. *)
let bpf_saturate =
  single ~name:"bpf-saturate" ~policy:"shinjuku?fastpath=true"
    ~cpus:[ 0; 1; 2; 3; 4 ] ~min_iteration:10_000 ~idle_gap:25_000
    ~ol:
      { rate = 330_000.0; service = Sim.Dist.Const 10_000.0; nworkers = 64;
        prefix = "w" }
    ~warmup_ns:(ms 20) ~measure_ns:(ms 1000) ~speed_ns:(ms 100)
    ~cooldown_ns:(ms 10) ()

(* --- Fleet ------------------------------------------------------------------- *)

(* 8 machines x 8-CPU per-CPU-agent enclaves, weighted routing at 20%
   load. *)
let fleet_machines = 8
let fleet_rate = 160_000.0
let fleet_service = Sim.Dist.Exponential 80_000.0

(* The cluster runs its machines internally, so the benchmark watches the
   clock through a controller on each machine: machine 0's stamps the host
   clock every [segment_ns] of the window, and each finds its agent group.
   The controller only reads, so results match a controller-less run; its
   ticks add [measure / period] events per machine. *)
let tick_ns = segment_ns

let fleet_percpu_8 =
  let warmup_ns = ms 20 and measure_ns = ms 100 and cooldown_ns = ms 10 in
  let horizon = warmup_ns + measure_ns in
  let build ~seed ~policy ~controller ~warmup_ns ~measure_ns ~cooldown_ns =
    let machines =
      Array.init fleet_machines (fun i ->
          Scenario.make ~seed:(42 + i) ~warmup_ns ~measure_ns ~cooldown_ns
            ?controller:(controller i) ~machine:Hw.Machines.xeon_e5_1s
            ~enclaves:
              [
                Scenario.enclave ~policy ~cpus:(List.init 8 Fun.id)
                  ~workloads:[] "serve";
              ]
            (Printf.sprintf "fleet-m%d" i))
    in
    Cluster.make ~machines
      ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 32 }
      ~arrivals:{ Cluster.aseed = seed; rate = fleet_rate; service = fleet_service }
      ~routing:Cluster.Balancer.Weighted "fleet-percpu-8"
  in
  let run ~seed ~policy hooks =
    let groups = Array.make fleet_machines None in
    let passes () =
      Array.fold_left
        (fun acc g -> acc + Option.fold ~none:0 ~some:Ghost.Agent.iterations g)
        0 groups
    in
    let stamps = ref [] and p0 = ref 0 and p1 = ref 0 in
    let controller i =
      Some
        {
          Scenario.period_ns = tick_ns;
          tick =
            (fun live ->
              if groups.(i) = None then
                groups.(i) <- Some (Scenario.group (Scenario.find live "serve"));
              let now = Scenario.now live in
              if i = 0 && now = warmup_ns then begin
                hooks.window_start ();
                p0 := passes ();
                stamps := [ now_s () ]
              end
              else if i = 0 && now > warmup_ns then begin
                stamps := now_s () :: !stamps;
                if now + tick_ns >= horizon then begin
                  p1 := passes ();
                  hooks.window_end ()
                end
              end);
        }
    in
    let c = build ~seed ~policy ~controller ~warmup_ns ~measure_ns ~cooldown_ns in
    let mw0, pw0, mc0 = gc_words () in
    let s0 = now_s () in
    let r = Cluster.run c in
    let s1 = now_s () in
    let mw1, pw1, mc1 = gc_words () in
    let stamps = Array.of_list (List.rev !stamps) in
    let window =
      fleet_arrivals ~aseed:seed ~rate:fleet_rate ~warmup:warmup_ns ~horizon
    in
    {
      digest = Digest.to_hex (Digest.string (Cluster.to_string r));
      offered = r.fleet_served;
      expected_offered = window;
      window_offered = window;
      completed = r.fleet_served;
      p50_ns = r.fleet_p50_ns;
      p99_ns = r.fleet_p99_ns;
      goodput_qps = float_of_int r.fleet_served /. (float_of_int measure_ns *. 1e-9);
      segments =
        Array.init (Array.length stamps - 1) (fun i -> stamps.(i + 1) -. stamps.(i));
      sim_host_s = s1 -. s0;
      events = r.events_fired;
      minor_words = mw1 -. mw0;
      promoted_words = pw1 -. pw0;
      major_collections = mc1 - mc0;
      kstats = None;
      passes = !p1 - !p0;
      cluster_events = r.events_fired;
      rebalances = r.rebalances;
    }
  in
  let empty ~seed =
    build ~seed ~policy:"fifo-percpu" ~controller:(fun _ -> None) ~warmup_ns:0
      ~measure_ns:0 ~cooldown_ns:0
  in
  {
    name = "fleet-percpu-8";
    policy = "fifo-percpu";
    run;
    speed = (fun ~seed -> (run ~seed ~policy:"fifo-percpu" no_hooks).segments);
    setup = (fun ~seed -> ignore (Cluster.run (empty ~seed)));
    scenarios = (fun ~seed -> Array.to_list (empty ~seed).machines);
  }

let all = [ serve_central; bpf_saturate; fleet_percpu_8 ]

let find name = List.find_opt (fun w -> w.name = name) all

let window_sim_ns r = Array.length r.segments * segment_ns
let window_host_s r = Array.fold_left ( +. ) 0.0 r.segments
