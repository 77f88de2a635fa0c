(* Load-step evaluation of the self-tuning [adaptive] policy: one serving
   enclave runs latency-critical RocksDB-style workers plus batch threads
   under the adaptive policy, offered load steps low - surge - low, and the
   identical arrival process is replayed against the frozen (static-knob)
   variant.  The controller should notice the surge through its own Obs
   metrics (wd p99, backlog), tighten the timeslice and stop donating CPUs
   to batch — cutting the surge tail the static knobs pay in full. *)

let ms = Sim.Units.ms

type side = {
  label : string;
  achieved_kqps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  tightens : int;
  relaxes : int;
  final_slice_us : float;
}

type result = { adaptive : side; static_ : side }

let rocksdb_service = Fig6.rocksdb_service
let serving_cpus = List.init 12 (fun i -> i)

(* Offered load: low - surge - low, switched by the controller so both
   variants see the identical arrival process. *)
let low = 60_000.
let high = 200_000.

let phase_rate ~warmup ~now =
  if now >= warmup + ms 100 && now < warmup + ms 200 then high else low

let scenario ~seed ~warmup_ns ~measure_ns ~frozen =
  let tick (live : Scenario.live) =
    let serving = Scenario.find live "serving" in
    let now = Scenario.now live in
    match Scenario.openloop serving with
    | Some ol ->
      let r = phase_rate ~warmup:warmup_ns ~now in
      if Workloads.Openloop.rate ol <> r then Workloads.Openloop.set_rate ol r
    | None -> ()
  in
  let policy = if frozen then "adaptive?frozen=true" else "adaptive" in
  Scenario.make ~seed ~warmup_ns ~measure_ns ~cooldown_ns:(ms 50)
    ~machine:Hw.Machines.xeon_e5_1s
    ~controller:{ Scenario.period_ns = ms 1; tick }
    ~enclaves:
      [
        Scenario.enclave ~policy ~cpus:serving_cpus
          ~workloads:
            [
              Scenario.Openloop
                { wseed = 7; rate = low; service = rocksdb_service;
                  nworkers = 200; prefix = "worker" };
              Scenario.Batch { n = 8; prefix = "batch" };
            ]
          "serving";
      ]
    (if frozen then "adaptive-static" else "adaptive-live")

let run_side ~seed ~warmup_ns ~measure_ns ~frozen =
  (* The policy steers on its own cumulative Obs metrics: zero them so the
     second side does not read the first side's histogram. *)
  Obs.Metrics.reset ();
  let s = scenario ~seed ~warmup_ns ~measure_ns ~frozen in
  let rep = Scenario.run s in
  let serving = Scenario.enclave_report rep "serving" in
  let lat f =
    match serving.Scenario.latency with
    | Some l -> float_of_int (f l) /. 1e3
    | None -> 0.0
  in
  let stat key =
    Option.value ~default:0
      (List.assoc_opt key serving.Scenario.stats_at_measure_end)
  in
  {
    label = (if frozen then "static" else "adaptive");
    achieved_kqps =
      Option.value ~default:0.0 serving.Scenario.achieved_qps /. 1e3;
    p50_us = lat (fun l -> l.Scenario.p50_ns);
    p99_us = lat (fun l -> l.Scenario.p99_ns);
    p999_us = lat (fun l -> l.Scenario.p999_ns);
    tightens = stat "tightens";
    relaxes = stat "relaxes";
    final_slice_us = float_of_int (stat "slice_ns") /. 1e3;
  }

let run ~seed ~warmup_ns ~measure_ns =
  let side frozen = run_side ~seed ~warmup_ns ~measure_ns ~frozen in
  let adaptive = side false in
  let static_ = side true in
  { adaptive; static_ }

let print r =
  Gstats.Table.print_title
    "Adaptive policy: self-tuned knobs vs frozen knobs on a load step";
  let row s =
    [
      s.label;
      Printf.sprintf "%.0f" s.achieved_kqps;
      Printf.sprintf "%.0f" s.p50_us;
      Printf.sprintf "%.0f" s.p99_us;
      Printf.sprintf "%.0f" s.p999_us;
      string_of_int s.tightens;
      string_of_int s.relaxes;
      Printf.sprintf "%.0f" s.final_slice_us;
    ]
  in
  Gstats.Table.print
    ~header:
      [ "knobs"; "achieved kq/s"; "p50 us"; "p99 us"; "p99.9 us";
        "tightens"; "relaxes"; "final slice us" ]
    [ row r.adaptive; row r.static_ ]
