module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent

type system = Shinjuku | Ghost_shinjuku | Cfs_shinjuku

type point = {
  system : system;
  offered_kqps : float;
  achieved_kqps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  batch_share : float;
}

let system_name = function
  | Shinjuku -> "shinjuku"
  | Ghost_shinjuku -> "ghost-shinjuku"
  | Cfs_shinjuku -> "cfs-shinjuku"

let rocksdb_service =
  Sim.Dist.Bimodal { p_slow = 0.005; fast = 4_000.0; slow = 10_000_000.0 }

let default_rates =
  [ 50_000.; 100_000.; 150_000.; 200_000.; 240_000.; 270_000.; 300_000.; 330_000. ]

let worker_cpus = 20

let point_of system ~rate ~rec_ ~measure_ns ~share =
  {
    system;
    offered_kqps = rate /. 1e3;
    achieved_kqps = Workloads.Recorder.throughput rec_ ~duration:measure_ns /. 1e3;
    p50_us = float_of_int (Workloads.Recorder.p rec_ 50.0) /. 1e3;
    p99_us = float_of_int (Workloads.Recorder.p rec_ 99.0) /. 1e3;
    p999_us = float_of_int (Workloads.Recorder.p rec_ 99.9) /. 1e3;
    batch_share = share;
  }

(* --- Original Shinjuku data plane -------------------------------------------- *)

let run_shinjuku ~rate ~warmup_ns ~measure_ns =
  let engine = Sim.Engine.create () in
  let dp = Baselines.Shinjuku_dataplane.create engine ~seed:7 ~nworkers:worker_cpus () in
  Baselines.Shinjuku_dataplane.set_record_after dp warmup_ns;
  Baselines.Shinjuku_dataplane.start dp ~rate ~service:rocksdb_service
    ~until:(warmup_ns + measure_ns);
  Sim.Engine.run_until engine (warmup_ns + measure_ns + Sim.Units.ms 50);
  let rec_ = Baselines.Shinjuku_dataplane.recorder dp in
  (* The spinning data plane monopolises its CPUs: a co-located batch app
     gets nothing (Fig. 6c). *)
  point_of Shinjuku ~rate ~rec_ ~measure_ns ~share:0.0

(* --- ghOSt-Shinjuku ----------------------------------------------------------- *)

(* Agent on CPU 0, workers scheduled on CPUs 1..20; the registry's shinjuku
   classifies batch* threads as best-effort, matching the paper's setup. *)
let run_ghost_plan ~seed ~rate ~with_batch ~warmup_ns ~measure_ns ~plan =
  let policy = if with_batch then "shinjuku?shenango_ext=true" else "shinjuku" in
  let workloads =
    Scenario.Openloop
      { wseed = 7; rate; service = rocksdb_service; nworkers = 200;
        prefix = "worker" }
    :: (if with_batch then [ Scenario.Batch { n = 10; prefix = "batch" } ]
        else [])
  in
  let s =
    Scenario.make ~seed ~machine:Hw.Machines.xeon_e5_1s ~warmup_ns ~measure_ns
      ~cooldown_ns:(Sim.Units.ms 50)
      ~enclaves:
        [
          Scenario.enclave ~policy
            ~cpus:(List.init (worker_cpus + 1) (fun i -> i))
            ~faults:plan ~workloads "serving";
        ]
      "fig6-ghost"
  in
  let rep = Scenario.run s in
  let r = Scenario.enclave_report rep "serving" in
  let share = Option.value ~default:0.0 r.Scenario.batch_share in
  ( {
      system = Ghost_shinjuku;
      offered_kqps = rate /. 1e3;
      achieved_kqps = Option.value ~default:0.0 r.Scenario.achieved_qps /. 1e3;
      p50_us =
        (match r.Scenario.latency with
        | Some l -> float_of_int l.Scenario.p50_ns /. 1e3
        | None -> 0.0);
      p99_us =
        (match r.Scenario.latency with
        | Some l -> float_of_int l.Scenario.p99_ns /. 1e3
        | None -> 0.0);
      p999_us =
        (match r.Scenario.latency with
        | Some l -> float_of_int l.Scenario.p999_ns /. 1e3
        | None -> 0.0);
      batch_share = share;
    },
    r.Scenario.faults )

let run_ghost ~seed ~rate ~with_batch ~warmup_ns ~measure_ns =
  fst
    (run_ghost_plan ~seed ~rate ~with_batch ~warmup_ns ~measure_ns
       ~plan:Faults.Plan.empty)

let run_ghost_faulted ~measure_ns ~seed ~plan =
  run_ghost_plan ~seed ~rate:240_000. ~with_batch:false
    ~warmup_ns:(Sim.Units.ms 200) ~measure_ns ~plan

(* --- CFS-Shinjuku -------------------------------------------------------------- *)

let run_cfs ~seed ~rate ~with_batch ~warmup_ns ~measure_ns =
  let machine = Hw.Machines.xeon_e5_1s in
  let kernel, _sys = Common.make_system ~seed machine in
  let mask = Common.mask_of kernel (List.init worker_cpus (fun i -> i + 1)) in
  let spawn ~idx behavior =
    Common.spawn_cfs kernel ~nice:(-20) ~affinity:mask
      ~name:(Printf.sprintf "worker%d" idx)
      behavior
  in
  let ol =
    Workloads.Openloop.create kernel ~seed:7 ~rate ~service:rocksdb_service
      ~nworkers:200 ~spawn
  in
  Workloads.Openloop.set_record_after ol warmup_ns;
  let batch =
    if with_batch then begin
      let spawn_b ~idx behavior =
        Common.spawn_cfs kernel ~nice:19 ~affinity:mask
          ~name:(Printf.sprintf "batch%d" idx)
          behavior
      in
      Some (Workloads.Batch.create kernel ~n:10 ~spawn:spawn_b ())
    end
    else None
  in
  Workloads.Openloop.start ol ~until:(warmup_ns + measure_ns);
  Kernel.run_until kernel warmup_ns;
  (match batch with Some b -> Workloads.Batch.mark b | None -> ());
  Kernel.run_until kernel (warmup_ns + measure_ns + Sim.Units.ms 50);
  let share =
    match batch with
    | Some b ->
      Workloads.Batch.share b ~since:warmup_ns
        ~now:(warmup_ns + measure_ns)
        ~cpus:worker_cpus
    | None -> 0.0
  in
  point_of Cfs_shinjuku ~rate ~rec_:(Workloads.Openloop.recorder ol) ~measure_ns
    ~share

(* --- Sweep ---------------------------------------------------------------------- *)

let run ~rates ~with_batch ~warmup_ns ~measure_ns ~seed =
  List.concat_map
    (fun rate ->
      [
        run_shinjuku ~rate ~warmup_ns ~measure_ns;
        run_ghost ~seed ~rate ~with_batch ~warmup_ns ~measure_ns;
        run_cfs ~seed ~rate ~with_batch ~warmup_ns ~measure_ns;
      ])
    rates

let print ~title points =
  Gstats.Table.print_title title;
  let rows =
    List.map
      (fun p ->
        [
          system_name p.system;
          Printf.sprintf "%.0f" p.offered_kqps;
          Printf.sprintf "%.0f" p.achieved_kqps;
          Printf.sprintf "%.0f" p.p50_us;
          Printf.sprintf "%.0f" p.p99_us;
          Printf.sprintf "%.0f" p.p999_us;
          Printf.sprintf "%.2f" p.batch_share;
        ])
      points
  in
  Gstats.Table.print
    ~header:
      [ "system"; "offered kq/s"; "achieved kq/s"; "p50 us"; "p99 us"; "p99.9 us";
        "batch share" ]
    rows
