(* Multi-tenant colocation: a latency-critical serving enclave (shinjuku)
   and a batch enclave (search) partition one machine, and a load watcher
   moves CPUs between them as the serving load surges and recedes —
   dynamic enclave resizing vs. a static partition, same seed, same load.

   The serving tier gets 12 of the 24 CPUs (agent + 11 workers): enough
   for the low phase but saturated by the surge, where the RocksDB
   bimodal service distribution inflates the tail badly.  The watcher
   lends batch CPUs to serving whenever the shinjuku runqueue backs up and
   returns them once it has stayed empty. *)

module System = Ghost.System
module Agent = Ghost.Agent
module Cpumask = Kernel.Cpumask

let ms = Sim.Units.ms

type side = {
  label : string;
  achieved_kqps : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  batch_share : float;
  moves : int;  (* CPU donations serving-ward *)
}

type result = { dynamic : side; static_ : side }

let rocksdb_service = Fig6.rocksdb_service
let serving_cpus = List.init 12 (fun i -> i)
let batch_cpus = List.init 12 (fun i -> i + 12)

(* Offered load: low - surge - low, switched by the controller so both
   variants see the identical arrival process. *)
let low = 60_000.
let high = 200_000.

let phase_rate ~warmup ~now =
  if now >= warmup + ms 100 && now < warmup + ms 200 then high else low

let scenario ~seed ~warmup_ns ~measure_ns ~dynamic ~moves =
  let lent = ref [] in
  let calm = ref 0 in
  let tick (live : Scenario.live) =
    let serving = Scenario.find live "serving" in
    let now = Scenario.now live in
    (match Scenario.openloop serving with
    | Some ol ->
      let r = phase_rate ~warmup:warmup_ns ~now in
      if Workloads.Openloop.rate ol <> r then Workloads.Openloop.set_rate ol r
    | None -> ());
    if dynamic then begin
      let batch = Scenario.find live "batch" in
      let backlog =
        Option.value ~default:0 (Scenario.stat serving "lc_backlog")
      in
      if backlog > 4 && List.length !lent < 6 then begin
        (* Lend the highest-numbered batch CPU that is not its agent's. *)
        let agent_cpu = Agent.global_cpu (Scenario.group batch) in
        let candidates =
          Scenario.enclave_cpus batch
          |> List.filter (fun c -> c <> agent_cpu)
          |> List.sort (fun a b -> compare b a)
        in
        match candidates with
        | c :: _ ->
          Scenario.move_cpu live ~src:"batch" ~dst:"serving" c;
          lent := c :: !lent;
          incr moves;
          calm := 0
        | [] -> ()
      end
      else if backlog = 0 then begin
        incr calm;
        (* Five quiet ticks before returning a CPU: cheap hysteresis. *)
        if !calm >= 5 then begin
          match !lent with
          | c :: rest ->
            Scenario.move_cpu live ~src:"serving" ~dst:"batch" c;
            lent := rest;
            calm := 0
          | [] -> ()
        end
      end
      else calm := 0
    end
  in
  Scenario.make ~seed ~warmup_ns ~measure_ns ~cooldown_ns:(ms 50)
    ~machine:Hw.Machines.xeon_e5_1s
    ~controller:{ Scenario.period_ns = ms 1; tick }
    ~enclaves:
      [
        Scenario.enclave ~policy:"shinjuku" ~cpus:serving_cpus
          ~workloads:
            [
              Scenario.Openloop
                { wseed = 7; rate = low; service = rocksdb_service;
                  nworkers = 200; prefix = "worker" };
            ]
          "serving";
        Scenario.enclave ~policy:"search" ~cpus:batch_cpus
          ~workloads:[ Scenario.Batch { n = 16; prefix = "batch" } ]
          "batch";
      ]
    (if dynamic then "colocation-dynamic" else "colocation-static")

let run_side ~seed ~warmup_ns ~measure_ns ~dynamic =
  let moves = ref 0 in
  let s = scenario ~seed ~warmup_ns ~measure_ns ~dynamic ~moves in
  let rep = Scenario.run s in
  let serving = Scenario.enclave_report rep "serving" in
  let batch = Scenario.enclave_report rep "batch" in
  let lat f =
    match serving.Scenario.latency with
    | Some l -> float_of_int (f l) /. 1e3
    | None -> 0.0
  in
  {
    label = (if dynamic then "dynamic" else "static");
    achieved_kqps =
      Option.value ~default:0.0 serving.Scenario.achieved_qps /. 1e3;
    p50_us = lat (fun l -> l.Scenario.p50_ns);
    p99_us = lat (fun l -> l.Scenario.p99_ns);
    p999_us = lat (fun l -> l.Scenario.p999_ns);
    batch_share = Option.value ~default:0.0 batch.Scenario.batch_share;
    moves = !moves;
  }

let run ~seed ~warmup_ns ~measure_ns =
  let side dynamic = run_side ~seed ~warmup_ns ~measure_ns ~dynamic in
  { dynamic = side true; static_ = side false }

let print r =
  Gstats.Table.print_title
    "Colocation: dynamic enclave resizing vs static partition";
  let row s =
    [
      s.label;
      Printf.sprintf "%.0f" s.achieved_kqps;
      Printf.sprintf "%.0f" s.p50_us;
      Printf.sprintf "%.0f" s.p99_us;
      Printf.sprintf "%.0f" s.p999_us;
      Printf.sprintf "%.2f" s.batch_share;
      string_of_int s.moves;
    ]
  in
  Gstats.Table.print
    ~header:
      [ "partition"; "achieved kq/s"; "p50 us"; "p99 us"; "p99.9 us";
        "batch share"; "cpu moves" ]
    [ row r.dynamic; row r.static_ ]
