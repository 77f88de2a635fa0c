module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent

let ms = Sim.Units.ms
let us = Sim.Units.us

type scenario = Crash | Stuck

type result = {
  scenario : scenario;
  report : Faults.Report.t;
  destroy_reason : string option;
  all_cfs_at_destroy : bool;
  completed : int;
  total_jobs : int;
  all_completed : bool;
  finished_at : int option;
}

let machine =
  {
    Hw.Machines.name = "resilience-4c";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:4 ~smt:1;
    costs = Hw.Costs.skylake;
  }

let scenario_to_string = function Crash -> "crash" | Stuck -> "stuck"

let default_plan = function
  | Crash -> Faults.Plan.make ~name:"crash under load"
               [ { at = ms 20; jitter = 0; kind = Crash } ]
  | Stuck -> Faults.Plan.make ~name:"stuck agent under load"
               [ { at = ms 20; jitter = 0; kind = Stall { duration = ms 100 } } ]

(* 8 jobs x 20 ms on <= 4 CPUs needs >= 40 ms of perfect packing; 500 ms
   leaves room for the fault, the grace period / watchdog, and CFS.  The
   scenario layer snapshots the jobs' scheduling class the instant the
   enclave dies — the paper's "threads transparently revert" check. *)
let run ?plan ~seed ~scenario () =
  let plan = match plan with Some p -> p | None -> default_plan scenario in
  let total_jobs = 8 in
  let s =
    Scenario.make ~machine ~seed ~measure_ns:(ms 500)
      ~enclaves:
        [
          Scenario.enclave ~watchdog_timeout:(ms 10)
            ~policy:"fifo-centralized?timeslice=100us" ~cpus:[ 0; 1; 2; 3 ]
            ~faults:plan
            ~workloads:
              [
                Scenario.Jobs
                  { n = total_jobs; slice_ns = us 100; total_ns = ms 20;
                    prefix = "job" };
              ]
            "resilience";
        ]
      "resilience"
  in
  let rep = Scenario.run s in
  let r = Scenario.enclave_report rep "resilience" in
  let completed = r.Scenario.jobs_completed in
  {
    scenario;
    report = r.Scenario.faults;
    destroy_reason = r.Scenario.destroy_reason;
    all_cfs_at_destroy =
      Option.value ~default:false r.Scenario.all_cfs_at_destroy;
    completed;
    total_jobs;
    all_completed = completed = total_jobs;
    finished_at = r.Scenario.finished_at;
  }

let print r =
  Gstats.Table.print_title
    (Printf.sprintf "Resilience (§3.4): %s agent under load"
       (scenario_to_string r.scenario));
  Faults.Report.print r.report;
  Printf.printf "destroy reason:          %s\n"
    (Option.value r.destroy_reason ~default:"(enclave still alive)");
  Printf.printf "threads on CFS at death: %s\n"
    (if r.all_cfs_at_destroy then "all" else "not all");
  Printf.printf "jobs completed:          %d/%d\n" r.completed r.total_jobs;
  match r.finished_at with
  | Some t -> Printf.printf "last job finished at:    %.1f ms\n" (float_of_int t /. 1e6)
  | None -> Printf.printf "last job finished at:    never\n"
