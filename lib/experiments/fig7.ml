module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent

type sched = Microquanta | Ghost_snap

type row = {
  sched : sched;
  size : Workloads.Snapnet.size;
  percentiles : (float * int) list;
}

let sched_name = function Microquanta -> "microquanta" | Ghost_snap -> "ghost"

let socket0_cpus kernel =
  Hw.Topology.cpus_of_socket (Kernel.topo kernel) 0

let run_one ~sched ~seed ~loaded ~duration_ns ~warmup_ns =
  let machine = Hw.Machines.skylake_2s in
  let kernel, sys = Common.make_system ~seed machine in
  let cpus = socket0_cpus kernel in
  let enclave =
    match sched with
    | Microquanta -> None
    | Ghost_snap ->
      let e = System.create_enclave sys ~cpus:(Common.mask_of kernel cpus) () in
      let is_worker (task : Task.t) =
        String.length task.Task.name >= 4 && String.sub task.Task.name 0 4 = "snap"
      in
      let _st, pol = Policies.Snap_policy.policy ~is_worker () in
      let _g = Agent.attach_global sys e pol in
      Some e
  in
  let mask = Common.mask_of kernel cpus in
  let spawn_worker ~idx behavior =
    let name = Printf.sprintf "snap-worker%d" idx in
    match enclave with
    | Some e -> Common.spawn_ghost kernel e ~affinity:mask ~name behavior
    | None -> Common.spawn_mq kernel ~affinity:mask ~name behavior
  in
  let net =
    Workloads.Snapnet.create kernel ~seed:11 ~nworkers:8 ~nservers:6 ~spawn_worker ()
  in
  (* Periodic daemons preempt workers in quiet mode (§4.3). *)
  Workloads.Snapnet.add_daemons net ~n:12 ~period:(Sim.Units.ms 1)
    ~busy:(Sim.Units.us 40);
  (if loaded then begin
     let spawn_b ~idx behavior =
       let name = Printf.sprintf "antagonist%d" idx in
       match enclave with
       | Some e -> Common.spawn_ghost kernel e ~affinity:mask ~name behavior
       | None -> Common.spawn_cfs kernel ~nice:10 ~affinity:mask ~name behavior
     in
     ignore (Workloads.Batch.create kernel ~n:40 ~spawn:spawn_b ())
   end);
  Workloads.Snapnet.set_record_after net warmup_ns;
  Workloads.Snapnet.start net ~until:(warmup_ns + duration_ns);
  Kernel.run_until kernel (warmup_ns + duration_ns + Sim.Units.ms 20);
  let extract size rec_ =
    {
      sched;
      size;
      percentiles =
        List.map
          (fun pct -> (pct, Workloads.Recorder.p rec_ pct))
          Common.tail_percentiles;
    }
  in
  [
    extract Workloads.Snapnet.Small (Workloads.Snapnet.rtt_small net);
    extract Workloads.Snapnet.Large (Workloads.Snapnet.rtt_large net);
  ]

let run ~loaded ~duration_ns ~warmup_ns ~seed =
  run_one ~sched:Microquanta ~seed ~loaded ~duration_ns ~warmup_ns
  @ run_one ~sched:Ghost_snap ~seed ~loaded ~duration_ns ~warmup_ns

let print ~title rows =
  Gstats.Table.print_title title;
  let header =
    "sched" :: "size"
    :: List.map (fun p -> Printf.sprintf "p%g" p) Common.tail_percentiles
  in
  let row r =
    sched_name r.sched
    :: (match r.size with Workloads.Snapnet.Small -> "64B" | Workloads.Snapnet.Large -> "64kB")
    :: List.map (fun (_, v) -> Common.fmt_us v ^ "us") r.percentiles
  in
  Gstats.Table.print ~header (List.map row rows)
