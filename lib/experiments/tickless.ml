module System = Ghost.System
module Agent = Ghost.Agent

type row = {
  label : string;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  throughput_kqps : float;
}

type mode = Cfs_ticks | Ghost_ticks | Ghost_tickless

let label_of = function
  | Cfs_ticks -> "cfs (ticks forced)"
  | Ghost_ticks -> "ghost (ticks on)"
  | Ghost_tickless -> "ghost (tick-less)"

let run_one mode ~seed ~duration_ns =
  let machine =
    {
      Hw.Machines.skylake_2s with
      Hw.Machines.name = "skylake-vmexit";
      costs = { Hw.Costs.skylake with Hw.Costs.tick_interrupt = 5_000 };
    }
  in
  let kernel, sys = Common.make_system ~seed machine in
  let cpus = List.init 9 (fun i -> i) in
  let spawn =
    match mode with
    | Cfs_ticks ->
      fun ~idx behavior ->
        Common.spawn_cfs kernel
          ~affinity:(Common.mask_of kernel cpus)
          ~name:(Printf.sprintf "vcpu%d" idx)
          behavior
    | Ghost_ticks | Ghost_tickless ->
      let e = System.create_enclave sys ~cpus:(Common.mask_of kernel cpus) () in
      let _, pol = Policies.Fifo_centralized.policy () in
      let _g = Agent.attach_global sys e pol in
      if mode = Ghost_tickless then
        (* The spinning agent needs no ticks on the CPUs it manages. *)
        List.iter (fun cpu -> Kernel.set_ticks_enabled kernel ~cpu false) cpus;
      fun ~idx behavior ->
        Common.spawn_ghost kernel e ~name:(Printf.sprintf "vcpu%d" idx) behavior
  in
  let warmup = Sim.Units.ms 50 in
  let ol =
    Workloads.Openloop.create kernel ~seed:17 ~rate:100_000.0
      ~service:(Sim.Dist.Const 20_000.0) ~nworkers:24 ~spawn
  in
  Workloads.Openloop.set_record_after ol warmup;
  Workloads.Openloop.start ol ~until:(warmup + duration_ns);
  Kernel.run_until kernel (warmup + duration_ns + Sim.Units.ms 10);
  let r = Workloads.Openloop.recorder ol in
  {
    label = label_of mode;
    p50_us = float_of_int (Workloads.Recorder.p r 50.0) /. 1e3;
    p99_us = float_of_int (Workloads.Recorder.p r 99.0) /. 1e3;
    p999_us = float_of_int (Workloads.Recorder.p r 99.9) /. 1e3;
    throughput_kqps = Workloads.Recorder.throughput r ~duration:duration_ns /. 1e3;
  }

let run ~duration_ns ~seed =
  List.map
    (fun mode -> run_one mode ~seed ~duration_ns)
    [ Cfs_ticks; Ghost_ticks; Ghost_tickless ]

let print rows =
  Gstats.Table.print_title
    "Tick-less scheduling (5): guest jitter from host timer ticks";
  Gstats.Table.print
    ~header:[ "config"; "p50 us"; "p99 us"; "p99.9 us"; "kq/s" ]
    (List.map
       (fun r ->
         [
           r.label;
           Printf.sprintf "%.1f" r.p50_us;
           Printf.sprintf "%.1f" r.p99_us;
           Printf.sprintf "%.1f" r.p999_us;
           Printf.sprintf "%.0f" r.throughput_kqps;
         ])
       rows)
