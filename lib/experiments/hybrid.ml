(* Hybrid P/E frame-time experiment: the same interactive-frames + batch
   traffic, offered bit-identically (arrival instants and service samples
   are pure functions of the workload seeds), scheduled once by a
   class-blind policy (fifo-percpu: round-robin homes, no deadlines, no
   eviction) and once by the hybrid-aware EDF policy (frames
   earliest-deadline-first on P cores, batch on donated E cores).

   On hybrid-1s the class-blind policy homes frame streams onto E cores —
   where every frame retires at half speed — and lets them queue behind
   batch bursts, so its frame-time p99 blows past the 60 Hz deadline; the
   hybrid-aware policy keeps frames on P cores and evicts batch for them.
   `bench hybrid` guards the offered-traffic identity and the >= 2x p99
   separation. *)

module System = Ghost.System

type row = {
  label : string;
  offered : int;
  offered_work : int;
  completed : int;
  frame_p50_us : float;
  frame_p99_us : float;
  miss_rate : float;  (* recorded frames past the 60 Hz deadline *)
  batch_completed : int;
}

let period = 16_670_000  (* one 60 Hz frame *)
let frame_service = 4_000_000.0
let batch_service = 4_000_000.0
let nstreams = 6
let nbatch = 8

let run_one ~seed ~spec ~duration_ns =
  let machine = Hw.Machines.hybrid_1s in
  let kernel, sys = Common.make_system ~seed machine in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask kernel) () in
  let inst = Policies.Registry.make spec in
  let _g =
    Policies.Registry.attach ~min_iteration:10_000 ~idle_gap:25_000 sys e inst
  in
  let spawn_frame ~idx behavior =
    Common.spawn_ghost kernel e ~name:(Printf.sprintf "frame%d" idx) behavior
  in
  let spawn_batch ~idx behavior =
    Common.spawn_ghost kernel e ~name:(Printf.sprintf "batch%d" idx) behavior
  in
  let warmup = Sim.Units.ms 100 in
  (* Batch noise first so its pool claims the round-robin homes ahead of
     the frame streams under fifo-percpu — the arrival clocks of both
     workloads never consult the scheduler either way. *)
  let bat =
    Workloads.Openloop.create kernel ~seed:11 ~rate:1000.0
      ~service:(Sim.Dist.Const batch_service) ~nworkers:nbatch
      ~spawn:spawn_batch
  in
  let frames =
    Workloads.Frames.create kernel ~seed:7 ~nstreams ~period ~deadline:period
      ~service:(Sim.Dist.Const frame_service) ~spawn:spawn_frame
  in
  Workloads.Openloop.set_record_after bat warmup;
  Workloads.Frames.set_record_after frames warmup;
  Workloads.Openloop.start bat ~until:(warmup + duration_ns);
  Workloads.Frames.start frames ~until:(warmup + duration_ns);
  Kernel.run_until kernel (warmup + duration_ns + Sim.Units.ms 50);
  let rec_ = Workloads.Frames.recorder frames in
  {
    label = spec;
    offered = Workloads.Frames.offered frames;
    offered_work = Workloads.Frames.offered_work frames;
    completed = Workloads.Recorder.completed rec_;
    frame_p50_us = float_of_int (Workloads.Recorder.p rec_ 50.0) /. 1e3;
    frame_p99_us = float_of_int (Workloads.Recorder.p rec_ 99.0) /. 1e3;
    miss_rate = Workloads.Recorder.miss_rate rec_;
    batch_completed =
      Workloads.Recorder.completed (Workloads.Openloop.recorder bat);
  }

let run ~duration_ns ~seed =
  [
    run_one ~seed ~spec:"fifo-percpu" ~duration_ns;
    run_one ~seed ~spec:"hybrid-edf" ~duration_ns;
  ]

let print rows =
  Gstats.Table.print_title
    "Hybrid P/E frame times: class-blind vs hybrid-aware EDF (hybrid-1s, \
     60 Hz frames + batch noise)";
  Gstats.Table.print
    ~header:
      [
        "policy"; "offered"; "completed"; "frame p50 us"; "frame p99 us";
        "jank"; "batch done";
      ]
    (List.map
       (fun r ->
         [
           r.label;
           string_of_int r.offered;
           string_of_int r.completed;
           Printf.sprintf "%.1f" r.frame_p50_us;
           Printf.sprintf "%.1f" r.frame_p99_us;
           Printf.sprintf "%.1f%%" (100.0 *. r.miss_rate);
           string_of_int r.batch_completed;
         ])
       rows)
