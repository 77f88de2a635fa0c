(* Name -> policy registry.  Each policy in the library registers a
   constructor so experiments, the CLI and the scenario layer can
   instantiate any of them from a spec string without referencing the
   module. *)

module Agent = Ghost.Agent
module System = Ghost.System
module K = Ghost_policy.Knob
module P = Ghost_policy.Params

type entry = {
  name : string;
  mode : Ghost_policy.mode;
  doc : string;
  knobs : Ghost_policy.Knob.spec list;
  make : P.t -> Agent.policy * (unit -> (string * int) list);
}

type info = {
  info_name : string;
  info_mode : Ghost_policy.mode;
  info_doc : string;
  info_knobs : Ghost_policy.Knob.spec list;
}

let table : (string, entry) Hashtbl.t = Hashtbl.create 16

let register ~name ~mode ~doc ?(knobs = []) make =
  if Hashtbl.mem table name then
    invalid_arg (Printf.sprintf "Registry.register: duplicate policy %s" name);
  Hashtbl.replace table name { name; mode; doc; knobs; make }

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) table [] |> List.sort compare

let doc name =
  match Hashtbl.find_opt table name with
  | Some e -> e.doc
  | None -> invalid_arg (Printf.sprintf "Registry.doc: unknown policy %s" name)

let info name =
  match Hashtbl.find_opt table name with
  | Some e ->
    {
      info_name = e.name;
      info_mode = e.mode;
      info_doc = e.doc;
      info_knobs = e.knobs;
    }
  | None -> invalid_arg (Printf.sprintf "Registry.info: unknown policy %s" name)

let infos () = List.map info (names ())

let make spec =
  let name, kvs = Ghost_policy.parse_spec spec in
  match Hashtbl.find_opt table name with
  | None ->
    invalid_arg
      (Printf.sprintf "unknown policy %s (known: %s)" name
         (String.concat ", " (names ())))
  | Some e ->
    let p = P.of_list ~policy:name kvs in
    let policy, stats = e.make p in
    P.finish p;
    let knobs = P.consumed p in
    { Ghost_policy.spec; name; mode = e.mode; policy; stats; knobs }

let attach ?min_iteration ?idle_gap sys enclave (inst : Ghost_policy.instance) =
  match inst.mode with
  | `Global -> Agent.attach_global ?min_iteration ?idle_gap sys enclave inst.policy
  | `Local -> Agent.attach_local sys enclave inst.policy

(* Gauges named policy.<name>.<stat>, refreshed from the live snapshot,
   plus policy.<name>.knob.<key> gauges for the resolved knob settings so a
   controller (or a human on a dashboard) sees the effective tuning. *)
let publish_stats (inst : Ghost_policy.instance) =
  List.iter
    (fun (k, v) ->
      Obs.Metrics.set
        (Obs.Metrics.gauge (Printf.sprintf "policy.%s.%s" inst.name k))
        v)
    (inst.stats ());
  List.iter
    (fun (k, v) ->
      let num =
        match (v : Ghost_policy.value) with
        | Ghost_policy.Int i -> Some i
        | Ghost_policy.Bool b -> Some (if b then 1 else 0)
        | Ghost_policy.Float f -> Some (int_of_float f)
        | Ghost_policy.String _ -> None
      in
      match num with
      | Some n ->
        Obs.Metrics.set
          (Obs.Metrics.gauge (Printf.sprintf "policy.%s.knob.%s" inst.name k))
          n
      | None -> ())
    inst.Ghost_policy.knobs

(* --- The built-in policies ------------------------------------------------- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Registry policies classify threads by task-name prefix; the workloads
   library names threads worker%d / batch%d / spin%d accordingly. *)
let prefix_pred prefix (task : Kernel.Task.t) =
  has_prefix ~prefix task.Kernel.Task.name

let central_stats ~stats ~backlog () =
  let s : Central.stats = stats () in
  [
    ("be_evictions", s.Central.be_evictions);
    ("be_scheduled", s.Central.be_scheduled);
    ("estales", s.Central.estales);
    ("lc_backlog", backlog ());
    ("lc_preemptions", s.Central.lc_preemptions);
    ("lc_scheduled", s.Central.lc_scheduled);
  ]

(* Each policy's knobs are declared once, and its constructor reads them
   back by spec, in declaration order. *)
let fastpath_gated =
  K.bool "fastpath" ~default:false
    "install the BPF fastpath tier (gated wakeup, pick ring, tick)"

let () =
  let timeslice =
    K.time_opt "timeslice"
      "preempt ghOSt threads past this slice when work waits (unset: run to \
       block)"
  and fastpath =
    K.bool "fastpath" ~default:false
      "install the BPF fastpath tier (wakeup, pick ring, tick)"
  in
  register ~name:"fifo-centralized" ~mode:`Global
    ~doc:"Centralized FIFO with optional timeslice preemption (Fig. 5)"
    ~knobs:[ timeslice; fastpath ]
    (fun p ->
      let timeslice = P.int_opt p timeslice in
      let fastpath = P.bool p fastpath in
      let t, pol = Fifo_centralized.policy ?timeslice ~fastpath () in
      ( pol,
        fun () ->
          [
            ("queue_depth", Fifo_centralized.queue_depth t);
            ("scheduled", Fifo_centralized.scheduled t);
          ] ))

let () =
  register ~name:"fifo-percpu" ~mode:`Local
    ~doc:"Per-CPU FIFO with round-robin placement and work stealing (Fig. 3)"
    (fun p ->
      ignore p;
      let t, pol = Fifo_percpu.policy () in
      ( pol,
        fun () ->
          [
            ("estale_retries", Fifo_percpu.estale_retries t);
            ("scheduled", Fifo_percpu.scheduled t);
            ("steals", Fifo_percpu.steals t);
          ] ))

let () =
  let lc_prefix =
    K.string "lc_prefix" ~default:"worker"
      "task-name prefix classified latency-critical"
  and timeslice =
    K.time_opt "timeslice"
      "preempt LC threads past this slice when LC work waits"
  and schedule_be =
    K.bool "schedule_be" ~default:true
      "donate leftover idle CPUs to best-effort threads"
  in
  register ~name:"central" ~mode:`Global
    ~doc:
      "Two-class centralized engine; lc_prefix names latency-critical \
       threads (default worker)"
    ~knobs:[ lc_prefix; timeslice; schedule_be; fastpath_gated ]
    (fun p ->
      let lc_prefix = P.string p lc_prefix in
      let timeslice = P.int_opt p timeslice in
      let schedule_be = P.bool p schedule_be in
      let fastpath = P.bool p fastpath_gated in
      let classify task =
        if prefix_pred lc_prefix task then Central.Lc else Central.Be
      in
      let t, pol = Central.policy ~classify ?timeslice ~schedule_be ~fastpath () in
      ( pol,
        central_stats
          ~stats:(fun () -> Central.stats t)
          ~backlog:(fun () -> Central.lc_backlog t) ))

let () =
  let timeslice =
    K.time "timeslice" ~default:30_000
      "preemption quantum for latency-critical threads"
  and shenango_ext =
    K.bool "shenango_ext" ~default:false
      "Shenango extension: donate idle CPUs to batch threads"
  and batch_prefix =
    K.string "batch_prefix" ~default:"batch"
      "task-name prefix classified batch (best-effort)"
  in
  register ~name:"shinjuku" ~mode:`Global
    ~doc:"ghOSt-Shinjuku: 30us preemptive centralized scheduling (Fig. 6)"
    ~knobs:[ timeslice; shenango_ext; fastpath_gated; batch_prefix ]
    (fun p ->
      let timeslice = P.int p timeslice in
      let shenango_ext = P.bool p shenango_ext in
      let fastpath = P.bool p fastpath_gated in
      let batch_prefix = P.string p batch_prefix in
      let t, pol =
        Shinjuku.policy ~timeslice ~shenango_ext ~fastpath
          ~is_batch:(prefix_pred batch_prefix) ()
      in
      ( pol,
        central_stats
          ~stats:(fun () -> Shinjuku.stats t)
          ~backlog:(fun () -> Shinjuku.lc_backlog t) ))

let () =
  let worker_prefix =
    K.string "worker_prefix" ~default:"worker"
      "task-name prefix classified as a Snap worker"
  in
  register ~name:"snap" ~mode:`Global
    ~doc:"Google Snap: workers strictly over antagonists, no timeslice (§4.3)"
    ~knobs:[ worker_prefix ]
    (fun p ->
      let worker_prefix = P.string p worker_prefix in
      let t, pol = Snap_policy.policy ~is_worker:(prefix_pred worker_prefix) () in
      ( pol,
        central_stats
          ~stats:(fun () -> Snap_policy.stats t)
          ~backlog:(fun () -> Snap_policy.lc_backlog t) ))

let () =
  let numa_aware =
    K.bool "numa_aware" ~default:true "prefer same-socket CCXs when fanning out"
  and ccx_aware =
    K.bool "ccx_aware" ~default:true
      "scan CPUs in increasing cache distance from the last CPU"
  and pending_wait =
    K.time "pending_wait" ~default:100_000
      "hold a thread this long before paying a CCX migration (0 disables)"
  and fastpath =
    K.bool "fastpath" ~default:false
      "install the BPF pick ring for unplaceable threads"
  in
  register ~name:"search" ~mode:`Global
    ~doc:
      "Google Search: least-runtime-first with cache-distance placement \
       (§4.4); pending_wait=0 disables the 100us hold"
    ~knobs:[ numa_aware; ccx_aware; pending_wait; fastpath ]
    (fun p ->
      let numa_aware = P.bool p numa_aware in
      let ccx_aware = P.bool p ccx_aware in
      let pending_wait =
        match P.int p pending_wait with 0 -> None | ns -> Some ns
      in
      let fastpath = P.bool p fastpath in
      let config =
        { Search_policy.numa_aware; ccx_aware; pending_wait; fastpath }
      in
      let t, pol = Search_policy.policy ~config () in
      ( pol,
        fun () ->
          let s = Search_policy.stats t in
          [
            ("estales", s.Search_policy.estales);
            ("held_pending", s.Search_policy.held_pending);
            ("placed_ccx", s.Search_policy.placed_ccx);
            ("placed_core", s.Search_policy.placed_core);
            ("placed_remote", s.Search_policy.placed_remote);
            ("placed_socket", s.Search_policy.placed_socket);
            ("skipped", s.Search_policy.skipped);
          ] ))

let () =
  let quantum =
    K.time "quantum" ~default:500_000
      "guaranteed core tenure before rotating to another VM"
  and eager_pairing =
    K.bool "eager_pairing" ~default:false
      "always pair vCPUs on a core (default: only under core pressure)"
  in
  register ~name:"secure-vm" ~mode:`Global
    ~doc:"Per-core VM isolation with quantum rotation (§4.5)"
    ~knobs:[ quantum; eager_pairing ]
    (fun p ->
      let quantum = P.int p quantum in
      let eager_pairing = P.bool p eager_pairing in
      let t, pol = Secure_vm.policy ~quantum ~eager_pairing () in
      ( pol,
        fun () ->
          let s = Secure_vm.stats t in
          [
            ("estales", s.Secure_vm.estales);
            ("pair_commits", s.Secure_vm.pair_commits);
            ("rotations", s.Secure_vm.rotations);
            ("single_commits", s.Secure_vm.single_commits);
          ] ))

let () =
  let deadline =
    K.time "deadline" ~default:16_667_000
      "per-frame budget added to the runnable instant (one 60 Hz frame)"
  and timeslice =
    K.time_opt "timeslice"
      "preempt frames past this slice when other frames wait"
  and frame_prefix =
    K.string "frame_prefix" ~default:"frame"
      "task-name prefix classified as frame (deadline) work"
  in
  register ~name:"hybrid-edf" ~mode:`Global
    ~doc:
      "Hybrid-aware EDF: frames earliest-deadline-first on P cores with \
       E-core spillover, batch on donated E cores (ABI v3)"
    ~knobs:[ deadline; timeslice; frame_prefix; fastpath_gated ]
    (fun p ->
      let deadline = P.int p deadline in
      let timeslice = P.int_opt p timeslice in
      let frame_prefix = P.string p frame_prefix in
      let fastpath = P.bool p fastpath_gated in
      let t, pol =
        Hybrid_edf.policy ~deadline ?timeslice ~fastpath
          ~is_frame:(prefix_pred frame_prefix) ()
      in
      ( pol,
        fun () ->
          let s = Hybrid_edf.stats t in
          [
            ("batch_evictions", s.Hybrid_edf.batch_evictions);
            ("batch_scheduled", s.Hybrid_edf.batch_scheduled);
            ("estales", s.Hybrid_edf.estales);
            ("frame_backlog", Hybrid_edf.frame_backlog t);
            ("frame_preemptions", s.Hybrid_edf.frame_preemptions);
            ("frames_scheduled", s.Hybrid_edf.frames_scheduled);
          ] ))

let () =
  let period = K.time "period" ~default:1_000_000 "feedback controller period"
  and target_p99 =
    K.time "target_p99" ~default:100_000
      "wakeup-to-dispatch p99 the controller steers toward"
  and timeslice =
    K.time "timeslice" ~default:250_000 "initial (relaxed) LC timeslice"
  and min_slice =
    K.time "min_slice" ~default:25_000
      "tightest timeslice the controller may set"
  and backlog_hi =
    K.int "backlog_hi" ~default:4 "LC backlog treated as pressure"
  and lc_prefix =
    K.string "lc_prefix" ~default:"worker"
      "task-name prefix classified latency-critical"
  and frozen =
    K.bool "frozen" ~default:false "disable the controller (static-knob variant)"
  in
  register ~name:"adaptive" ~mode:`Global
    ~doc:
      "Self-tuning two-class engine: a periodic controller reads its own \
       Obs metrics (wd p99, backlog) and retunes slice/donation online; \
       frozen=true pins the initial knobs"
    ~knobs:
      [ period; target_p99; timeslice; min_slice; backlog_hi; lc_prefix; frozen ]
    (fun p ->
      let period = P.int p period in
      let target_p99 = P.int p target_p99 in
      let timeslice = P.int p timeslice in
      let min_slice = P.int p min_slice in
      let backlog_hi = P.int p backlog_hi in
      let lc_prefix = P.string p lc_prefix in
      let frozen = P.bool p frozen in
      let config =
        {
          Adaptive_policy.period;
          target_p99;
          timeslice;
          min_slice;
          backlog_hi;
          frozen;
        }
      in
      let t, pol =
        Adaptive_policy.policy ~config ~is_lc:(prefix_pred lc_prefix) ()
      in
      (pol, fun () -> Adaptive_policy.stats t))
