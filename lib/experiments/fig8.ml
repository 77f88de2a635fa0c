module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Search = Workloads.Search

type mode = Cfs | Ghost of Policies.Search_policy.config

type result = {
  label : string;
  qps : (Search.qtype * float) list;
  p99_us : (Search.qtype * float) list;
  p50_us : (Search.qtype * float) list;
  series : (Search.qtype * (int * int * int) list) list;
  ccx_moves : int;
}

let qtypes = [ Search.A; Search.B; Search.C ]
let qname = function Search.A -> "A" | Search.B -> "B" | Search.C -> "C"

let label_of = function
  | Cfs -> "cfs"
  | Ghost c ->
    let open Policies.Search_policy in
    if not c.numa_aware then "ghost-no-numa"
    else if not c.ccx_aware then "ghost-no-ccx"
    else "ghost"

let run ~duration_ns ~warmup_ns ~seed mode =
  let machine = Hw.Machines.rome_2s in
  let kernel, sys = Common.make_system ~seed machine in
  let topo = Kernel.topo kernel in
  let enclave =
    match mode with
    | Cfs -> None
    | Ghost config ->
      let e = System.create_enclave sys ~cpus:(Kernel.full_mask kernel) () in
      let _st, pol = Policies.Search_policy.policy ~config () in
      let _g = Agent.attach_global sys e ~idle_gap:1_000 pol in
      Some e
  in
  (* NUMA binding: type-A workers get a cpumask for the socket their query
     data lives on; the no-numa ablation drops the binding entirely. *)
  let numa_binding =
    match mode with
    | Cfs -> true
    | Ghost c -> c.Policies.Search_policy.numa_aware
  in
  let spawn qtype ~socket ~idx behavior =
    let name = Printf.sprintf "search-%s-%d" (qname qtype) idx in
    let affinity =
      match socket with
      | Some s when numa_binding ->
        Some (Common.mask_of kernel (Hw.Topology.cpus_of_socket topo s))
      | Some _ | None -> None
    in
    match enclave with
    | Some e -> Common.spawn_ghost kernel e ?affinity ~name behavior
    | None -> Common.spawn_cfs kernel ?affinity ~name behavior
  in
  let wl = Search.create kernel ~seed:23 ~spawn () in
  (* Low-priority background threads (GC etc.) soak idle capacity. *)
  let spawn_bg ~idx behavior =
    let name = Printf.sprintf "background%d" idx in
    match enclave with
    | Some e -> Common.spawn_ghost kernel e ~name behavior
    | None -> Common.spawn_cfs kernel ~nice:19 ~name behavior
  in
  ignore (Workloads.Batch.create kernel ~n:32 ~spawn:spawn_bg ());
  Search.set_record_after wl warmup_ns;
  Search.start wl ~until:(warmup_ns + duration_ns);
  Kernel.run_until kernel (warmup_ns + duration_ns + Sim.Units.ms 100);
  let secs = float_of_int duration_ns /. 1e9 in
  {
    label = label_of mode;
    qps =
      List.map
        (fun q -> (q, float_of_int (Workloads.Recorder.completed (Search.recorder wl q)) /. secs))
        qtypes;
    p99_us =
      List.map
        (fun q -> (q, float_of_int (Workloads.Recorder.p (Search.recorder wl q) 99.0) /. 1e3))
        qtypes;
    p50_us =
      List.map
        (fun q -> (q, float_of_int (Workloads.Recorder.p (Search.recorder wl q) 50.0) /. 1e3))
        qtypes;
    series =
      List.map
        (fun q ->
          ( q,
            List.map
              (fun (t0, n, hist) ->
                (t0 / Sim.Units.sec 1, n, Gstats.Histogram.percentile hist 99.0))
              (Gstats.Timeseries.windows (Search.series wl q)) ))
        qtypes;
    ccx_moves = Search.ccx_moves wl;
  }

let default_modes () =
  let open Policies.Search_policy in
  [
    ("cfs", Cfs);
    ("ghost", Ghost default_config);
    ("ghost-no-ccx", Ghost { default_config with ccx_aware = false });
    ("ghost-no-numa", Ghost { default_config with numa_aware = false; ccx_aware = false });
  ]

let print_summary results =
  Gstats.Table.print_title "Fig. 8: Google Search — whole-run summary";
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun q ->
            [
              r.label;
              qname q;
              Printf.sprintf "%.0f" (List.assoc q r.qps);
              Printf.sprintf "%.2f" (List.assoc q r.p50_us /. 1e3);
              Printf.sprintf "%.2f" (List.assoc q r.p99_us /. 1e3);
              string_of_int r.ccx_moves;
            ])
          qtypes)
      results
  in
  Gstats.Table.print
    ~header:[ "system"; "query"; "QPS"; "p50 ms"; "p99 ms"; "ccx moves" ]
    rows

let print_series r =
  Printf.printf "\nper-second series (%s): sec, then per query type QPS / p99 ms\n"
    r.label;
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (q, windows) ->
      List.iter
        (fun (sec, n, p99) ->
          let cur =
            match Hashtbl.find_opt tbl sec with
            | Some m -> m
            | None ->
              let m = Hashtbl.create 3 in
              Hashtbl.replace tbl sec m;
              m
          in
          Hashtbl.replace cur q (n, p99))
        windows)
    r.series;
  let secs = List.sort_uniq compare (Hashtbl.fold (fun s _ acc -> s :: acc) tbl []) in
  let rows =
    List.map
      (fun sec ->
        let m = Hashtbl.find tbl sec in
        string_of_int sec
        :: List.concat_map
             (fun q ->
               match Hashtbl.find_opt m q with
               | Some (n, p99) ->
                 [ string_of_int n; Printf.sprintf "%.2f" (float_of_int p99 /. 1e6) ]
               | None -> [ "-"; "-" ])
             qtypes)
      secs
  in
  Gstats.Table.print
    ~header:
      [ "sec"; "A qps"; "A p99"; "B qps"; "B p99"; "C qps"; "C p99" ]
    rows
