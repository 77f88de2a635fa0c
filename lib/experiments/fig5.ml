type point = { cpus : int; txns_per_sec : float }

(* Two short yield-looping threads per worker CPU keep the FIFO non-empty
   so every idle CPU immediately receives a transaction. *)
let thread_ns = 20_000

let measure_point machine ~seed ~measure_ns ~n =
  let order = Hw.Machines.fig5_sweep_order machine 0 in
  let workers = List.filteri (fun i _ -> i < n) order in
  let s =
    Scenario.make ~seed ~machine ~warmup_ns:10_000_000 ~measure_ns
      ~enclaves:
        [
          Scenario.enclave ~idle_gap:400 ~policy:"fifo-centralized"
            ~cpus:(0 :: workers)
            ~workloads:
              [ Scenario.Spin { threads = 2 * n; thread_ns; prefix = "spin" } ]
            "fig5";
        ]
      "fig5"
  in
  let rep = Scenario.run s in
  let r = Scenario.enclave_report rep "fig5" in
  let txns = Option.value ~default:0 (Scenario.stat_delta r "scheduled") in
  { cpus = n; txns_per_sec = float_of_int txns /. (float_of_int measure_ns /. 1e9) }

let sweep_points max_n =
  let rec upto acc n = if n > max_n then List.rev acc else upto (n :: acc) (n + 4) in
  let dense = [ 1; 2; 3; 4; 5; 6; 8; 10 ] in
  let sparse = upto [] 12 in
  List.sort_uniq compare (List.filter (fun n -> n <= max_n) (dense @ sparse) @ [ max_n ])

let run ~measure_ns ~seed =
  List.map
    (fun machine ->
      let max_n = Hw.Topology.num_cpus machine.Hw.Machines.topo - 1 in
      let points =
        List.map
          (fun n -> measure_point machine ~seed ~measure_ns ~n)
          (sweep_points max_n)
      in
      (machine.Hw.Machines.name, points))
    [ Hw.Machines.skylake_2s; Hw.Machines.haswell_2s ]

let print results =
  Gstats.Table.print_title "Fig. 5: global agent scalability (txns/sec)";
  List.iter
    (fun (name, points) ->
      Printf.printf "\n%s:\n" name;
      let rows =
        List.map
          (fun p ->
            [
              string_of_int p.cpus;
              Printf.sprintf "%.0f" p.txns_per_sec;
              Printf.sprintf "%.2fM" (p.txns_per_sec /. 1e6);
            ])
          points
      in
      Gstats.Table.print ~header:[ "scheduled cpus"; "txns/s"; "(millions)" ] rows)
    results
