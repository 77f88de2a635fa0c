(* Tests for topology, cost model and machine presets. *)

module Topology = Hw.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rome () = Hw.Machines.rome_2s.Hw.Machines.topo
let skylake () = Hw.Machines.skylake_2s.Hw.Machines.topo

let test_counts () =
  let t = rome () in
  check_int "rome cpus" 256 (Topology.num_cpus t);
  check_int "rome cores" 128 (Topology.num_cores t);
  check_int "rome ccx" 32 (Topology.num_ccx t);
  let s = skylake () in
  check_int "skylake cpus" 112 (Topology.num_cpus s);
  check_int "haswell cpus" 72
    (Topology.num_cpus Hw.Machines.haswell_2s.Hw.Machines.topo);
  check_int "xeon e5 cpus" 24
    (Topology.num_cpus Hw.Machines.xeon_e5_1s.Hw.Machines.topo)

let test_sibling () =
  let t = skylake () in
  Alcotest.(check (option int)) "sibling of 0" (Some 1) (Topology.sibling_of t 0);
  Alcotest.(check (option int)) "sibling of 1" (Some 0) (Topology.sibling_of t 1)

let test_distance () =
  let t = rome () in
  (* cpus 0,1 share a core; 0,2 share a CCX (4 cores * 2 smt = 8 cpus/ccx);
     0,8 share a socket; 0,128 are cross socket. *)
  Alcotest.(check bool) "same cpu" true (Topology.distance t 5 5 = Topology.Same_cpu);
  check_bool "smt" true (Topology.distance t 0 1 = Topology.Smt_sibling);
  check_bool "ccx" true (Topology.distance t 0 7 = Topology.Same_ccx);
  check_bool "socket" true (Topology.distance t 0 8 = Topology.Same_socket);
  check_bool "cross" true (Topology.distance t 0 128 = Topology.Cross_socket)

let test_distance_symmetric =
  QCheck.Test.make ~name:"distance is symmetric" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let t = rome () in
      Topology.distance t a b = Topology.distance t b a)

let test_cpu_group_consistency =
  QCheck.Test.make ~name:"cpu belongs to its own groups" ~count:200
    QCheck.(int_bound 255)
    (fun cpu ->
      let t = rome () in
      List.mem cpu (Topology.cpus_of_core t (Topology.core_of t cpu))
      && List.mem cpu (Topology.cpus_of_ccx t (Topology.ccx_of t cpu))
      && List.mem cpu (Topology.cpus_of_socket t (Topology.socket_of t cpu)))

let test_partition () =
  let t = rome () in
  let all_by_socket =
    List.concat_map (Topology.cpus_of_socket t) [ 0; 1 ] |> List.sort compare
  in
  Alcotest.(check (list int)) "sockets partition cpus" (Topology.cpus t) all_by_socket

let test_ccx_neighbors () =
  let t = rome () in
  let ns = Topology.ccx_neighbors_by_distance t 0 in
  check_int "all other ccx listed" 31 (List.length ns);
  (* Same-socket CCXs (1..15) come before remote ones (16..31). *)
  let first15 = List.filteri (fun i _ -> i < 15) ns in
  check_bool "same socket first" true (List.for_all (fun c -> c < 16) first15)

let test_costs_table3 () =
  let c = Hw.Costs.skylake in
  check_int "syscall" 72 c.Hw.Costs.syscall;
  check_int "line 2: global delivery" 265 (c.msg_produce + c.msg_consume);
  check_int "line 1: local delivery" 725
    (c.msg_produce + c.msg_consume + c.agent_wakeup + c.ctx_switch);
  check_int "line 3: local schedule" 888 (c.txn_commit_local + c.ctx_switch);
  check_int "line 4: remote agent overhead" 668
    (c.txn_group_fixed + c.txn_group_per_txn);
  check_int "line 5: remote target overhead" 1064 (c.ipi_handle + c.ctx_switch);
  check_int "line 6: e2e" 1772
    (c.txn_group_fixed + c.txn_group_per_txn + c.ipi_wire + c.ipi_handle
   + c.ctx_switch);
  let group10 = c.txn_group_fixed + (10 * c.txn_group_per_txn) in
  check_bool "line 7: group agent overhead ~3964" true (abs (group10 - 3964) <= 5);
  let target10 = c.ipi_handle + c.ctx_switch + (9 * c.ipi_handle_group_extra) in
  check_bool "line 8: group target overhead ~1821" true (abs (target10 - 1821) <= 5)

let test_costs_scaled () =
  let c = Hw.Costs.scaled 2.0 Hw.Costs.skylake in
  check_int "scaled syscall" 144 c.Hw.Costs.syscall;
  check_int "scaled ctx" 820 c.Hw.Costs.ctx_switch

let test_fig5_sweep_order () =
  let m = Hw.Machines.skylake_2s in
  let order = Hw.Machines.fig5_sweep_order m 0 in
  check_int "all other cpus" 111 (List.length order);
  (* First 27 additions are socket-0 physical cores (not the agent's). *)
  let t = m.Hw.Machines.topo in
  let first27 = List.filteri (fun i _ -> i < 27) order in
  check_bool "first come socket-0 cores" true
    (List.for_all
       (fun c -> Topology.socket_of t c = 0 && c mod 2 = 0)
       first27);
  (* The 28th addition is the agent's hyperthread sibling: the Fig. 5 dip. *)
  check_int "agent sibling arrives with the hyperthreads" 1 (List.nth order 27);
  (* Remote socket comes last. *)
  let last = List.nth order 110 in
  check_int "last is socket 1" 1 (Topology.socket_of t last)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ test_distance_symmetric; test_cpu_group_consistency ]
  in
  Alcotest.run "hw"
    [
      ( "topology",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "sibling" `Quick test_sibling;
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "ccx neighbors" `Quick test_ccx_neighbors;
        ] );
      ( "costs",
        [
          Alcotest.test_case "table 3 calibration" `Quick test_costs_table3;
          Alcotest.test_case "scaling" `Quick test_costs_scaled;
        ] );
      ("machines", [ Alcotest.test_case "fig5 sweep order" `Quick test_fig5_sweep_order ]);
      ("properties", qsuite);
    ]
