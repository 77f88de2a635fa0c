(* Fleet capstone: the fleet controller vs. static round-robin on a
   four-machine cluster with a load imbalance.

   Three machines give their serving enclave 8 CPUs; the fourth is mostly
   claimed by a batch tenant and serves on 3.  Round-robin still routes it
   a quarter of the fleet's traffic — past its capacity — so its queue
   grows for the whole window and the fleet p99 is set by the straggler.
   The weighted variant runs the fleet controller: gossiped queue depths
   shrink the slow machine's routing weight and the fast machines absorb
   the difference.  Both variants draw arrivals and service costs from the
   same RNG streams, so the offered traffic is bit-identical — the delta
   is purely the routing. *)

let ms = Sim.Units.ms

type side = {
  label : string;
  served : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  slow_share : float;  (* fraction of served requests on the slow machine *)
  rebalances : int;
}

type result = { dynamic : side; static_ : side }

let slow_mid = 3

let machine_scenario ~seed ~warmup_ns ~measure_ns ~slow i =
  let serve_cpus = List.init (if slow then 3 else 8) (fun c -> c) in
  let noise =
    if slow then
      [
        Scenario.enclave ~policy:"search"
          ~cpus:(List.init 21 (fun c -> c + 3))
          ~workloads:[ Scenario.Batch { n = 16; prefix = "noise" } ]
          "noise";
      ]
    else []
  in
  Scenario.make ~seed:(seed + i) ~warmup_ns ~measure_ns ~cooldown_ns:(ms 50)
    ~machine:Hw.Machines.xeon_e5_1s
    ~enclaves:
      (Scenario.enclave ~policy:"shinjuku" ~cpus:serve_cpus ~workloads:[]
         "serve"
      :: noise)
    (Printf.sprintf "fleet-m%d" i)

let run_side ~seed ~warmup_ns ~measure_ns ~rate ~service routing =
  let machines =
    Array.init 4 (fun i ->
        machine_scenario ~seed ~warmup_ns ~measure_ns ~slow:(i = slow_mid) i)
  in
  let c =
    Cluster.make ~machines
      ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 48 }
      ~arrivals:{ Cluster.aseed = seed * 7919; rate; service }
      ~routing
      (match routing with
      | Cluster.Balancer.Round_robin -> "fleet-static"
      | Cluster.Balancer.Weighted -> "fleet-dynamic")
  in
  let r = Cluster.run c in
  let us ns = float_of_int ns /. 1e3 in
  {
    label =
      (match routing with
      | Cluster.Balancer.Round_robin -> "static-rr"
      | Cluster.Balancer.Weighted -> "controller");
    served = r.Cluster.fleet_served;
    p50_us = us r.Cluster.fleet_p50_ns;
    p99_us = us r.Cluster.fleet_p99_ns;
    p999_us = us r.Cluster.fleet_p999_ns;
    slow_share =
      (if r.Cluster.fleet_served = 0 then 0.0
       else
         float_of_int r.Cluster.machines.(slow_mid).Cluster.served
         /. float_of_int r.Cluster.fleet_served);
    rebalances = r.Cluster.rebalances;
  }

let run ~seed ~measure_ns =
  let warmup_ns = ms 50 and rate = 120_000.0 in
  let service = Sim.Dist.Exponential 100_000.0 in
  let static_ =
    run_side ~seed ~warmup_ns ~measure_ns ~rate ~service
      Cluster.Balancer.Round_robin
  in
  let dynamic =
    run_side ~seed ~warmup_ns ~measure_ns ~rate ~service
      Cluster.Balancer.Weighted
  in
  { dynamic; static_ }

let print (r : result) =
  Printf.printf
    "Fleet capstone: 4 machines, one straggler (3 of 24 CPUs serving)\n";
  Printf.printf "%-12s %8s %10s %10s %10s %10s %10s\n" "routing" "served"
    "p50(us)" "p99(us)" "p99.9(us)" "slow-share" "rebalances";
  let line s =
    Printf.printf "%-12s %8d %10.1f %10.1f %10.1f %9.1f%% %10d\n" s.label
      s.served s.p50_us s.p99_us s.p999_us (100.0 *. s.slow_share) s.rebalances
  in
  line r.static_;
  line r.dynamic;
  Printf.printf "controller fleet p99 %.1fus vs static %.1fus (static/controller %.1fx)\n"
    r.dynamic.p99_us r.static_.p99_us
    (r.static_.p99_us /. Float.max 0.1 r.dynamic.p99_us)
