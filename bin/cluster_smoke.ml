(* CI gate for the cluster harness: a 2-machine fleet at a fixed seed must
   serve traffic, and two runs of the same spec must produce byte-identical
   fleet reports (the lanes' firing order is deterministic).  A third leg runs the
   same fleet with the BPF fastpath tier enabled in every per-machine
   kernel (`?fastpath=true`) and proves the in-kernel programs actually
   fire — picks > 0 via the [bpf.picks] metric.  Run via
   `dune build @cluster-smoke` (part of `@ci`). *)

let ms = Sim.Units.ms

let spec ?(policy = "shinjuku") () =
  let machines =
    Array.init 2 (fun i ->
        Scenario.make ~seed:(42 + i) ~warmup_ns:(ms 5) ~measure_ns:(ms 20)
          ~cooldown_ns:(ms 5) ~machine:Hw.Machines.xeon_e5_1s
          ~enclaves:
            [
              Scenario.enclave ~policy
                ~cpus:[ 0; 1; 2; 3 ] ~workloads:[] "serve";
            ]
          (Printf.sprintf "smoke-m%d" i))
  in
  Cluster.make ~machines
    ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 16 }
    ~arrivals:
      { Cluster.aseed = 1337; rate = 20_000.0;
        service = Sim.Dist.Exponential 80_000.0 }
    ~routing:Cluster.Balancer.Weighted "cluster-smoke"

let () =
  let a = Cluster.to_string (Cluster.run (spec ())) in
  let b = Cluster.to_string (Cluster.run (spec ())) in
  print_string a;
  if a <> b then begin
    Printf.eprintf "cluster smoke: reports differ across identical runs\n%s" b;
    exit 1
  end;
  let r = Cluster.run (spec ()) in
  if r.Cluster.fleet_served = 0 then begin
    Printf.eprintf "cluster smoke: no requests served\n";
    exit 1
  end;
  Array.iter
    (fun (m : Cluster.machine_report) ->
      if m.Cluster.served = 0 then begin
        Printf.eprintf "cluster smoke: machine %d served nothing\n"
          m.Cluster.mid;
        exit 1
      end)
    r.Cluster.machines;
  Printf.printf "cluster smoke: deterministic, %d served across %d machines\n"
    r.Cluster.fleet_served
    (Array.length r.Cluster.machines);
  (* Fastpath leg: same fleet, every per-machine kernel running the BPF
     fastpath tier.  Metrics only move while a sink is installed, so hang
     one off the run and read the fleet-wide pick counter afterwards. *)
  let sink = Obs.Sink.create () in
  Obs.Sink.install sink;
  Obs.Metrics.reset ();
  let fp = Cluster.run (spec ~policy:"shinjuku?fastpath=true" ()) in
  Obs.Sink.uninstall ();
  let picks =
    Obs.Metrics.counter_value (Obs.Metrics.counter "bpf.picks")
  in
  if fp.Cluster.fleet_served = 0 then begin
    Printf.eprintf "cluster smoke: fastpath fleet served nothing\n";
    exit 1
  end;
  if picks = 0 then begin
    Printf.eprintf
      "cluster smoke: fastpath fleet recorded no BPF picks (bpf.picks = 0)\n";
    exit 1
  end;
  Printf.printf
    "cluster smoke: fastpath fleet served %d with %d BPF picks\n"
    fp.Cluster.fleet_served picks
