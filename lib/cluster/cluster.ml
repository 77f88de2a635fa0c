(* Fleet-scale simulation: N machines — each a full started {!Scenario}
   with its own kernel, enclaves, agents and registry policy — behind a
   load balancer fed by one shared arrival process.

   Engine layer: every machine runs on its own lane ({!Sim.Lanes}) of one
   shared event queue, which fires in lowest-(time, machine_id, seq)
   order, plus one {e coordinator} lane (index N) holding the balancer's
   arrival process and the fleet controller.  Cross-machine messages —
   request dispatch RPCs, queue-depth gossip, control commands — are
   posted into the destination lane with their {!Hw.Net} cost.  A lane's
   events keep their own push order, so a machine's intra-lane event
   order is exactly its standalone order: a cluster run of a scenario with
   no fleet traffic produces the identical report to {!Scenario.run} at
   the same seed.

   Observability: when a sink is installed, the lane loop scopes it to the
   firing machine on every lane switch ({!Obs.Sink.set_machine}), so one
   ring buffer carries all machines and {!Obs.Perfetto} renders each as
   its own process group. *)

module Machine = Machine
module Balancer = Balancer
module Fleet = Fleet

type arrivals = {
  aseed : int;  (* arrival/service/routing RNG seed, separate from machine seeds *)
  rate : float;  (* fleet-wide requests per second *)
  service : Sim.Dist.t;
}

type t = {
  name : string;
  machines : Scenario.t array;
  serve : Machine.serve option;
  arrivals : arrivals option;
  routing : Balancer.mode;
  gossip_period_ns : int;
  control_period_ns : int;
}

let make ?serve ?arrivals ?(routing = Balancer.Round_robin)
    ?(gossip_period_ns = Sim.Units.ms 1) ?(control_period_ns = Sim.Units.ms 1)
    ~machines name =
  let n = Array.length machines in
  if n = 0 then invalid_arg "Cluster.make: no machines";
  let w0 = machines.(0).Scenario.warmup_ns
  and m0 = machines.(0).Scenario.measure_ns
  and c0 = machines.(0).Scenario.cooldown_ns in
  Array.iter
    (fun (s : Scenario.t) ->
      if s.Scenario.warmup_ns <> w0 || s.Scenario.measure_ns <> m0
         || s.Scenario.cooldown_ns <> c0
      then
        invalid_arg
          "Cluster.make: machines must share warmup/measure/cooldown windows")
    machines;
  (match arrivals with
  | Some _ when serve = None ->
    invalid_arg "Cluster.make: arrivals need a serve pool"
  | Some a when not (a.rate > 0.0 && Float.is_finite a.rate) ->
    invalid_arg "Cluster.make: arrival rate must be finite and positive"
  | _ -> ());
  { name; machines; serve; arrivals; routing; gossip_period_ns;
    control_period_ns }

(* --- Reports ----------------------------------------------------------------- *)

type machine_report = {
  mid : int;
  scenario : Scenario.report;
  served : int;
  p50_ns : int;
  p99_ns : int;
}

type report = {
  cluster : string;
  machines : machine_report array;
  fleet_served : int;
  fleet_p50_ns : int;
  fleet_p90_ns : int;
  fleet_p99_ns : int;
  fleet_p999_ns : int;
  rebalances : int;
  events_fired : int;  (* through the lane loop *)
}

let to_string (r : report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "cluster %s: %d machines, %d events\n" r.cluster
       (Array.length r.machines) r.events_fired);
  Buffer.add_string b
    (Printf.sprintf
       "fleet: served=%d p50=%dns p90=%dns p99=%dns p99.9=%dns rebalances=%d\n"
       r.fleet_served r.fleet_p50_ns r.fleet_p90_ns r.fleet_p99_ns
       r.fleet_p999_ns r.rebalances);
  Array.iter
    (fun (m : machine_report) ->
      Buffer.add_string b
        (Printf.sprintf "m%d: served=%d p50=%dns p99=%dns\n" m.mid m.served
           m.p50_ns m.p99_ns);
      List.iter
        (fun (er : Scenario.enclave_report) ->
          let lat =
            match er.Scenario.latency with
            | None -> ""
            | Some l ->
              Printf.sprintf " p50=%dns p99=%dns p99.9=%dns" l.Scenario.p50_ns
                l.Scenario.p99_ns l.Scenario.p999_ns
          in
          let qps =
            match er.Scenario.achieved_qps with
            | None -> ""
            | Some q -> Printf.sprintf " qps=%.0f" q
          in
          let jobs =
            if er.Scenario.jobs_total = 0 then ""
            else
              Printf.sprintf " jobs=%d/%d" er.Scenario.jobs_completed
                er.Scenario.jobs_total
          in
          Buffer.add_string b
            (Printf.sprintf "  enclave %s (%s)%s%s%s\n" er.Scenario.ename
               er.Scenario.policy lat qps jobs))
        m.scenario.Scenario.enclaves)
    r.machines;
  Buffer.contents b

(* --- Run --------------------------------------------------------------------- *)

let run (c : t) =
  let n = Array.length c.machines in
  let warmup = c.machines.(0).Scenario.warmup_ns in
  let horizon = warmup + c.machines.(0).Scenario.measure_ns in
  let finish_at = horizon + c.machines.(0).Scenario.cooldown_ns in
  let fleet_rec = Workloads.Recorder.create () in
  let lanes =
    Sim.Lanes.create
      ~on_lane_switch:(fun i ->
        Obs.Sink.set_machine (if i < n then i else -1))
      (n + 1)
  in
  (* Machine setup runs under that machine's scope, so queue-ownership
     notes and any records written during setup attribute correctly. *)
  let machines =
    Array.init n (fun i ->
        Obs.Sink.set_machine i;
        Machine.create ~engine:(Sim.Lanes.engine lanes i) ~mid:i
          ~warmup_ns:warmup ~horizon_ns:horizon ~fleet:fleet_rec
          ~serve:c.serve c.machines.(i))
  in
  Obs.Sink.set_machine (-1);
  let coord_lane = n in
  let coord = Sim.Lanes.engine lanes coord_lane in
  let ctrl = Fleet.create n in
  (match c.arrivals with
  | None -> ()
  | Some a ->
    let root = Sim.Rng.create a.aseed in
    let arr_rng = Sim.Rng.stream root ~label:"cluster.arrival" in
    let svc_rng = Sim.Rng.stream root ~label:"cluster.service" in
    let route_rng = Sim.Rng.stream root ~label:"cluster.route" in
    let balancer = Balancer.create ~mode:c.routing ~n ~rng:route_rng in
    let gap = Sim.Dist.Exponential (1e9 /. a.rate) in
    (* Arrival process on the coordinator lane: draw service and target,
       dispatch with the RPC cost into the machine's lane. *)
    let rec arrive () =
      let now = Sim.Engine.now coord in
      if now < horizon then begin
        let service_ns = Sim.Dist.sample_ns svc_rng a.service in
        let target = Balancer.pick balancer in
        let req = { Machine.arrival = now; service_ns } in
        ignore
          (Sim.Lanes.post lanes ~lane:target ~time:(now + Hw.Net.rack.rpc_ns)
             (fun () -> Machine.submit machines.(target) req));
        ignore
          (Sim.Engine.post_in coord ~delay:(Sim.Dist.sample_ns arr_rng gap)
             arrive)
      end
    in
    ignore
      (Sim.Engine.post_in coord ~delay:(Sim.Dist.sample_ns arr_rng gap) arrive);
    (* Queue-depth gossip: each machine samples its own depth on its own
       lane and posts the signal to the coordinator with the gossip cost. *)
    Array.iter
      (fun (m : Machine.t) ->
        let e = Machine.engine m in
        let rec gossip () =
          let now = Sim.Engine.now e in
          if now < horizon then begin
            let depth = Machine.depth m in
            ignore
              (Sim.Lanes.post lanes ~lane:coord_lane
                 ~time:(now + Hw.Net.rack.gossip_ns) (fun () ->
                   Fleet.note_signal ctrl ~mid:m.Machine.mid ~depth));
            ignore (Sim.Engine.post_in e ~delay:c.gossip_period_ns gossip)
          end
        in
        ignore (Sim.Engine.post_in e ~delay:c.gossip_period_ns gossip))
      machines;
    (* Fleet controller on the coordinator lane (weighted routing only —
       round-robin is the static baseline and takes no feedback). *)
    if c.routing = Balancer.Weighted then begin
      let rec control () =
        if Sim.Engine.now coord < horizon then begin
          Fleet.rebalance ctrl balancer;
          ignore (Sim.Engine.post_in coord ~delay:c.control_period_ns control)
        end
      in
      ignore (Sim.Engine.post_in coord ~delay:c.control_period_ns control)
    end);
  Sim.Lanes.run_until lanes warmup;
  Array.iter (fun (m : Machine.t) -> Scenario.mark_measure_start m.Machine.started) machines;
  Sim.Lanes.run_until lanes horizon;
  Array.iter (fun (m : Machine.t) -> Scenario.mark_measure_end m.Machine.started) machines;
  Sim.Lanes.run_until lanes finish_at;
  Obs.Sink.set_machine (-1);
  let fp pct =
    if Workloads.Recorder.completed fleet_rec = 0 then 0
    else Workloads.Recorder.p fleet_rec pct
  in
  {
    cluster = c.name;
    machines =
      Array.map
        (fun (m : Machine.t) ->
          {
            mid = m.Machine.mid;
            scenario = Scenario.finish m.Machine.started;
            served = m.Machine.served;
            p50_ns = Machine.p m 50.0;
            p99_ns = Machine.p m 99.0;
          })
        machines;
    fleet_served = Workloads.Recorder.completed fleet_rec;
    fleet_p50_ns = fp 50.0;
    fleet_p90_ns = fp 90.0;
    fleet_p99_ns = fp 99.0;
    fleet_p999_ns = fp 99.9;
    rebalances = Fleet.rebalances ctrl;
    events_fired = Sim.Lanes.events_fired lanes;
  }
