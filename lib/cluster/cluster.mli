(** Fleet-scale simulation: N machines — each a full {!Scenario} with its
    own kernel, enclaves, agents and policy — behind a load balancer fed
    by one shared arrival process.

    Every machine runs on its own lane ({!Sim.Lanes}) of one shared event
    queue, which fires in lowest-(time, machine_id, seq) order, so a run is
    bit-reproducible at a fixed seed and a machine's intra-lane order is
    exactly its standalone order.  Cross-machine traffic (dispatch RPCs,
    queue-depth gossip) pays {!Hw.Net} costs.  The fleet controller
    ({!Fleet}) mirrors the single-machine colocation controller one level
    up: it samples gossiped per-machine queue depths each control period
    and rebalances the {!Balancer}'s routing weights. *)

module Machine = Machine
module Balancer = Balancer
module Fleet = Fleet

type arrivals = {
  aseed : int;  (** arrival/service/routing RNG seed *)
  rate : float;  (** fleet-wide requests per second *)
  service : Sim.Dist.t;  (** per-request service time *)
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

val make :
  ?serve:Machine.serve ->
  ?arrivals:arrivals ->
  ?routing:Balancer.mode ->
  ?gossip_period_ns:int ->
  ?control_period_ns:int ->
  machines:Scenario.t array ->
  string ->
  t
(** Validates the fleet: at least one machine, all machines sharing the
    same warmup/measure/cooldown windows, and [arrivals] only with [serve]
    and a finite, positive rate.  Raises [Invalid_argument] otherwise.
    Messages pay {!Hw.Net.rack}'s latencies. *)

type machine_report = {
  mid : int;
  scenario : Scenario.report;
  served : int;  (** fleet requests completed on this machine *)
  p50_ns : int;
  p99_ns : int;  (** this machine's fleet-request latency *)
}

type report = {
  cluster : string;
  machines : machine_report array;
  fleet_served : int;
  fleet_p50_ns : int;
  fleet_p90_ns : int;
  fleet_p99_ns : int;
  fleet_p999_ns : int;  (** fleet-wide request latency across all machines *)
  rebalances : int;  (** control periods that materially moved weights *)
  events_fired : int;  (** events through the lane loop *)
}

val run : t -> report
(** Build the machines, wire the lanes, run warmup → measure → cooldown
    and collect per-machine and fleet-wide reports.  Deterministic: the
    same spec (same machine seeds, same [aseed]) yields a byte-identical
    {!to_string}. *)

val to_string : report -> string
(** Deterministic multi-line fleet report. *)
