(* Network cost model for cluster simulation.

   Where {!Costs} prices one machine's kernel/ghOSt primitives from Table 3,
   this prices the cross-machine traffic the fleet layer generates.  Flat
   per-message latencies: at the rack scale the cluster subsystem targets
   (a load balancer and tens of machines on one switch), queueing inside
   the fabric is second-order next to the per-machine scheduling dynamics
   under study, and a deterministic constant keeps fleet runs
   bit-reproducible. *)

type t = {
  rpc_ns : int;  (* balancer -> machine request dispatch *)
  gossip_ns : int;  (* machine -> fleet controller signal sample *)
}

(* Intra-rack numbers: ~10 us end-to-end for a request RPC through a ToR
   switch (kernel stack + wire), half that for the small telemetry
   datagrams. *)
let rack = { rpc_ns = 10_000; gossip_ns = 5_000 }
