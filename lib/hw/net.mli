(** Network cost model for cluster simulation.

    Deterministic flat per-message latencies for the two kinds of
    cross-machine traffic the fleet layer prices: request dispatch RPCs
    from the load balancer and queue-depth gossip from machines to the
    fleet controller.  See {!Costs} for the single-machine (Table 3) cost
    model this sits above. *)

type t = {
  rpc_ns : int;  (** Balancer → machine request dispatch latency. *)
  gossip_ns : int;  (** Machine → controller signal-sample latency. *)
}

val rack : t
(** Intra-rack latencies: 10 µs RPCs, 5 µs gossip. *)
