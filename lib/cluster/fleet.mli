(** The fleet controller: samples gossiped per-machine queue depths each
    control period and rebalances the balancer's routing weights —
    [w_i ∝ 1 / (1 + depth_i)], smoothed, so traffic drains away from
    overloaded machines without sloshing. *)

type t

val create : int -> t
(** [create n] for [n] machines.  Each period closes 30% of the gap to the
    target weights. *)

val note_signal : t -> mid:int -> depth:int -> unit
(** Deliver one machine's gossiped depth (called when the gossip message
    arrives on the controller's lane, after its network delay). *)

val rebalance : t -> Balancer.t -> unit
(** One control period: fold the latest signals into the weights. *)

val rebalances : t -> int
(** Periods where some weight moved by more than 1% absolute. *)
