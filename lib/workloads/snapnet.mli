(** Snap-like packet-processing workload (§4.3).

    Models the server side of the paper's two-machine test: six message
    flows (one 64 B, five 64 kB, 10 k msgs/s each) arrive over the NIC.
    Each message passes through a Snap worker (RX protocol processing), an
    application server thread (CFS), and a Snap worker again (TX), then the
    reply leaves.  RTT = 2 x wire + the three scheduling-sensitive stages.
    Snap workers are spawned by the caller: under MicroQuanta for the
    baseline, under a ghOSt enclave for the policy under test.  Periodic
    CFS daemon threads preempt workers as in the paper's quiet mode. *)

type size = Small | Large

type t

val create :
  Kernel.t ->
  seed:int ->
  ?rate_per_flow:float ->
  ?wire:int ->
  nworkers:int ->
  nservers:int ->
  spawn_worker:(idx:int -> (unit -> Kernel.Task.action) -> Kernel.Task.t) ->
  unit ->
  t
(** Defaults: 10k msgs/s per flow, 10 us wire.  Always 1 small + 5 large
    flows.  Server threads are plain CFS tasks created internally. *)

val add_daemons : t -> n:int -> period:int -> busy:int -> unit
(** Periodic per-CPU CFS daemons that preempt whatever runs (quiet mode's
    background activity). *)

val start : t -> until:int -> unit
val set_record_after : t -> int -> unit

val rtt_small : t -> Recorder.t
val rtt_large : t -> Recorder.t
