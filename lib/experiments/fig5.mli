(** Fig. 5: scalability of a global agent.

    A round-robin centralized policy keeps all threads in a FIFO and
    schedules them onto CPUs as they become idle, grouping as many
    transactions per commit as possible.  Swept over the number of worker
    CPUs on the Skylake and Haswell 2-socket machines.  The paper's three
    annotations should reproduce: (1) a steep ramp while CPUs are added on
    the agent's socket, (2) a dip when the agent's hyperthread sibling
    starts running work (pipeline contention), and (3) degradation once
    commits cross to the remote socket (IPIs + memory traffic). *)

type point = { cpus : int; txns_per_sec : float }

val run : measure_ns:int -> seed:int -> (string * point list) list
(** One sweep of 20 us threads per machine: Skylake, then Haswell. *)

val print : (string * point list) list -> unit
