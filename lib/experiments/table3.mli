(** Table 3: microbenchmarks of ghOSt's primitive operations.

    Reproduces every line of the paper's Table 3 in-simulation: message
    delivery to local and global agents, local scheduling, remote
    scheduling (single and 10-txn group commits, agent/target/end-to-end),
    and the underlying syscall/context-switch constants.  Each measured
    number should land close to the paper's (the cost model is calibrated
    from them); the run verifies the decomposition composes correctly
    through the real message/commit/IPI code paths. *)

type line = {
  label : string;
  paper_ns : int;
  measured_ns : int;
  samples : int;
}

val run : samples:int -> seed:int -> line list
(** [samples] per line; the 10-txn group commits take half as many, at
    least 50. *)

val print : line list -> unit
