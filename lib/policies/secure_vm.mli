(** Secure VM core-scheduling policy (§4.5, Fig. 9, Table 4).

    Mitigates cross-hyperthread speculative attacks (L1TF/MDS) by ensuring a
    physical core only ever runs vCPUs of one VM at a time.  The agent
    schedules whole physical cores with synchronized (atomic) group commits:
    both sibling CPUs receive threads of the same VM, or one runs a vCPU
    while the other is forced idle.  VMs are rotated every [quantum] so each
    runnable thread makes forward progress (the paper's partitioned-EDF
    guarantee of c time every period p), with spare time shared fairly by
    least-runtime-first VM selection. *)

type stats = {
  mutable pair_commits : int;  (** Both siblings filled with one VM. *)
  mutable single_commits : int;  (** One sibling forced idle (capacity cost). *)
  mutable rotations : int;  (** Quantum expirations rotating VMs. *)
  mutable estales : int;
}

type t

val policy : ?quantum:int -> ?eager_pairing:bool -> unit -> t * Ghost.Agent.policy
(** [quantum] defaults to 500 us.  [eager_pairing] always co-runs two vCPUs
    of a VM on a core when available (the paper's Tableau-style policy);
    the default pairs only under core pressure, preferring solo placement —
    a policy improvement ghOSt's quick iteration made easy to find, worth a
    few percent of throughput on SMT-sensitive guests. *)

val stats : t -> stats
