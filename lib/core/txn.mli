(** Scheduling transactions (§3.2).

    An agent opens a transaction in shared memory naming a thread and a
    target CPU, then commits one or many with TXNS_COMMIT.  Commits are
    validated against agent/thread sequence numbers; a stale commit fails
    with [Estale] and the agent must re-drain its queue and retry. *)

type failure =
  | Estale  (** Sequence number out of date: new messages arrived (§3.2). *)
  | Enoent  (** Thread dead or not managed by this enclave. *)
  | Eaffinity  (** Target CPU not in the thread's cpumask. *)
  | Ebusy  (** Thread already running or latched on another CPU. *)
  | Enotrunnable  (** Thread is blocked. *)
  | Eaborted  (** Another transaction of an atomic group failed (§4.5). *)

type status = Pending | Committed | Failed of failure

type t = {
  txn_id : int;
  tid : int;
  target_cpu : int;
  agent_seq : int option;  (** Aseq to validate (per-CPU model, §3.2). *)
  thread_seq : int option;  (** Tseq to validate (centralized model, §3.3). *)
  mutable status : status;
  mutable decided_at : int;  (** When validation ran. *)
}

val status_to_string : status -> string
val committed : t -> bool
val pp : Format.formatter -> t -> unit
