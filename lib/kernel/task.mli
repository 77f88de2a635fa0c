(** Native threads (tasks) of the simulated kernel.

    A task's code is modelled as a {!action} state machine: run on a CPU for
    some nanoseconds, then block / yield / exit / run again.  The kernel
    drives the machine; workloads build the closures. *)

type state = Created | Runnable | Running | Blocked | Dead

type policy = Rt | Microquanta | Cfs | Ghost
(** Scheduling class, in decreasing priority order.  Agents run in [Rt];
    ghOSt-managed threads run in [Ghost], below everything (§3.4). *)

type action =
  | Run of { ns : int; after : unit -> action }
      (** Execute for [ns] nanoseconds of CPU time (preemptible), then
          evaluate [after]. *)
  | Block of { after : unit -> action }
      (** Sleep until {!Kernel.wake}; then evaluate [after]. *)
  | Yield of { after : unit -> action }
      (** Give up the CPU but stay runnable. *)
  | Exit

type t = {
  tid : int;
  name : string;
  mutable state : state;
  mutable policy : policy;
  mutable is_agent : bool;  (** ghOSt agent thread (RT, special handling). *)
  nice : int;
  mutable rt_prio : int;
  mutable cookie : int;  (** Core-scheduling cookie; 0 = none (§4.5). *)
  mutable affinity : Cpumask.t;
  mutable cpu : int;  (** CPU currently running on, or last ran on. *)
  mutable on_rq : bool;  (** Present in some class runqueue. *)
  mutable cont : unit -> action;  (** Next step of the task's code. *)
  mutable remaining : int;  (** Unfinished part of the current Run segment. *)
  mutable vruntime : float;  (** CFS virtual runtime. *)
  mutable mq_quanta : int;  (** MicroQuanta budget per period. *)
  mutable mq_period : int;
  mutable mq_budget : int;
  mutable mq_last_period : int;  (** Period index of the last budget refresh. *)
  mutable mq_throttled : bool;
  mutable sum_exec : int;  (** Total CPU time consumed, ns. *)
  mutable runnable_since : int;  (** When the task last became runnable. *)
  mutable nr_switches : int;  (** Times scheduled in. *)
  mutable nr_preemptions : int;  (** Times involuntarily descheduled. *)
  mutable nr_migrations : int;  (** Times dispatched on a different CPU. *)
}

val make :
  tid:int ->
  name:string ->
  policy:policy ->
  nice:int ->
  affinity:Cpumask.t ->
  (unit -> action) ->
  t
(** Build a task in [Created] state.  Used by {!Kernel.create_task}. *)

val policy_rank : policy -> int
(** 0 = highest priority ([Rt]) .. 3 = lowest ([Ghost]). *)

val is_runnable : t -> bool
(** [Runnable] or [Running]. *)

val pp : Format.formatter -> t -> unit
(** "name(tid)" for logs. *)

(** Behaviour combinators for building task code. *)

val run : int -> (unit -> action) -> action
val block : (unit -> action) -> action
val yield : (unit -> action) -> action

val compute_forever : slice:int -> unit -> action
(** CPU-bound loop in [slice]-ns chunks; never blocks (antagonists, batch). *)

val compute_total : slice:int -> total:int -> (unit -> action) -> unit -> action
(** Consume [total] ns of CPU in [slice]-ns chunks, then continue. *)
