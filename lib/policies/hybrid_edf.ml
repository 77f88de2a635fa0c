(* Hybrid-aware EDF: the P/E-topology parameterization of the DSL's
   centralized template (ABI v3).

   Frame threads (class 0) live in a least-key run-queue ordered by
   absolute deadline — the instant the thread became runnable plus the
   frame budget — so the earliest-deadline frame always dispatches first.
   Batch threads (class 1) stay FIFO and only run on donated idle CPUs.

   The hybrid awareness is pure placement ranking over [Abi.core_class]:
   frames fill performance cores first and spill onto efficiency cores
   only when every P core is busy, while donation walks the same list in
   reverse so batch noise soaks up E cores before it ever touches a P
   core.  On a uniform machine every core is class 0, both rankings are
   stable-sort identities, and the policy degrades to a plain two-class
   EDF engine. *)

module Abi = Dsl.Abi
module Task = Dsl.Task

type t = Dsl.Centralized.t

type stats = {
  mutable frames_scheduled : int;
  mutable batch_scheduled : int;
  mutable frame_preemptions : int;
  mutable batch_evictions : int;
  mutable estales : int;
}

let stats t =
  let s = Dsl.Centralized.stats t in
  {
    frames_scheduled = s.Dsl.Centralized.scheduled.(0);
    batch_scheduled = s.Dsl.Centralized.scheduled.(1);
    frame_preemptions = s.Dsl.Centralized.preemptions;
    batch_evictions = s.Dsl.Centralized.evictions;
    estales = s.Dsl.Centralized.estales;
  }

let frame_backlog t = Dsl.Centralized.backlog t

(* Stable sort by core class keeps the enclave's CPU-id order within each
   class, so placement stays deterministic across passes. *)
let by_class ?(reverse = false) ctx cpus =
  List.stable_sort
    (fun a b ->
      let d = compare (Abi.core_class ctx a) (Abi.core_class ctx b) in
      if reverse then -d else d)
    cpus

let policy ?(deadline = 16_667_000) ?timeslice ?(fastpath = false) ~is_frame
    () =
  let deadline_key _ctx (task : Task.t) =
    task.Task.runnable_since + deadline
  in
  let queue_order c =
    if c = 0 then Dsl.Rq.Least deadline_key else Dsl.Rq.Fifo
  in
  Dsl.Centralized.make ~name:"hybrid-edf" ~nclasses:2
    ~classify:(fun _ task -> if is_frame task then 0 else 1)
    ?timeslice ~donate_idle:true ~evict_lower:true ~fastpath
    ~wakeup_gated:true ~msg_charge:25 ~assign_charge:40
    ~queue_order
    ~cpu_rank:(fun ctx cpus -> by_class ctx cpus)
    ~donate_rank:(fun ctx cpus -> by_class ~reverse:true ctx cpus)
    ()
