(* Centralized FIFO round-robin: the single-class parameterization of the
   DSL's centralized template.  One global agent, a FIFO runqueue, group
   commits onto idle CPUs, optional timeslice rotation and BPF fastpath. *)

type t = Dsl.Centralized.t

let policy ?timeslice ?(fastpath = false) () =
  Dsl.Centralized.make ~name:"fifo-centralized" ~nclasses:1 ?timeslice
    ~fastpath ~msg_charge:10 ~assign_charge:25 ~track_assigned:false
    ~forget_on_preempt:true ()

let scheduled t = (Dsl.Centralized.stats t).Dsl.Centralized.scheduled.(0)
let queue_depth t = Dsl.Centralized.backlog t
