(* Per-CPU FIFO agents: the DSL's per-CPU template at its defaults.
   Round-robin placement onto per-CPU bucket queues (ASSOCIATE_QUEUE),
   agent-seq-stamped local commits, work stealing from the busiest
   sibling queue (§3.1/3.2). *)

type t = Dsl.Percpu.t

let policy () =
  Dsl.Percpu.make ~name:"fifo-percpu" ()

let scheduled t = (Dsl.Percpu.stats t).Dsl.Percpu.scheduled
let estale_retries t = (Dsl.Percpu.stats t).Dsl.Percpu.estales
let steals t = (Dsl.Percpu.stats t).Dsl.Percpu.steals
