type state = Created | Runnable | Running | Blocked | Dead

type policy = Rt | Microquanta | Cfs | Ghost

type action =
  | Run of { ns : int; after : unit -> action }
  | Block of { after : unit -> action }
  | Yield of { after : unit -> action }
  | Exit

type t = {
  tid : int;
  name : string;
  mutable state : state;
  mutable policy : policy;
  mutable is_agent : bool;
  nice : int;
  mutable rt_prio : int;
  mutable cookie : int;
  mutable affinity : Cpumask.t;
  mutable cpu : int;
  mutable on_rq : bool;
  mutable cont : unit -> action;
  mutable remaining : int;
  mutable vruntime : float;
  mutable mq_quanta : int;
  mutable mq_period : int;
  mutable mq_budget : int;
  mutable mq_last_period : int;
  mutable mq_throttled : bool;
  mutable sum_exec : int;
  mutable runnable_since : int;
  mutable nr_switches : int;
  mutable nr_preemptions : int;
  mutable nr_migrations : int;
}

let make ~tid ~name ~policy ~nice ~affinity cont =
  {
    tid;
    name;
    state = Created;
    policy;
    is_agent = false;
    nice;
    rt_prio = 0;
    cookie = 0;
    affinity;
    cpu = -1;
    on_rq = false;
    cont;
    remaining = 0;
    vruntime = 0.0;
    mq_quanta = 900_000;
    mq_period = 1_000_000;
    mq_budget = 900_000;
    mq_last_period = 0;
    mq_throttled = false;
    sum_exec = 0;
    runnable_since = 0;
    nr_switches = 0;
    nr_preemptions = 0;
    nr_migrations = 0;
  }

let policy_rank = function Rt -> 0 | Microquanta -> 1 | Cfs -> 2 | Ghost -> 3

let is_runnable t =
  match t.state with Runnable | Running -> true | Created | Blocked | Dead -> false

let pp ppf t = Format.fprintf ppf "%s(%d)" t.name t.tid

let run ns after = Run { ns; after }
let block after = Block { after }
let yield after = Yield { after }

let compute_forever ~slice () =
  let rec step () = Run { ns = slice; after = step } in
  step ()

let compute_total ~slice ~total after () =
  let rec step left () =
    if left <= 0 then after ()
    else begin
      let ns = Int.min slice left in
      Run { ns; after = step (left - ns) }
    end
  in
  step total ()
