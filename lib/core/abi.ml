(* v3: topology queries grew core-class visibility ([core_class]) for
   hybrid P/E machines. *)
let version = 3

exception Version_mismatch of { agent : int; runtime : int }

module Task = Kernel.Task

(* One agent group's pass context: the runtime tables the operations act
   on (shared with [Agent]'s group record, not copied) and the state of
   the pass in progress. *)
type t = {
  sys : System.t;
  enc : System.enclave;
  kern : Kernel.t;
  agents : Task.t Sim.Idtbl.t;
  sws : Status_word.t Sim.Idtbl.t;
  cpu_queues : Squeue.t Sim.Idtbl.t;
  poked : unit Sim.Idtbl.t;
  cpu_list : int list ref;
  mutable cpu : int;
  mutable charged : int;
  mutable batches : (bool * Txn.t list) list;  (* reverse submit order *)
}

let scan_step_cost = 5 (* one probe of a CPU's idle/current state *)

(* --- Agent identity and time ------------------------------------------------- *)

let abi_version _ = version
let cpu t = t.cpu
let now t = Kernel.now t.kern
let charge t ns = if ns > 0 then t.charged <- t.charged + ns
let charge_scan t n = charge t (n * scan_step_cost)
let costs t = Kernel.costs t.kern
let aseq t = Status_word.seq (Sim.Idtbl.find t.sws t.cpu)

(* --- Transactions ---------------------------------------------------------- *)

let make_txn t ~tid ~target ?(with_aseq = false) ?thread_seq () =
  let agent_seq = if with_aseq then Some (aseq t) else None in
  System.make_txn t.sys ~tid ~cpu:target ?agent_seq ?thread_seq ()

let submit t ?(atomic = false) txns =
  if txns <> [] then t.batches <- (atomic, txns) :: t.batches

let recall t ~target =
  charge t (costs t).Hw.Costs.syscall;
  System.recall t.sys t.enc ~cpu:target

(* --- Message queues -------------------------------------------------------- *)

let wake_agent t cpu =
  match Sim.Idtbl.find_opt t.agents cpu with
  | Some agent -> Kernel.wake t.kern agent
  | None -> ()

let wire_wakeup t q ~wake_cpu =
  let c = costs t in
  let delay = c.Hw.Costs.msg_produce + c.Hw.Costs.agent_wakeup in
  Squeue.add_aseq_target q (Sim.Idtbl.find t.sws wake_cpu);
  Squeue.set_wakeup q
    (Some
       (fun () ->
         ignore
           (Sim.Engine.post_in (Kernel.engine t.kern) ~delay (fun () ->
                (* The wakeup also owes the agent a pass even if its standard
                   queues are empty — the message may sit on a policy-created
                   extra queue the runtime does not know about. *)
                Sim.Idtbl.replace t.poked wake_cpu ();
                wake_agent t wake_cpu))))

let create_queue t ~capacity ~wake_cpu =
  charge t (costs t).Hw.Costs.syscall;
  let q = System.create_queue t.enc ~capacity in
  (match wake_cpu with Some c -> wire_wakeup t q ~wake_cpu:c | None -> ());
  q

let associate_queue t task q =
  charge t (costs t).Hw.Costs.syscall;
  System.associate_queue t.enc task q

let queue_of_cpu t c = Sim.Idtbl.find_opt t.cpu_queues c

let poke t target =
  charge t (costs t).Hw.Costs.syscall;
  Sim.Idtbl.replace t.poked target ();
  wake_agent t target

let rec drain_from t q ~now ~consume acc =
  match Squeue.consume q ~now with
  | Some msg ->
    charge t consume;
    drain_from t q ~now ~consume (msg :: acc)
  | None -> List.rev acc

let drain t q =
  drain_from t q ~now:(now t) ~consume:(costs t).Hw.Costs.msg_consume []

(* --- Enclave and thread queries ---------------------------------------------- *)

let enclave_cpu_list t = !(t.cpu_list)

let cpu_is_idle t c =
  t.charged <- t.charged + scan_step_cost;
  Kernel.cpu_idle t.kern c

let idle_cpus t = List.filter (fun c -> cpu_is_idle t c) !(t.cpu_list)

let curr_on t c =
  t.charged <- t.charged + scan_step_cost;
  Kernel.curr t.kern c

let latched_on t c = System.latched t.sys ~cpu:c
let lower_class_waiting t c = Kernel.lower_class_waiting t.kern c
let managed_threads t = System.managed_threads t.enc

let status_word t task =
  Option.map Status_word.read (System.status_word t.sys task)

let thread_seq t task = System.thread_seq t.sys task
let task_by_tid t tid = Kernel.task_by_tid t.kern tid
let topology t = Kernel.topo t.kern
let core_class t c = Hw.Topology.class_of (Kernel.topo t.kern) c

(* --- BPF fastpath -------------------------------------------------------------- *)

let bpf_install t p =
  charge t (costs t).Hw.Costs.bpf_install;
  System.bpf_install t.sys t.enc p

let bpf_remove t hook =
  charge t (costs t).Hw.Costs.bpf_install;
  System.bpf_remove t.enc hook

let bpf_map_update t ~map ~idx v =
  charge t (costs t).Hw.Costs.bpf_map_op;
  System.bpf_map_update t.enc ~map ~idx v

let bpf_map_get t ~map ~idx =
  charge t (costs t).Hw.Costs.bpf_map_op;
  System.bpf_map_get t.enc ~map ~idx

(* --- Runtime side ---------------------------------------------------------------- *)

let context sys enc ~agents ~sws ~cpu_queues ~poked ~cpu_list =
  {
    sys;
    enc;
    kern = System.kernel sys;
    agents;
    sws;
    cpu_queues;
    poked;
    cpu_list;
    cpu = (match !cpu_list with c :: _ -> c | [] -> -1);
    charged = 0;
    batches = [];
  }

let begin_pass t ~cpu =
  t.cpu <- cpu;
  t.charged <- 0;
  t.batches <- []

let charged t = t.charged
let batches t = List.rev t.batches
