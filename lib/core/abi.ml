(* v3: topology queries grew core-class visibility ([op_core_class]) for
   hybrid P/E machines. *)
let version = 3

exception Version_mismatch of { agent : int; runtime : int }

type ops = {
  op_cpu : unit -> int;
  op_now : unit -> int;
  op_rng : unit -> Sim.Rng.t;
  op_charge : int -> unit;
  op_charge_scan : int -> unit;
  op_aseq : unit -> int;
  op_make_txn :
    tid:int -> target:int -> with_aseq:bool -> thread_seq:int option -> Txn.t;
  op_submit : atomic:bool -> Txn.t list -> unit;
  op_recall : target:int -> Kernel.Task.t option;
  op_create_queue : capacity:int -> wake_cpu:int option -> Squeue.t;
  op_associate_queue :
    Kernel.Task.t -> Squeue.t -> (unit, [ `Pending_messages ]) result;
  op_queue_of_cpu : int -> Squeue.t option;
  op_poke : int -> unit;
  op_drain : Squeue.t -> Msg.t list;
  op_enclave_cpu_list : unit -> int list;
  op_cpu_is_idle : int -> bool;
  op_curr_on : int -> Kernel.Task.t option;
  op_latched_on : int -> Kernel.Task.t option;
  op_lower_class_waiting : int -> bool;
  op_managed_threads : unit -> Kernel.Task.t list;
  op_status_word : Kernel.Task.t -> Status_word.snapshot option;
  op_thread_seq : Kernel.Task.t -> int option;
  op_task_by_tid : int -> Kernel.Task.t option;
  op_topology : unit -> Hw.Topology.t;
  op_core_class : int -> int;
  op_bpf_install : Bpf.Prog.t -> (unit, string) result;
  op_bpf_remove : Bpf.Prog.hook -> bool;
  op_bpf_map_update : map:int -> idx:int -> int -> (unit, string) result;
  op_bpf_map_get : map:int -> idx:int -> int option;
}

type t = { v : int; ops : ops }

let make ~version ops = { v = version; ops }
let abi_version t = t.v
let cpu t = t.ops.op_cpu ()
let now t = t.ops.op_now ()
let rng t = t.ops.op_rng ()
let charge t ns = t.ops.op_charge ns
let charge_scan t n = t.ops.op_charge_scan n

let aseq t = t.ops.op_aseq ()

let make_txn t ~tid ~target ?(with_aseq = false) ?thread_seq () =
  t.ops.op_make_txn ~tid ~target ~with_aseq ~thread_seq

let submit t ?(atomic = false) txns = t.ops.op_submit ~atomic txns
let recall t ~target = t.ops.op_recall ~target
let create_queue t ~capacity ~wake_cpu = t.ops.op_create_queue ~capacity ~wake_cpu
let associate_queue t task q = t.ops.op_associate_queue task q
let queue_of_cpu t c = t.ops.op_queue_of_cpu c
let poke t c = t.ops.op_poke c
let drain t q = t.ops.op_drain q
let enclave_cpu_list t = t.ops.op_enclave_cpu_list ()

let cpu_is_idle t c = t.ops.op_cpu_is_idle c

let idle_cpus t = List.filter (fun c -> cpu_is_idle t c) (enclave_cpu_list t)

let curr_on t c = t.ops.op_curr_on c
let latched_on t c = t.ops.op_latched_on c
let lower_class_waiting t c = t.ops.op_lower_class_waiting c
let managed_threads t = t.ops.op_managed_threads ()
let status_word t task = t.ops.op_status_word task
let thread_seq t task = t.ops.op_thread_seq task
let task_by_tid t tid = t.ops.op_task_by_tid tid
let topology t = t.ops.op_topology ()
let core_class t c = t.ops.op_core_class c
let bpf_install t p = t.ops.op_bpf_install p
let bpf_remove t hook = t.ops.op_bpf_remove hook
let bpf_map_update t ~map ~idx v = t.ops.op_bpf_map_update ~map ~idx v
let bpf_map_get t ~map ~idx = t.ops.op_bpf_map_get ~map ~idx
