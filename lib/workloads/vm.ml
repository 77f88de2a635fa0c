module Task = Kernel.Task
module Topology = Hw.Topology

type t = {
  mutable tasks : Task.t list;
  total_work : int;
  mutable done_count : int;
  mutable last_done : int;
  n : int;
}

(* bwaves is memory-bound: when both hyperthreads of a core execute, each
   makes progress at [smt_factor] of its solo speed (SPEC-rate runs scale to
   ~1.6x per core with two copies).  Sampled per slice at the slice's end.
   This is what core scheduling's forced pairing (and CFS's incidental
   sharing) pays for in Table 4. *)
let smt_factor = 0.80

let smt_behavior kernel ~work ~slice t cell () =
  let progress ns =
    let busy_sibling =
      match !cell with
      | None -> false
      | Some (task : Task.t) -> (
        match Topology.sibling_of (Kernel.topo kernel) task.Task.cpu with
        | None -> false
        | Some s -> (
          match Kernel.curr kernel s with
          | Some (other : Task.t) -> not other.Task.is_agent
          | None -> false))
    in
    if busy_sibling then Int.max 1 (int_of_float (smt_factor *. float_of_int ns))
    else ns
  in
  let rec step left () =
    if left <= 0 then begin
      t.done_count <- t.done_count + 1;
      t.last_done <- Kernel.now kernel;
      Task.Exit
    end
    else begin
      let ns = Int.min slice left in
      Task.Run { ns; after = (fun () -> step (left - progress ns) ()) }
    end
  in
  step work ()

let create kernel ?sizes ~nvms ~vcpus ~work
    ?(slice = 250_000) ?(stagger = 2_000_000) ~spawn () =
  (* [sizes] overrides the uniform nvms x vcpus shape: one entry per VM.
     Odd sizes matter — a VM with an odd vCPU count strands a hyperthread
     under core scheduling. *)
  let sizes =
    match sizes with Some l -> l | None -> List.init nvms (fun _ -> vcpus)
  in
  let total = List.fold_left ( + ) 0 sizes in
  let t =
    { tasks = []; total_work = total * work; done_count = 0; last_done = 0; n = total }
  in
  let mk vm vcpu =
    let cell = ref None in
    let task =
      spawn ~vm ~vcpu ~cookie:(vm + 1)
        (smt_behavior kernel ~work ~slice t cell)
    in
    cell := Some task;
    t.tasks <- task :: t.tasks
  in
  (* VMs boot one after another (staggered), so placement decisions see the
     machine as it fills up — all vCPUs appearing in the same instant is not
     a scenario any cloud host faces. *)
  List.iteri
    (fun vm count ->
      if stagger = 0 then List.iter (fun vcpu -> mk vm vcpu) (List.init count Fun.id)
      else
        ignore
          (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(1 + (vm * stagger))
             (fun () -> List.iter (fun vcpu -> mk vm vcpu) (List.init count Fun.id))))
    sizes;
  t

let tasks t = t.tasks
let all_done t = t.done_count = t.n
let makespan t = if all_done t then Some t.last_done else None

let rate t =
  match makespan t with
  | Some span when span > 0 -> Some (float_of_int t.total_work /. float_of_int span)
  | Some _ | None -> None
