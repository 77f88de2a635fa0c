(* Core-isolating VM policy (§4.5) on the DSL: per-VM cookie bucket queues
   ([Dsl.Buckets]) drained by a bespoke per-core pass that places whole
   cores atomically — pairing, solo placement with a forced-idle sibling,
   and quantum rotation between VMs. *)

module Abi = Dsl.Abi
module Task = Dsl.Task
module Topology = Dsl.Topology
module Cpumask = Dsl.Cpumask

type stats = {
  mutable pair_commits : int;
  mutable single_commits : int;
  mutable rotations : int;
  mutable estales : int;
}

type core_state = { mutable cookie : int; mutable since : int }

type t = {
  quantum : int;
  eager_pairing : bool;
  runnable : Dsl.Buckets.t;  (* cookie -> tids *)
  vm_runtime : (int, int) Hashtbl.t;  (* cookie -> accumulated runtime key *)
  cores : (int, core_state) Hashtbl.t;  (* physical core -> owner *)
  stats : stats;
}

let stats t = t.stats

let push t ctx tid = Dsl.Buckets.push_auto t.runnable ctx tid
let pop t ctx cookie = Dsl.Buckets.pop t.runnable ctx cookie

let feed t ctx msgs =
  List.iter
    (fun msg ->
      Abi.charge ctx 25;
      match Dsl.Msg_class.classify msg with
      | Dsl.Msg_class.Became_runnable tid -> push t ctx tid
      | Dsl.Msg_class.Not_runnable tid | Dsl.Msg_class.Died tid ->
        Dsl.Buckets.drop t.runnable tid
      | Dsl.Msg_class.Affinity_changed _ | Dsl.Msg_class.Tick _
      | Dsl.Msg_class.Cpu_available _ | Dsl.Msg_class.Cpu_taken _ -> ())
    msgs

(* VMs with waiting threads, least accumulated runtime first — the fair
   sharing of spare capacity on top of the quantum guarantee. *)
let waiting_vms t =
  Dsl.Buckets.fold
    (fun cookie rq acc -> if Dsl.Rq.is_empty rq then acc else cookie :: acc)
    t.runnable []
  |> List.sort (fun a b ->
         let ra = Option.value ~default:0 (Hashtbl.find_opt t.vm_runtime a) in
         let rb = Option.value ~default:0 (Hashtbl.find_opt t.vm_runtime b) in
         compare (ra, a) (rb, b))

let charge_vm t cookie ns =
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.vm_runtime cookie) in
  Hashtbl.replace t.vm_runtime cookie (prev + ns)

(* Physical cores of the enclave, as (core, cpu0, cpu1 option), excluding
   the core the agent itself spins on. *)
let enclave_cores ctx =
  let topo = Abi.topology ctx in
  let agent_core = Topology.core_of topo (Abi.cpu ctx) in
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun cpu ->
      let core = Topology.core_of topo cpu in
      if core = agent_core || Hashtbl.mem seen core then None
      else begin
        Hashtbl.replace seen core ();
        match Topology.cpus_of_core topo core with
        | [ a ] -> Some (core, a, None)
        | [ a; b ] -> Some (core, a, Some b)
        | _ -> None
      end)
    (Abi.enclave_cpu_list ctx)

(* A CPU is occupied if a ghOSt thread runs there or is latched onto it
   (committed but not yet dispatched) — ignoring latches would let the next
   pass displace half of a freshly committed pair. *)
let cpu_occupied ctx c =
  Abi.latched_on ctx c <> None
  ||
  match Abi.curr_on ctx c with
  | Some task -> task.Task.policy = Task.Ghost
  | None -> false

let occupied_count ctx cpu sibling =
  (if cpu_occupied ctx cpu then 1 else 0)
  + (match sibling with Some s when cpu_occupied ctx s -> 1 | Some _ | None -> 0)

let core_busy ctx cpu sibling = occupied_count ctx cpu sibling > 0

let commit_core t ctx ~core ~cpu0 ~cpu1 ~pair ?(need = 1) cookie =
  let take target =
    match pop t ctx cookie with
    | Some task when Cpumask.mem task.Task.affinity target ->
      Some (Abi.make_txn ctx ~tid:task.Task.tid ~target ())
    | Some task ->
      (* Wrong affinity for this core: requeue and skip. *)
      push t ctx task.Task.tid;
      None
    | None -> None
  in
  (* Occupied CPUs first: a takeover must displace the old VM before using
     the free sibling, or a partial commit would mix VMs on the core. *)
  let first, second =
    match cpu1 with
    | Some c1 when cpu_occupied ctx c1 && not (cpu_occupied ctx cpu0) ->
      (c1, Some cpu0)
    | other -> (cpu0, other)
  in
  let txns =
    match take first with
    | None -> []
    | Some t0 -> (
      match second with
      | None -> [ t0 ]
      | Some c1 when pair -> (
        match take c1 with None -> [ t0 ] | Some t1 -> [ t0; t1 ])
      | Some _ ->
        (* Solo placement: the sibling stays forced-idle for this VM;
           cheaper than SMT co-running when cores are plentiful. *)
        [ t0 ])
  in
  (* Displacing an occupied core with fewer threads than it runs would leave
     a sibling on the old VM: put the popped threads back instead. *)
  if List.length txns < need then begin
    List.iter (fun (txn : Dsl.Txn.t) -> push t ctx txn.Dsl.Txn.tid) txns;
    false
  end
  else begin
  match txns with
  | [] -> false
  | txns ->
    Abi.charge ctx 60;
    Abi.submit ctx ~atomic:true txns;
    (match txns with
    | [ _ ] -> t.stats.single_commits <- t.stats.single_commits + 1
    | _ -> t.stats.pair_commits <- t.stats.pair_commits + 1);
    let cs =
      match Hashtbl.find_opt t.cores core with
      | Some cs -> cs
      | None ->
        let cs = { cookie = 0; since = 0 } in
        Hashtbl.replace t.cores core cs;
        cs
    in
    cs.cookie <- cookie;
    cs.since <- Abi.now ctx;
    true
  end

let total_waiting t =
  Dsl.Buckets.fold (fun _ rq acc -> acc + Dsl.Rq.length rq) t.runnable 0

let schedule t ctx msgs =
  feed t ctx msgs;
  let now = Abi.now ctx in
  let cores = enclave_cores ctx in
  let free_cores =
    List.length (List.filter (fun (_, c0, c1) -> not (core_busy ctx c0 c1)) cores)
  in
  (* Pair vCPUs on a core only under core pressure: with enough free cores,
     solo placement (sibling forced-idle) avoids the SMT slowdown while
     still isolating VMs. *)
  let free_left = ref free_cores in
  List.iter
    (fun (core, cpu0, cpu1) ->
      Abi.charge ctx 35;
      let busy = core_busy ctx cpu0 cpu1 in
      if not busy then begin
        match waiting_vms t with
        | cookie :: _ ->
          let pair = t.eager_pairing || total_waiting t > !free_left in
          if commit_core t ctx ~core ~cpu0 ~cpu1 ~pair cookie then
            decr free_left
        | [] -> ()
      end
      else begin
        (* Quantum rotation for forward progress across VMs.  The incoming
           VM must fill every occupied sibling, or the core would
           transiently mix VMs. *)
        match Hashtbl.find_opt t.cores core with
        | Some cs when now - cs.since >= t.quantum -> (
          let occupied = occupied_count ctx cpu0 cpu1 in
          let eligible next = Dsl.Buckets.len t.runnable next >= occupied in
          match
            List.filter
              (fun c -> c <> cs.cookie && eligible c)
              (waiting_vms t)
          with
          | next :: _ ->
            charge_vm t cs.cookie (now - cs.since);
            if
              commit_core t ctx ~core ~cpu0 ~cpu1 ~pair:true
                ~need:(occupied_count ctx cpu0 cpu1) next
            then t.stats.rotations <- t.stats.rotations + 1
          | [] -> cs.since <- now)
        | Some _ | None -> ()
      end)
    cores

let on_outcome t ctx (o : Dsl.Outcome.t) =
  match o with
  | Dsl.Outcome.Committed _ | Dsl.Outcome.Gone _ | Dsl.Outcome.Pending -> ()
  | Dsl.Outcome.Rejected { tid; estale } ->
    if estale then t.stats.estales <- t.stats.estales + 1;
    push t ctx tid

let policy ?(quantum = 500_000) ?(eager_pairing = false) () =
  let t =
    {
      quantum;
      eager_pairing;
      runnable =
        Dsl.Buckets.create
          ~validate:(fun cookie _ task ->
            Task.is_runnable task && task.Task.cookie = cookie)
          ~bucket_of:(fun task -> task.Task.cookie)
          ();
      vm_runtime = Hashtbl.create 16;
      cores = Hashtbl.create 64;
      stats = { pair_commits = 0; single_commits = 0; rotations = 0; estales = 0 };
    }
  in
  (* Core-state entries for a removed CPU's core go away so a later pass
     does not treat the shrunk core as owned by a VM. *)
  let on_cpu_removed ctx cpu =
    let topo = Abi.topology ctx in
    Hashtbl.remove t.cores (Topology.core_of topo cpu)
  in
  let pol =
    Dsl.agent ~name:"secure-vm"
      ~init:(fun ctx ->
        List.iter
          (fun (task : Task.t) ->
            if Task.is_runnable task then push t ctx task.Task.tid)
          (Abi.managed_threads ctx))
      ~schedule:(fun ctx msgs -> schedule t ctx msgs)
      ~on_outcome:(fun ctx o -> on_outcome t ctx o)
      ~on_cpu_removed ()
  in
  (t, pol)
