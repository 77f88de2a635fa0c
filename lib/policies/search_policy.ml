(* Search-style cache-aware policy (§4.4) on the DSL: a least-runtime
   run-queue ([Dsl.Rq.least]) drained through a bespoke placement pass that
   walks CPUs in increasing cache distance and briefly holds threads rather
   than paying a CCX migration. *)

module Abi = Dsl.Abi
module Task = Dsl.Task
module Topology = Dsl.Topology
module Cpumask = Dsl.Cpumask

type config = {
  numa_aware : bool;
  ccx_aware : bool;
  pending_wait : int option;
  fastpath : bool;
}

let default_config =
  { numa_aware = true; ccx_aware = true; pending_wait = Some 100_000; fastpath = false }

type stats = {
  mutable placed_core : int;
  mutable placed_ccx : int;
  mutable placed_socket : int;
  mutable placed_remote : int;
  mutable skipped : int;
  mutable held_pending : int;
  mutable estales : int;
}

type t = {
  config : config;
  rq : Dsl.Rq.t;  (* tid keyed by elapsed runtime *)
  pending_since : (int, int) Hashtbl.t;
  stats : stats;
  fp : Dsl.Fastpath.t option;
}

let stats t = t.stats

(* Heap key: elapsed runtime, biased by the application's scheduling hint
   (4.4's nice-value discussion: background threads advertise a large hint
   and sink below fresh workers). *)
let key_of ctx (task : Task.t) =
  match Abi.status_word ctx task with
  | Some sw -> sw.Dsl.Status_word.sum_exec + sw.Dsl.Status_word.hint
  | None -> task.Task.sum_exec

let feed t ctx msgs =
  List.iter
    (fun msg ->
      Abi.charge ctx 25;
      match Dsl.Msg_class.classify msg with
      | Dsl.Msg_class.Became_runnable tid -> Dsl.Rq.push t.rq ctx tid
      | Dsl.Msg_class.Not_runnable tid | Dsl.Msg_class.Died tid ->
        Dsl.Rq.drop t.rq tid;
        Hashtbl.remove t.pending_since tid
      | Dsl.Msg_class.Affinity_changed _ | Dsl.Msg_class.Tick _
      | Dsl.Msg_class.Cpu_available _ | Dsl.Msg_class.Cpu_taken _ -> ())
    msgs

(* Candidate CPUs in increasing cache distance from [last]: the physical
   core first, then the CCX, then neighbour CCXs fanned out by closeness
   (same socket first when NUMA-aware), then everything. *)
let candidate_order t topo last =
  if not t.config.ccx_aware then Topology.cpus topo
  else begin
    let core = Topology.cpus_of_core topo (Topology.core_of topo last) in
    let ccx_id = Topology.ccx_of topo last in
    let ccx = Topology.cpus_of_ccx topo ccx_id in
    let neighbours = Topology.ccx_neighbors_by_distance topo ccx_id in
    let neighbours =
      if t.config.numa_aware then neighbours
      else List.sort compare neighbours
    in
    core @ ccx @ List.concat_map (Topology.cpus_of_ccx topo) neighbours
  end

let find_idle t ctx assigned (task : Task.t) =
  let topo = Abi.topology ctx in
  let last = if task.Task.cpu >= 0 then task.Task.cpu else 0 in
  let agent_cpu = Abi.cpu ctx in
  let enclave_cpus = Abi.enclave_cpu_list ctx in
  let ok cpu =
    cpu <> agent_cpu
    && List.mem cpu enclave_cpus
    && (not (Hashtbl.mem assigned cpu))
    && Cpumask.mem task.Task.affinity cpu
    && Abi.cpu_is_idle ctx cpu
  in
  let rec scan = function
    | [] -> None
    | cpu :: rest -> if ok cpu then Some cpu else scan rest
  in
  scan (candidate_order t topo last)

let note_placement t topo last cpu =
  match Topology.distance topo last cpu with
  | Topology.Same_cpu | Topology.Smt_sibling -> t.stats.placed_core <- t.stats.placed_core + 1
  | Topology.Same_ccx -> t.stats.placed_ccx <- t.stats.placed_ccx + 1
  | Topology.Same_socket -> t.stats.placed_socket <- t.stats.placed_socket + 1
  | Topology.Cross_socket -> t.stats.placed_remote <- t.stats.placed_remote + 1

(* §3.5: a thread with no idle CPU in its mask goes to the pick ring so
   the first enclave CPU to go idle dispatches it without a round-trip. *)
let fp_publish t ctx (task : Task.t) =
  match t.fp with
  | None -> ()
  | Some fp -> ignore (Dsl.Fastpath.publish fp ctx task.Task.tid)

let schedule t ctx msgs =
  feed t ctx msgs;
  (match t.fp with None -> () | Some fp -> Dsl.Fastpath.reconcile fp ctx);
  let topo = Abi.topology ctx in
  let now = Abi.now ctx in
  let com = Dsl.Commit.create () in
  let assigned = Hashtbl.create 16 in
  let revisit = ref [] in
  let rec drain () =
    match Dsl.Rq.pop_entry t.rq with
    | None -> ()
    | Some (key, tid) ->
      Abi.charge ctx 30;
      (match Abi.task_by_tid ctx tid with
      | Some task when Task.is_runnable task -> (
        let last = if task.Task.cpu >= 0 then task.Task.cpu else 0 in
        match find_idle t ctx assigned task with
        | Some cpu ->
          let close_enough =
            match t.config.pending_wait with
            | None -> true
            | Some wait -> (
              (* Prefer to keep the thread pending briefly rather than pay a
                 CCX migration (§4.4's 100us rule). *)
              Topology.same_ccx topo last cpu
              ||
              match Hashtbl.find_opt t.pending_since tid with
              | Some since -> now - since >= wait
              | None ->
                Hashtbl.replace t.pending_since tid now;
                false)
          in
          if close_enough then begin
            Hashtbl.remove t.pending_since tid;
            Dsl.Rq.drop t.rq tid;
            Hashtbl.replace assigned cpu ();
            note_placement t topo last cpu;
            Dsl.Commit.add ctx com task cpu
          end
          else begin
            t.stats.held_pending <- t.stats.held_pending + 1;
            revisit := (key, tid) :: !revisit
          end
        | None ->
          t.stats.skipped <- t.stats.skipped + 1;
          fp_publish t ctx task;
          revisit := (key, tid) :: !revisit)
      | Some _ | None ->
        Dsl.Rq.drop t.rq tid;
        Hashtbl.remove t.pending_since tid);
      drain ()
  in
  drain ();
  List.iter (fun (key, tid) -> Dsl.Rq.requeue_entry t.rq ~key tid) !revisit;
  Dsl.Commit.submit ctx com

let on_outcome t ctx (o : Dsl.Outcome.t) =
  match o with
  | Dsl.Outcome.Committed _ | Dsl.Outcome.Gone _ | Dsl.Outcome.Pending -> ()
  | Dsl.Outcome.Rejected { tid; estale } ->
    if estale then t.stats.estales <- t.stats.estales + 1;
    Dsl.Rq.push t.rq ctx tid

let policy ?(config = default_config) () =
  let fp = if config.fastpath then Some (Dsl.Fastpath.create ()) else None in
  let t =
    {
      config;
      rq = Dsl.Rq.least key_of;
      pending_since = Hashtbl.create 256;
      stats =
        {
          placed_core = 0;
          placed_ccx = 0;
          placed_socket = 0;
          placed_remote = 0;
          skipped = 0;
          held_pending = 0;
          estales = 0;
        };
      fp;
    }
  in
  let pol =
    Dsl.agent ~name:"search"
      ~init:(fun ctx ->
        List.iter
          (fun (task : Task.t) ->
            if Task.is_runnable task then Dsl.Rq.push t.rq ctx task.Task.tid)
          (Abi.managed_threads ctx);
        match t.fp with
        | None -> ()
        | Some fp -> ignore (Dsl.Fastpath.install_pick fp ctx))
      ~schedule:(fun ctx msgs -> schedule t ctx msgs)
      ~on_outcome:(fun ctx o -> on_outcome t ctx o)
      ()
  in
  (t, pol)
