module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Abi = Ghost.Abi
module Msg = Ghost.Msg
module Txn = Ghost.Txn

type line = {
  label : string;
  paper_ns : int;
  measured_ns : int;
  samples : int;
}

let us = Sim.Units.us
let ms = Sim.Units.ms

let mean xs =
  match xs with
  | [] -> 0
  | _ -> List.fold_left ( + ) 0 xs / List.length xs

(* A sleeping thread whose only job is to exist and report when it starts
   executing. *)
let probe_thread kernel ~name ~on_exec =
  Kernel.create_task kernel ~name (fun () ->
      let rec loop () =
        Task.Block
          {
            after =
              (fun () ->
                on_exec (Kernel.now kernel);
                Task.Run { ns = us 3; after = loop });
          }
      in
      loop ())

(* --- Message delivery ------------------------------------------------------- *)

(* Drive THREAD_AFFINITY messages at a steady pace and record how long each
   takes to reach the policy's schedule callback. *)
let measure_delivery ~seed ~local ~samples =
  let kernel, sys = Common.make_system ~seed Hw.Machines.skylake_2s in
  let e =
    System.create_enclave sys ~cpus:(Common.mask_of kernel [ 0; 1; 2; 3 ]) ()
  in
  let consume = (Kernel.costs kernel).Hw.Costs.msg_consume in
  let lats = ref [] in
  let pol =
    Agent.make_policy ~name:"measure-delivery"
      ~schedule:(fun ctx msgs ->
        List.iter
          (fun (m : Msg.t) ->
            if m.kind = Msg.THREAD_AFFINITY then
              lats := Abi.now ctx - m.posted_at + consume :: !lats)
          msgs)
      ()
  in
  let _g =
    if local then Agent.attach_local sys e pol
    else Agent.attach_global sys e ~min_iteration:135 ~idle_gap:135 pol
  in
  let victim = probe_thread kernel ~name:"victim" ~on_exec:ignore in
  System.manage e victim;
  Kernel.start kernel victim;
  let mask_a = Common.mask_of kernel [ 1; 2 ] in
  let mask_b = Common.mask_of kernel [ 1; 2; 3 ] in
  let flip = ref false in
  let rec driver n () =
    if n > 0 then begin
      flip := not !flip;
      Kernel.set_affinity kernel victim (if !flip then mask_a else mask_b);
      ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(us 20) (driver (n - 1)))
    end
  in
  ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(us 10) (driver samples));
  Kernel.run_until kernel (us (40 * (samples + 10)));
  (mean !lats, List.length !lats)

(* --- Local schedule ---------------------------------------------------------- *)

(* A local agent commits a thread onto its own CPU; we time from commit
   initiation (apply time minus the charged commit work) to the thread
   executing. *)
let measure_local_schedule ~seed ~samples =
  let kernel, sys = Common.make_system ~seed Hw.Machines.skylake_2s in
  let e = System.create_enclave sys ~cpus:(Common.mask_of kernel [ 0; 1 ]) () in
  let commit_work = (Kernel.costs kernel).Hw.Costs.txn_commit_local in
  let execs = ref [] in
  let applies = ref [] in
  let victim =
    probe_thread kernel ~name:"victim" ~on_exec:(fun t -> execs := t :: !execs)
  in
  let pol =
    Agent.make_policy ~name:"measure-local"
      ~schedule:(fun ctx msgs ->
        List.iter
          (fun (m : Msg.t) ->
            match Policies.Msg_class.classify m with
            | Policies.Msg_class.Became_runnable tid when tid = victim.Task.tid ->
              let txn =
                Abi.make_txn ctx ~tid ~target:(Abi.cpu ctx) ~with_aseq:true ()
              in
              Abi.submit ctx [ txn ]
            | _ -> ())
          msgs)
      ~on_result:(fun ctx txn ->
        if Txn.committed txn then applies := Abi.now ctx :: !applies)
      ()
  in
  let _g = Agent.attach_local sys e pol in
  System.manage e victim;
  Kernel.start kernel victim;
  let rec driver n () =
    if n > 0 then begin
      Kernel.wake kernel victim;
      ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(us 30) (driver (n - 1)))
    end
  in
  ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(us 10) (driver samples));
  Kernel.run_until kernel (us (40 * (samples + 10)));
  (* The very first commit (on THREAD_CREATED) dispatches the probe into its
     initial Block without recording an exec; drop it to keep pairs aligned. *)
  let applies = match List.rev !applies with _ :: rest -> rest | [] -> [] in
  let execs = List.rev !execs in
  let n = min (List.length applies) (List.length execs) in
  let trim xs = List.filteri (fun i _ -> i < n) xs in
  let lats = List.map2 (fun a x -> x - a + commit_work) (trim applies) (trim execs) in
  (mean lats, List.length lats)

(* --- Remote schedule --------------------------------------------------------- *)

(* The global agent on CPU 0 commits [batch] threads to [batch] remote CPUs
   in one TXNS_COMMIT.  Agent overhead is the charged commit cost; target
   overhead and end-to-end latency are measured from the apply instant. *)
let measure_remote ~seed ~batch ~samples =
  let kernel, sys = Common.make_system ~seed Hw.Machines.skylake_2s in
  let cpus = List.init (batch + 1) (fun i -> i) in
  let e = System.create_enclave sys ~cpus:(Common.mask_of kernel cpus) () in
  let costs = Kernel.costs kernel in
  let agent_cost =
    costs.Hw.Costs.txn_group_fixed + (batch * costs.Hw.Costs.txn_group_per_txn)
  in
  let round_execs = ref [] in
  let execs = ref [] in
  let applies = ref [] in
  let victims =
    List.init batch (fun i ->
        probe_thread kernel
          ~name:(Printf.sprintf "victim%d" i)
          ~on_exec:(fun t -> execs := t :: !execs))
  in
  let runnable = Hashtbl.create 16 in
  let pol =
    Agent.make_policy ~name:"measure-remote"
      ~schedule:(fun ctx msgs ->
        List.iter
          (fun (m : Msg.t) ->
            match Policies.Msg_class.classify m with
            | Policies.Msg_class.Became_runnable tid -> Hashtbl.replace runnable tid ()
            | _ -> ())
          msgs;
        if Hashtbl.length runnable = batch then begin
          let txns =
            List.mapi
              (fun i (v : Task.t) ->
                Abi.make_txn ctx ~tid:v.Task.tid ~target:(i + 1) ())
              victims
          in
          Hashtbl.reset runnable;
          Abi.submit ctx txns
        end)
      ~on_result:(fun ctx txn ->
        if Txn.committed txn then
          match !applies with
          | t :: _ when t = Abi.now ctx -> ()
          | _ -> applies := Abi.now ctx :: !applies)
      ()
  in
  let _g = Agent.attach_global sys e ~min_iteration:135 ~idle_gap:135 pol in
  List.iter
    (fun v ->
      System.manage e v;
      Kernel.start kernel v)
    victims;
  let rec driver n () =
    if n > 0 then begin
      (* Collect the previous round's executions. *)
      if List.length !execs = batch then round_execs := !execs :: !round_execs;
      execs := [];
      List.iter (Kernel.wake kernel) victims;
      ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(us 50) (driver (n - 1)))
    end
  in
  ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(us 10) (driver samples));
  Kernel.run_until kernel (us (60 * (samples + 10)));
  let rounds = List.rev !round_execs in
  (* Drop the THREAD_CREATED commit round: the probes block immediately and
     record no exec for it. *)
  let applies = match List.rev !applies with _ :: rest -> rest | [] -> [] in
  let n = min (List.length rounds) (List.length applies) in
  let rounds = List.filteri (fun i _ -> i < n) rounds in
  let applies = List.filteri (fun i _ -> i < n) applies in
  let e2e =
    List.map2
      (fun round apply ->
        let last = List.fold_left max 0 round in
        last - apply + agent_cost)
      rounds applies
  in
  let target =
    List.map2
      (fun round apply ->
        let last = List.fold_left max 0 round in
        let wire = costs.Hw.Costs.ipi_wire in
        last - apply - wire)
      rounds applies
  in
  (agent_cost, mean target, mean e2e, List.length e2e)

(* --- Assembly ---------------------------------------------------------------- *)

let run ~samples ~seed =
  let c = Hw.Costs.skylake in
  let local_delivery, n1 = measure_delivery ~seed ~local:true ~samples in
  let global_delivery, n2 = measure_delivery ~seed ~local:false ~samples in
  let local_sched, n3 = measure_local_schedule ~seed ~samples in
  let r1_agent, r1_target, r1_e2e, n4 = measure_remote ~seed ~batch:1 ~samples in
  let r10_agent, r10_target, r10_e2e, n5 =
    measure_remote ~seed ~batch:10 ~samples:(max 50 (samples / 2))
  in
  [
    { label = "1. Message delivery to local agent"; paper_ns = 725;
      measured_ns = local_delivery; samples = n1 };
    { label = "2. Message delivery to global agent"; paper_ns = 265;
      measured_ns = global_delivery; samples = n2 };
    { label = "3. Local schedule (1 txn)"; paper_ns = 888;
      measured_ns = local_sched; samples = n3 };
    { label = "4. Remote schedule: agent overhead"; paper_ns = 668;
      measured_ns = r1_agent; samples = n4 };
    { label = "5. Remote schedule: target CPU overhead"; paper_ns = 1064;
      measured_ns = r1_target; samples = n4 };
    { label = "6. Remote schedule: end-to-end"; paper_ns = 1772;
      measured_ns = r1_e2e; samples = n4 };
    { label = "7. Group (10 txns): agent overhead"; paper_ns = 3964;
      measured_ns = r10_agent; samples = n5 };
    { label = "8. Group (10 txns): target CPU overhead"; paper_ns = 1821;
      measured_ns = r10_target; samples = n5 };
    { label = "9. Group (10 txns): end-to-end"; paper_ns = 5688;
      measured_ns = r10_e2e; samples = n5 };
    { label = "10. Syscall overhead"; paper_ns = 72;
      measured_ns = c.Hw.Costs.syscall; samples = 1 };
    { label = "11. pthread minimal context switch"; paper_ns = 410;
      measured_ns = c.Hw.Costs.ctx_switch; samples = 1 };
    { label = "12. CFS context switch"; paper_ns = 599;
      measured_ns = c.Hw.Costs.cfs_ctx_switch; samples = 1 };
  ]

let print lines =
  Gstats.Table.print_title "Table 3: ghOSt microbenchmarks (ns)";
  let rows =
    List.map
      (fun l ->
        let delta =
          if l.paper_ns = 0 then "-"
          else
            Printf.sprintf "%+.0f%%"
              (100.0
              *. (float_of_int l.measured_ns -. float_of_int l.paper_ns)
              /. float_of_int l.paper_ns)
        in
        [
          l.label;
          string_of_int l.paper_ns;
          string_of_int l.measured_ns;
          delta;
          string_of_int l.samples;
        ])
      lines
  in
  Gstats.Table.print ~header:[ "operation"; "paper"; "measured"; "delta"; "n" ] rows;
  ignore ms
