module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Topology = Hw.Topology

type row = {
  label : string;
  rate : float;
  total_s : float;
  violations : int;
}

type mode = Plain_cfs | Kernel_cs | Ghost_cs | Ghost_cs_solo

let label_of = function
  | Plain_cfs -> "CFS (no security)"
  | Kernel_cs -> "In-kernel Core Scheduling"
  | Ghost_cs -> "ghOSt Core Scheduling"
  | Ghost_cs_solo -> "ghOSt CS + solo-placement opt"

let vcpu_cores = 25 (* 50 logical CPUs *)

let run_mode mode ~seed ~work_ns =
  let machine = Hw.Machines.skylake_2s in
  let kernel, sys =
    Common.make_system ~core_sched:(mode = Kernel_cs) ~seed machine
  in
  ignore sys;
  let vcpu_cpus = List.init (2 * vcpu_cores) (fun i -> i) in
  let vcpu_mask = Common.mask_of kernel vcpu_cpus in
  let enclave =
    match mode with
    | Ghost_cs | Ghost_cs_solo ->
      (* The agent spins on CPU 50; its core (50,51) is excluded from VM
         placement by the policy. *)
      let cpus = Common.mask_of kernel (vcpu_cpus @ [ 50; 51 ]) in
      let e = System.create_enclave sys ~cpus () in
      let _st, pol =
        Policies.Secure_vm.policy ~quantum:(Sim.Units.us 500)
          ~eager_pairing:(mode = Ghost_cs) ()
      in
      let _g = Agent.attach_global sys e ~idle_gap:2_000 pol in
      Some e
    | Plain_cfs | Kernel_cs -> None
  in
  let spawn ~vm ~vcpu ~cookie behavior =
    let name = Printf.sprintf "vm%d-vcpu%d" vm vcpu in
    match enclave with
    | Some e ->
      Common.spawn_ghost kernel e ~affinity:vcpu_mask ~cookie ~name behavior
    | None -> Common.spawn_cfs kernel ~affinity:vcpu_mask ~cookie ~name behavior
  in
  (* 32 vCPUs in a realistic mixed fleet: several odd-sized VMs, which is
     what strands hyperthreads under core scheduling. *)
  let wl =
    Workloads.Vm.create kernel ~sizes:[ 5; 5; 5; 5; 4; 4; 4 ] ~nvms:7 ~vcpus:4
      ~work:work_ns ~spawn ()
  in
  (* Sample the security invariant: no physical core may simultaneously run
     vCPUs of two different VMs (under the secure schedulers). *)
  let violations = ref 0 in
  let topo = Kernel.topo kernel in
  let rec sample () =
    List.iter
      (fun core ->
        match Topology.cpus_of_core topo core with
        | [ a; b ] -> (
          match (Kernel.curr kernel a, Kernel.curr kernel b) with
          | Some x, Some y
            when x.Task.cookie <> 0 && y.Task.cookie <> 0
                 && x.Task.cookie <> y.Task.cookie ->
            incr violations
          | _ -> ())
        | _ -> ())
      (List.init vcpu_cores (fun i -> i));
    ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(Sim.Units.us 100) sample)
  in
  ignore (Sim.Engine.post_in (Kernel.engine kernel) ~delay:(Sim.Units.us 100) sample);
  (* Run to completion. *)
  let limit = 40 * work_ns in
  let rec drive () =
    if (not (Workloads.Vm.all_done wl)) && Kernel.now kernel < limit then begin
      Kernel.run_for kernel (Sim.Units.ms 50);
      drive ()
    end
  in
  drive ();
  let span = match Workloads.Vm.makespan wl with Some s -> s | None -> limit in
  {
    label = label_of mode;
    rate = (match Workloads.Vm.rate wl with Some r -> r | None -> 0.0);
    total_s = float_of_int span /. 1e9;
    violations = !violations;
  }

let run ~work_ns ~seed =
  [
    run_mode Plain_cfs ~seed ~work_ns;
    run_mode Kernel_cs ~seed ~work_ns;
    run_mode Ghost_cs ~seed ~work_ns;
    run_mode Ghost_cs_solo ~seed ~work_ns;
  ]

let print rows =
  Gstats.Table.print_title "Table 4: Secure VM Core Scheduling";
  let base = match rows with r :: _ -> r.total_s | [] -> 1.0 in
  Gstats.Table.print
    ~header:[ "scheduling policy"; "rate (work/s)"; "total time (s)"; "vs CFS"; "violations" ]
    (List.map
       (fun r ->
         [
           r.label;
           Printf.sprintf "%.2f" r.rate;
           Printf.sprintf "%.3f" r.total_s;
           Printf.sprintf "%+.1f%%" (100.0 *. ((r.total_s /. base) -. 1.0));
           string_of_int r.violations;
         ])
       rows)
