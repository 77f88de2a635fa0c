module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent

let ms = Sim.Units.ms

type window = { w_start : int; completions : int; p99 : int }

type result = {
  upgrade_at : int;
  window_ns : int;
  baseline : window list;
  faulted : window list;
  report : Faults.Report.t;
  baseline_p99_us : float;
  spike_p99_us : float;
  spike_width_ms : float;
  degraded : int;
  recovered_ratio : float;
  recovered : bool;
}

let machine =
  {
    Hw.Machines.name = "upgrade-9c";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:9 ~smt:1;
    costs = Hw.Costs.skylake;
  }

let service = Sim.Dist.Exponential 10_000.0
let rate = 400_000.0
let handoff_gap = 100_000

(* One run of the serving stack with [plan] armed.  Returns the completion
   samples [(completion_time, latency)] in completion order plus the
   injector's recovery report. *)
let run_one ~seed ~warmup_ns ~measure_ns ~plan =
  let kernel, sys = Common.make_system ~seed machine in
  let e =
    System.create_enclave sys ~watchdog_timeout:(ms 50)
      ~cpus:(Kernel.full_mask kernel) ()
  in
  let mk_policy () =
    snd (Policies.Shinjuku.policy ~is_batch:(fun _ -> false) ())
  in
  let g = Agent.attach_global sys e (mk_policy ()) in
  let spawn ~idx behavior =
    Common.spawn_ghost kernel e ~name:(Printf.sprintf "w%d" idx) behavior
  in
  let ol =
    Workloads.Openloop.create kernel ~seed ~rate ~service ~nworkers:64 ~spawn
  in
  Workloads.Openloop.set_record_after ol warmup_ns;
  let samples = ref [] in
  Workloads.Openloop.set_on_complete ol
    (Some (fun ~now ~arrival -> samples := (now, now - arrival) :: !samples));
  let inj =
    Faults.Injector.arm ~rng:(Kernel.rng kernel)
      {
        Faults.Injector.sys;
        enclave = e;
        group = Some g;
        replace =
          Some
            (fun ?abi () ->
              let pol = mk_policy () in
              let pol =
                match abi with
                | None -> pol
                | Some v -> { pol with Agent.abi_version = v }
              in
              Agent.attach_global sys e pol);
      }
      plan
  in
  Workloads.Openloop.start ol ~until:(warmup_ns + measure_ns);
  Kernel.run_until kernel (warmup_ns + measure_ns + ms 50);
  (List.rev !samples, Faults.Injector.report inj)

(* --- Windowing ---------------------------------------------------------------- *)

let p99_of_array a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    Array.sort compare a;
    a.(min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1 |> max 0))
  end

let p99_of_samples samples ~from ~until =
  let picked =
    List.filter_map
      (fun (now, lat) -> if now >= from && now < until then Some lat else None)
      samples
  in
  p99_of_array (Array.of_list picked)

let windows_of samples ~t0 ~window_ns ~nwindows =
  let buckets = Array.make nwindows [] in
  List.iter
    (fun (now, lat) ->
      let i = (now - t0) / window_ns in
      if i >= 0 && i < nwindows then buckets.(i) <- lat :: buckets.(i))
    samples;
  List.init nwindows (fun i ->
      let lats = Array.of_list buckets.(i) in
      {
        w_start = t0 + (i * window_ns);
        completions = Array.length lats;
        p99 = p99_of_array lats;
      })

(* --- The experiment ----------------------------------------------------------- *)

let warmup_ns = ms 50

let attached (report : Faults.Report.t) =
  report.replaced_at <> None && report.destroy_reason = None

let run ?plan ~seed ~measure_ns () =
  let window_ns = ms 10 in
  let run_end = warmup_ns + measure_ns in
  let plan =
    match plan with
    | Some p -> p
    | None ->
      Faults.Plan.make ~name:"in-place upgrade"
        [
          {
            at = warmup_ns + (measure_ns / 3);
            jitter = 0;
            kind = Upgrade { handoff_gap; abi = None };
          };
        ]
  in
  (* The recovery is measured from the plan's first fault, so that fault
     must fall inside the measured window. *)
  let upgrade_at =
    match plan.Faults.Plan.events with
    | e :: _ when e.Faults.Plan.at >= warmup_ns && e.Faults.Plan.at < run_end ->
      e.Faults.Plan.at
    | _ ->
      invalid_arg
        (Printf.sprintf
           "upgrade: plan %S has no first event in the measured window \
            [%gms, %gms)"
           (Faults.Plan.to_string plan)
           (float_of_int warmup_ns /. 1e6)
           (float_of_int run_end /. 1e6))
  in
  let base_samples, _ =
    run_one ~seed ~warmup_ns ~measure_ns ~plan:Faults.Plan.empty
  in
  let fault_samples, report = run_one ~seed ~warmup_ns ~measure_ns ~plan in
  let nwindows = measure_ns / window_ns in
  let baseline =
    windows_of base_samples ~t0:warmup_ns ~window_ns ~nwindows
  in
  let faulted =
    windows_of fault_samples ~t0:warmup_ns ~window_ns ~nwindows
  in
  let baseline_p99 = p99_of_samples base_samples ~from:warmup_ns ~until:run_end in
  (* Peak windowed p99 at or after the fault. *)
  let spike_p99 =
    List.fold_left2
      (fun acc (w : window) (_ : window) ->
        if w.w_start + window_ns > upgrade_at then max acc w.p99 else acc)
      0 faulted baseline
  in
  (* First window after the fault whose p99 is back within 10% of the
     undisturbed run's p99 for the same window. *)
  let recovered_until =
    let rec find = function
      | [], [] -> run_end
      | (f : window) :: frest, (b : window) :: brest ->
        if f.w_start >= upgrade_at && float_of_int f.p99 <= 1.10 *. float_of_int b.p99
        then f.w_start
        else find (frest, brest)
      | _ -> run_end
    in
    find (faulted, baseline)
  in
  let spike_width = max 0 (recovered_until - upgrade_at) in
  let degraded =
    List.length
      (List.filter
         (fun (now, lat) ->
           now >= upgrade_at && now < recovered_until && lat > baseline_p99)
         fault_samples)
  in
  (* Post-recovery tail: the back half after the spike has settled. *)
  let settle = upgrade_at + spike_width + window_ns in
  let post_b = p99_of_samples base_samples ~from:settle ~until:run_end in
  let post_f = p99_of_samples fault_samples ~from:settle ~until:run_end in
  let recovered_ratio =
    if post_b = 0 then if post_f = 0 then 1.0 else infinity
    else float_of_int post_f /. float_of_int post_b
  in
  report.Faults.Report.degraded_requests <- Some degraded;
  report.Faults.Report.recovered_p99_ratio <- Some recovered_ratio;
  {
    upgrade_at;
    window_ns;
    baseline;
    faulted;
    report;
    baseline_p99_us = float_of_int baseline_p99 /. 1e3;
    spike_p99_us = float_of_int spike_p99 /. 1e3;
    spike_width_ms = float_of_int spike_width /. 1e6;
    degraded;
    recovered_ratio;
    recovered = recovered_ratio <= 1.10 && attached report;
  }

(* --- Rejected upgrade --------------------------------------------------------- *)

type rejected = {
  rej_report : Faults.Report.t;
  rej_abi : int;  (** The (unsupported) ABI version the replacement claimed. *)
  rejected_ok : bool;
      (** Attachment was refused AND the enclave fell back to CFS via the
          agent-crash grace period — the §3.4 failure containment story. *)
}

let run_rejected ~seed ~measure_ns ~upgrade_offset =
  let rej_abi = Ghost.Abi.version + 1 in
  let upgrade_at = warmup_ns + upgrade_offset in
  let plan =
    Faults.Plan.make ~name:"rejected upgrade"
      [
        {
          at = upgrade_at;
          jitter = 0;
          kind = Upgrade { handoff_gap; abi = Some rej_abi };
        };
      ]
  in
  let _, rej_report = run_one ~seed ~warmup_ns ~measure_ns ~plan in
  let rejected_ok =
    rej_report.Faults.Report.rejected_at <> None
    && rej_report.Faults.Report.replaced_at = None
    && rej_report.Faults.Report.destroy_reason = Some "agent-crash"
  in
  { rej_report; rej_abi; rejected_ok }

let print_rejected r =
  Gstats.Table.print_title
    (Printf.sprintf
       "Rejected upgrade: replacement speaks ABI v%d, runtime speaks v%d"
       r.rej_abi Ghost.Abi.version);
  Faults.Report.print r.rej_report

let print r =
  Gstats.Table.print_title
    "Fig. 9: in-place agent upgrade under load (windowed p99)";
  let rows =
    List.map2
      (fun (b : window) (f : window) ->
        let mark =
          if
            f.w_start <= r.upgrade_at
            && r.upgrade_at < f.w_start + r.window_ns
          then " <- fault"
          else ""
        in
        [
          Printf.sprintf "%.0f" (float_of_int f.w_start /. 1e6);
          string_of_int b.completions;
          Common.fmt_us b.p99;
          string_of_int f.completions;
          Common.fmt_us f.p99 ^ mark;
        ])
      r.baseline r.faulted
  in
  Gstats.Table.print
    ~header:
      [ "window (ms)"; "base done"; "base p99 us"; "faulted done";
        "faulted p99 us" ]
    rows;
  (* The report already carries the degraded requests and the post-recovery
     p99 ratio. *)
  Faults.Report.print r.report;
  Printf.printf "spike: p99 %.1fus (baseline %.1fus), width %.1fms\n"
    r.spike_p99_us r.baseline_p99_us r.spike_width_ms
