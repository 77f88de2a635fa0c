(* Tests for the scheduling policies: min-heap, message classification, the
   centralized engines, Search placement, and the secure-VM invariants. *)

module Task = Kernel.Task
module Cpumask = Kernel.Cpumask
module System = Ghost.System
module Agent = Ghost.Agent
module Msg = Ghost.Msg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ?(smt = 1) ?(sockets = 1) ?(ccx = 1) ncores =
  {
    Hw.Machines.name = "test";
    topo = Hw.Topology.create ~sockets ~ccx_per_socket:ccx ~cores_per_ccx:ncores ~smt;
    costs = Hw.Costs.skylake;
  }

let setup ?smt ?sockets ?ccx ncores =
  let k = Kernel.create (machine ?smt ?sockets ?ccx ncores) in
  let sys = System.install k in
  (k, sys)

let finite k ~name ~total =
  let d = ref (-1) in
  let t =
    Kernel.create_task k ~name
      (Task.compute_total ~slice:(us 100) ~total (fun () ->
           d := Kernel.now k;
           Task.Exit))
  in
  (t, d)

(* --- Minheap ------------------------------------------------------------- *)

let test_minheap_order =
  QCheck.Test.make ~name:"minheap pops keys in order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Policies.Minheap.create () in
      List.iter (fun k -> Policies.Minheap.push h ~key:k k) keys;
      let rec drain last =
        match Policies.Minheap.pop h with
        | Some (k, _) -> k >= last && drain k
        | None -> true
      in
      drain min_int && Policies.Minheap.is_empty h)

let test_minheap_fifo_ties () =
  let h = Policies.Minheap.create () in
  List.iter (fun v -> Policies.Minheap.push h ~key:1 v) [ "a"; "b"; "c" ];
  let order =
    List.init 3 (fun _ ->
        match Policies.Minheap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "fifo among equal keys" [ "a"; "b"; "c" ] order

let test_minheap_misc () =
  let h = Policies.Minheap.create () in
  check_bool "empty" true (Policies.Minheap.is_empty h);
  Policies.Minheap.push h ~key:5 "x";
  Policies.Minheap.push h ~key:2 "y";
  check_int "length" 2 (Policies.Minheap.length h);
  (match Policies.Minheap.peek h with
  | Some (k, v) ->
    check_int "peek key" 2 k;
    Alcotest.(check string) "peek value" "y" v
  | None -> Alcotest.fail "peek on non-empty");
  check_int "peek does not remove" 2 (Policies.Minheap.length h)

let test_minheap_iter () =
  let h = Policies.Minheap.create () in
  let keys = [ 5; 2; 8; 1; 9; 3 ] in
  List.iter (fun k -> Policies.Minheap.push h ~key:k (10 * k)) keys;
  ignore (Policies.Minheap.pop h);
  let seen = ref [] in
  Policies.Minheap.iter
    (fun k v ->
      check_int "value travels with its key" (10 * k) v;
      seen := k :: !seen)
    h;
  Alcotest.(check (list int))
    "every live entry once" [ 2; 3; 5; 8; 9 ]
    (List.sort compare !seen);
  check_int "heap order: the minimum comes first" 2 (List.hd (List.rev !seen));
  check_int "iter does not remove" 5 (Policies.Minheap.length h)

(* --- Msg_class ------------------------------------------------------------ *)

let test_msg_class () =
  let mk kind = { Msg.kind; tid = 9; tseq = 1; cpu = 2; posted_at = 0; visible_at = 0 } in
  let runnable k = Policies.Msg_class.classify (mk k) = Policies.Msg_class.Became_runnable 9 in
  check_bool "created" true (runnable Msg.THREAD_CREATED);
  check_bool "wakeup" true (runnable Msg.THREAD_WAKEUP);
  check_bool "preempted" true (runnable Msg.THREAD_PREEMPTED);
  check_bool "yield" true (runnable Msg.THREAD_YIELD);
  check_bool "blocked" true
    (Policies.Msg_class.classify (mk Msg.THREAD_BLOCKED) = Policies.Msg_class.Not_runnable 9);
  check_bool "dead" true
    (Policies.Msg_class.classify (mk Msg.THREAD_DEAD) = Policies.Msg_class.Died 9);
  check_bool "affinity" true
    (Policies.Msg_class.classify (mk Msg.THREAD_AFFINITY)
    = Policies.Msg_class.Affinity_changed 9);
  check_bool "tick" true
    (Policies.Msg_class.classify (mk Msg.TIMER_TICK) = Policies.Msg_class.Tick 2)

(* --- Central two-class engine ---------------------------------------------- *)

let is_batch (task : Task.t) =
  String.length task.Task.name >= 5 && String.sub task.Task.name 0 5 = "batch"

let test_central_lc_priority () =
  (* 1 worker cpu: the batch thread must be evicted the moment LC work
     appears, and resume afterwards. *)
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol =
    Policies.Central.policy
      ~classify:(fun t -> if is_batch t then Policies.Central.Be else Policies.Central.Lc)
      ()
  in
  let _g = Agent.attach_global sys e pol in
  let batch =
    Kernel.create_task k ~name:"batch0" (Task.compute_forever ~slice:(us 50))
  in
  System.manage e batch;
  Kernel.start k batch;
  Kernel.run_until k (ms 5);
  check_bool "batch got the worker cpu" true (batch.Task.sum_exec > ms 2);
  let lc, lc_done = finite k ~name:"lc" ~total:(ms 3) in
  System.manage e lc;
  Kernel.start k lc;
  let batch_before = batch.Task.sum_exec in
  Kernel.run_until k (ms 10);
  check_bool "lc finished" true (!lc_done > 0);
  check_bool "batch was starved meanwhile" true
    (batch.Task.sum_exec - batch_before < ms 3);
  check_bool "eviction recorded" true
    ((Policies.Central.stats st).Policies.Central.be_evictions >= 1);
  Kernel.run_until k (ms 15);
  check_bool "batch resumed after lc" true (batch.Task.sum_exec > batch_before)

let test_central_no_be_scheduling () =
  (* schedule_be:false: batch threads never run (Fig. 6c's Shinjuku view). *)
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol =
    Policies.Central.policy
      ~classify:(fun t -> if is_batch t then Policies.Central.Be else Policies.Central.Lc)
      ~schedule_be:false ()
  in
  let _g = Agent.attach_global sys e pol in
  let batch =
    Kernel.create_task k ~name:"batch0" (Task.compute_forever ~slice:(us 50))
  in
  System.manage e batch;
  Kernel.start k batch;
  Kernel.run_until k (ms 10);
  check_int "batch never scheduled" 0 batch.Task.sum_exec

let test_shinjuku_timeslice () =
  (* Two long LC requests on one worker cpu with a 30us slice interleave. *)
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol = Policies.Shinjuku.policy ~is_batch () in
  let _g = Agent.attach_global sys e pol in
  let a, da = finite k ~name:"a" ~total:(us 300) in
  let b, db = finite k ~name:"b" ~total:(us 300) in
  List.iter
    (fun t ->
      System.manage e t;
      Kernel.start k t)
    [ a; b ];
  Kernel.run_until k (ms 5);
  check_bool "both done" true (!da > 0 && !db > 0);
  check_bool "interleaved" true (abs (!da - !db) < us 200);
  check_bool "slice preemptions" true
    ((Policies.Shinjuku.stats st).Policies.Central.lc_preemptions >= 4)

let test_snap_policy_relocation () =
  (* A snap worker evicts an antagonist rather than waiting. *)
  let k, sys = setup 3 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let is_worker (t : Task.t) =
    String.length t.Task.name >= 4 && String.sub t.Task.name 0 4 = "snap"
  in
  let st, pol = Policies.Snap_policy.policy ~is_worker () in
  let _g = Agent.attach_global sys e pol in
  (* Fill both worker cpus with antagonists. *)
  let ants =
    List.init 2 (fun i ->
        let t =
          Kernel.create_task k
            ~name:(Printf.sprintf "ant%d" i)
            (Task.compute_forever ~slice:(us 50))
        in
        System.manage e t;
        Kernel.start k t;
        t)
  in
  Kernel.run_until k (ms 2);
  check_bool "antagonists running" true
    (List.for_all (fun (t : Task.t) -> t.Task.sum_exec > 0) ants);
  let w, wd = finite k ~name:"snap0" ~total:(us 500) in
  System.manage e w;
  Kernel.start k w;
  Kernel.run_until k (ms 4);
  check_bool "worker completed promptly" true (!wd > 0 && !wd < ms 3);
  check_bool "eviction happened" true
    ((Policies.Snap_policy.stats st).Policies.Central.be_evictions >= 1)

(* An idle pass of a two-class engine owes one scan step per non-agent CPU
   in the fill phase and one more in the donate phase, even though the host
   makes none of those probes when nothing is queued.  With [min_iteration]
   and [idle_gap] at 0 a pass lasts exactly what it charges, so the pass
   count over a window of 1000 such passes pins the charge. *)
let test_idle_pass_scan_charge () =
  let n = 8 in
  let k, sys = setup n in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let eng, pol =
    Policies.Dsl.Centralized.make ~name:"idle-charge" ~nclasses:2
      ~donate_idle:true ~timeslice:(us 30) ()
  in
  let g = Agent.attach_global sys e ~min_iteration:0 ~idle_gap:0 pol in
  let passes_in_1000 ~cost =
    Kernel.run_until k (Kernel.now k + (10 * cost));
    let before = Agent.iterations g in
    Kernel.run_until k (Kernel.now k + (1000 * cost));
    Agent.iterations g - before
  in
  let step = Agent.scan_step_cost in
  Kernel.run_until k (us 20);
  check_int "fill + donate probes"
    1000
    (passes_in_1000 ~cost:(Agent.base_pass_cost + (2 * (n - 1) * step)));
  Policies.Dsl.Centralized.set_donate_max eng (Some 0);
  check_int "fill probes only once donation stops"
    1000
    (passes_in_1000 ~cost:(Agent.base_pass_cost + ((n - 1) * step)))

(* The agent-pass spans [run] records from [from] on, oldest first, as
   (duration, msgs, txns).  With [min_iteration] and [idle_gap] at 0 on a
   machine without SMT, a pass lasts exactly what it charges. *)
let pass_spans ~from run =
  let sink = Obs.Sink.create ~capacity:(1 lsl 20) () in
  Obs.Sink.install sink;
  Fun.protect ~finally:Obs.Sink.uninstall run;
  let began = Hashtbl.create 64 and passes = ref [] in
  Obs.Sink.iter sink (fun ev ->
      match ev.Obs.Sink.kind with
      | Obs.Sink.Span_begin { id; name = "agent-pass"; _ } ->
        Hashtbl.replace began id ev.Obs.Sink.time
      | Obs.Sink.Span_end { id } -> (
        match Hashtbl.find_opt began id with
        | Some t0 when t0 >= from ->
          let arg key = int_of_string (List.assoc key ev.Obs.Sink.args) in
          passes := (ev.Obs.Sink.time - t0, arg "msgs", arg "txns") :: !passes
        | Some _ | None -> ())
      | _ -> ());
  List.rev !passes

(* A two-class donating engine on [n] CPUs, the agent on CPU 0: [nbatch]
   class-1 threads start at time 0 and, if [lc_at] is given, one class-0
   thread then.  Returns the passes from [from] to [until]. *)
let donate_passes ~n ~nbatch ?donate_max ?lc_at ~from ~until () =
  pass_spans ~from (fun () ->
      let k, sys = setup n in
      let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
      let eng, pol =
        Policies.Dsl.Centralized.make ~name:"donate-charge" ~nclasses:2
          ~classify:(fun _ t -> if is_batch t then 1 else 0)
          ~donate_idle:true ()
      in
      Policies.Dsl.Centralized.set_donate_max eng donate_max;
      let _g = Agent.attach_global sys e ~min_iteration:0 ~idle_gap:0 pol in
      let start name =
        let t = Kernel.create_task k ~name (Task.compute_forever ~slice:(us 50)) in
        System.manage e t;
        Kernel.start k t
      in
      for i = 0 to nbatch - 1 do
        start (Printf.sprintf "batch%d" i)
      done;
      Option.iter
        (fun at ->
          Kernel.run_until k at;
          start "lc0")
        lc_at;
      Kernel.run_until k until)

(* Expected charge of one pass that drains [msgs] messages, makes or owes
   [probes] CPU probes and grants [grants] CPUs (the engine's default
   message and assignment charges, one group commit off the agent's CPU). *)
let pass_cost ?(msgs = 0) ~probes ?(grants = 0) () =
  let c = Hw.Costs.skylake in
  Agent.base_pass_cost
  + (msgs * (c.Hw.Costs.msg_consume + 25))
  + (probes * Agent.scan_step_cost)
  + (grants * (40 + c.Hw.Costs.txn_group_per_txn))
  + if grants > 0 then c.Hw.Costs.txn_group_fixed else 0

let first k l = List.filteri (fun i _ -> i < k) l
let check_passes = Alcotest.(check (list (triple int int int)))

(* Every CPU busy and class 1 still queued: the donate walk probes each CPU
   a pass has not assigned.  A steady pass probes all [n - 1] twice (fill
   owes them, donate makes them); the pass that places a class-0 arrival
   probes every CPU in fill, evicts a batch thread from CPU 1 and then
   probes the other [n - 2] in donate. *)
let test_donate_charge_busy () =
  let n = 6 in
  let steady = (pass_cost ~probes:(2 * (n - 1)) (), 0, 0) in
  check_passes "steady busy passes" [ steady; steady; steady ]
    (first 3 (donate_passes ~n ~nbatch:(n + 1) ~from:(us 15) ~until:(us 20) ()));
  let evicting =
    List.filter
      (fun (_, _, txns) -> txns > 0)
      (donate_passes ~n ~nbatch:(n + 1) ~lc_at:(us 20) ~from:(us 20)
         ~until:(us 40) ())
  in
  check_passes "evicting pass"
    [ (pass_cost ~msgs:1 ~probes:((n - 1) + 1 + (n - 2)) ~grants:1 (), 1, 1) ]
    evicting

(* [donate_max] of 1 with idle CPUs left: each pass grants the first idle
   CPU of its walk and charges nothing for the CPUs after it. *)
let test_donate_charge_cap () =
  let n = 6 in
  let granting =
    List.filter
      (fun (_, _, txns) -> txns > 0)
      (donate_passes ~n ~nbatch:4 ~donate_max:1 ~from:0 ~until:(us 30) ())
  in
  check_passes "one grant per pass, walk stops at it"
    (List.init 4 (fun i -> (pass_cost ~probes:((n - 1) + i + 1) ~grants:1 (), 0, 1)))
    granting

(* Two batch threads for five idle CPUs: once the walk grants both, the
   class is empty and the three CPUs left are charged in one scan. *)
let test_donate_charge_drain () =
  let n = 6 in
  let granting =
    List.filter
      (fun (_, _, txns) -> txns > 0)
      (donate_passes ~n ~nbatch:2 ~from:0 ~until:(us 30) ())
  in
  check_passes "drained mid-walk"
    [ (pass_cost ~probes:(2 * (n - 1)) ~grants:2 (), 0, 2) ]
    granting

(* --- Search policy ---------------------------------------------------------- *)

let test_search_prefers_ccx () =
  (* Rome-like: 2 ccx of 2 cores.  A thread that ran on ccx0 and wakes must
     be placed back on ccx0 when CPUs are idle there. *)
  let k, sys = setup ~ccx:2 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol = Policies.Search_policy.policy () in
  let _g = Agent.attach_global sys e pol in
  let cell = ref None in
  let t =
    Kernel.create_task k ~name:"w" (fun () ->
        let rec loop () =
          Task.Run
            {
              ns = us 100;
              after =
                (fun () ->
                  (match !cell with
                  | Some task ->
                    ignore
                      (Sim.Engine.post_in (Kernel.engine k) ~delay:(us 200)
                         (fun () -> Kernel.wake k task))
                  | None -> ());
                  Task.Block { after = loop });
            }
        in
        loop ())
  in
  cell := Some t;
  System.manage e t;
  Kernel.start k t;
  Kernel.run_until k (ms 20);
  let s = Policies.Search_policy.stats st in
  check_bool "many wakeups placed" true
    (s.Policies.Search_policy.placed_core + s.placed_ccx + s.placed_socket
     + s.placed_remote
    > 20);
  check_bool "placements stayed cache-local" true
    (s.placed_socket + s.placed_remote = 0)

let test_search_skip_when_busy () =
  (* All CPUs besides the agent's occupied: runnable threads are skipped and
     revisited, not lost. *)
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol = Policies.Search_policy.policy () in
  let _g = Agent.attach_global sys e pol in
  let hog = Kernel.create_task k ~name:"hog" (Task.compute_forever ~slice:(us 100)) in
  System.manage e hog;
  Kernel.start k hog;
  Kernel.run_until k (ms 2);
  let w, wd = finite k ~name:"w" ~total:(us 100) in
  System.manage e w;
  Kernel.start k w;
  Kernel.run_until k (ms 4);
  check_bool "skips counted" true ((Policies.Search_policy.stats st).skipped > 0);
  check_bool "waiter not yet run" true (!wd < 0);
  (* Kill the hog: the waiter must be picked up on a later pass. *)
  Kernel.kill k hog;
  Kernel.run_until k (ms 8);
  check_bool "waiter ran after cpu freed" true (!wd > 0)

(* --- Secure VM --------------------------------------------------------------- *)

let test_secure_vm_invariant_under_churn () =
  let k, sys = setup ~smt:2 4 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol = Policies.Secure_vm.policy ~quantum:(us 300) () in
  let _g = Agent.attach_global sys e pol in
  ignore st;
  let rng = Sim.Rng.create 99 in
  (* 3 VMs x 3 vCPUs that compute and nap randomly: constant churn. *)
  let mk vm i =
    let cell = ref None in
    let t =
      Kernel.create_task k ~cookie:(vm + 1)
        ~name:(Printf.sprintf "vm%d-%d" vm i)
        (fun () ->
          let rec loop () =
            Task.Run
              {
                ns = us (50 + Sim.Rng.int rng 300);
                after =
                  (fun () ->
                    (match !cell with
                    | Some task ->
                      ignore
                        (Sim.Engine.post_in (Kernel.engine k)
                           ~delay:(us (20 + Sim.Rng.int rng 200))
                           (fun () -> Kernel.wake k task))
                    | None -> ());
                    Task.Block { after = loop });
              }
          in
          loop ())
    in
    cell := Some t;
    System.manage e t;
    Kernel.start k t;
    t
  in
  let _tasks = List.concat_map (fun vm -> List.init 3 (mk vm)) [ 0; 1; 2 ] in
  let topo = Kernel.topo k in
  let steady = ref 0 in
  let last = Array.make 4 None in
  let rec sample () =
    List.iter
      (fun core ->
        match Hw.Topology.cpus_of_core topo core with
        | [ a; b ] -> (
          match (Kernel.curr k a, Kernel.curr k b) with
          | Some x, Some y
            when x.Task.cookie <> 0 && y.Task.cookie <> 0
                 && x.Task.cookie <> y.Task.cookie ->
            if last.(core) = Some (x.Task.cookie, y.Task.cookie) then incr steady;
            last.(core) <- Some (x.Task.cookie, y.Task.cookie)
          | _ -> last.(core) <- None)
        | _ -> ())
      [ 0; 1; 2; 3 ];
    ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(us 40) sample)
  in
  ignore (Sim.Engine.post_in (Kernel.engine k) ~delay:(us 40) sample);
  Kernel.run_until k (ms 50);
  check_int "no steady cross-VM co-residency" 0 !steady

let test_secure_vm_fairness () =
  (* 2 VMs, one core (excluding agent's): rotation must give both progress. *)
  let k, sys = setup ~smt:2 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol = Policies.Secure_vm.policy ~quantum:(us 200) () in
  let _g = Agent.attach_global sys e pol in
  let mk vm =
    let t =
      Kernel.create_task k ~cookie:vm
        ~name:(Printf.sprintf "vm%d" vm)
        (Task.compute_forever ~slice:(us 100))
    in
    System.manage e t;
    Kernel.start k t;
    t
  in
  let a = mk 1 and b = mk 2 in
  Kernel.run_until k (ms 20);
  check_bool "rotations happened" true
    ((Policies.Secure_vm.stats st).Policies.Secure_vm.rotations > 10);
  let ra = a.Task.sum_exec and rb = b.Task.sum_exec in
  check_bool
    (Printf.sprintf "both progressed fairly (a=%d b=%d)" ra rb)
    true
    (ra > ms 5 && rb > ms 5 && abs (ra - rb) < ms 8)

(* --- Fifo policies (beyond the ghost suite) ---------------------------------- *)

let test_fifo_centralized_order () =
  (* With a single worker cpu, jobs complete in arrival order. *)
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy () in
  let _g = Agent.attach_global sys e pol in
  let order = ref [] in
  let mk i =
    let t =
      Kernel.create_task k
        ~name:(Printf.sprintf "j%d" i)
        (Task.compute_total ~slice:(us 100) ~total:(us 300) (fun () ->
             order := i :: !order;
             Task.Exit))
    in
    System.manage e t;
    Kernel.start k t
  in
  List.iter mk [ 0; 1; 2; 3 ];
  Kernel.run_until k (ms 10);
  Alcotest.(check (list int)) "fifo completion order" [ 0; 1; 2; 3 ] (List.rev !order)

let test_fifo_percpu_estale_exercised () =
  (* Heavy wake/block churn on a small machine triggers at least some ESTALE
     retries through the per-CPU commit path. *)
  let k, sys = setup 2 in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let st, pol = Policies.Fifo_percpu.policy () in
  let _g = Agent.attach_local sys e pol in
  let rng = Sim.Rng.create 5 in
  let mk i =
    let cell = ref None in
    let t =
      Kernel.create_task k
        ~name:(Printf.sprintf "churn%d" i)
        (fun () ->
          let rec loop () =
            Task.Run
              {
                ns = us (5 + Sim.Rng.int rng 40);
                after =
                  (fun () ->
                    (match !cell with
                    | Some task ->
                      ignore
                        (Sim.Engine.post_in (Kernel.engine k)
                           ~delay:(us (1 + Sim.Rng.int rng 30))
                           (fun () -> Kernel.wake k task))
                    | None -> ());
                    Task.Block { after = loop });
              }
          in
          loop ())
    in
    cell := Some t;
    System.manage e t;
    Kernel.start k t;
    t
  in
  let tasks = List.init 8 mk in
  Kernel.run_until k (ms 100);
  check_bool "lots of scheduling" true (Policies.Fifo_percpu.scheduled st > 500);
  check_bool "all still alive and progressing" true
    (List.for_all (fun (t : Task.t) -> t.Task.sum_exec > 0) tasks)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ test_minheap_order ] in
  Alcotest.run "policies"
    [
      ( "minheap",
        [
          Alcotest.test_case "fifo ties" `Quick test_minheap_fifo_ties;
          Alcotest.test_case "misc ops" `Quick test_minheap_misc;
          Alcotest.test_case "iter" `Quick test_minheap_iter;
        ] );
      ("msg-class", [ Alcotest.test_case "mapping" `Quick test_msg_class ]);
      ( "central",
        [
          Alcotest.test_case "lc priority" `Quick test_central_lc_priority;
          Alcotest.test_case "no be scheduling" `Quick test_central_no_be_scheduling;
          Alcotest.test_case "shinjuku timeslice" `Quick test_shinjuku_timeslice;
          Alcotest.test_case "snap relocation" `Quick test_snap_policy_relocation;
          Alcotest.test_case "idle pass scan charge" `Quick
            test_idle_pass_scan_charge;
          Alcotest.test_case "donate charge, every CPU busy" `Quick
            test_donate_charge_busy;
          Alcotest.test_case "donate charge, cap mid-walk" `Quick
            test_donate_charge_cap;
          Alcotest.test_case "donate charge, class drained mid-walk" `Quick
            test_donate_charge_drain;
        ] );
      ( "search",
        [
          Alcotest.test_case "prefers ccx" `Quick test_search_prefers_ccx;
          Alcotest.test_case "skip when busy" `Quick test_search_skip_when_busy;
        ] );
      ( "secure-vm",
        [
          Alcotest.test_case "invariant under churn" `Quick
            test_secure_vm_invariant_under_churn;
          Alcotest.test_case "fairness" `Quick test_secure_vm_fairness;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "centralized order" `Quick test_fifo_centralized_order;
          Alcotest.test_case "percpu churn" `Quick test_fifo_percpu_estale_exercised;
        ] );
      ("properties", qsuite);
    ]
