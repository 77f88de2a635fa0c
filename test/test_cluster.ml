(* Tests for the fleet-scale cluster subsystem: the N-lane shared queue's
   firing order (vs a single-queue reference), cross-lane post rules, balancer and
   fleet-controller behaviour, machine-scoped trace decoding, and the two
   end-to-end contracts — cluster runs are byte-reproducible at a fixed
   seed, and a machine inside a cluster with no fleet traffic reproduces
   its standalone scenario report exactly. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let qtest = QCheck.Test.make

(* --- Lanes: firing order ------------------------------------------------------ *)

(* Random traffic against a single-queue reference.  Every fired event
   runs the script entry its id selects: post on its own lane through
   [Engine.post] on the lane's engine, cross-post through [Lanes.post], or
   cancel some event by id, often another lane's.  Such cancels once left
   the per-lane merge's cached head bound stale and forced a rescan; the
   lanes now share one queue and that rescan no longer exists, but the
   cases stay.  Empty scripts reduce this to a static post set.  Half the
   first window's seed events bypass [Lanes.post], and the second window's
   are posted between windows straight into the lane engines, as setup
   code does.  The firing log must match one pending list fired in (time,
   lane, per-lane post sequence) order. *)
type op = Own of int | Cross of int * int | Cancel of int

let merge_cap = 120
let merge_t1 = 3_000
let merge_t2 = 8_000

let merge_reference nlanes posts script =
  let pending = ref [] and seqs = Array.make nlanes 0 in
  let next = ref 0 and log = ref [] in
  let schedule lane time =
    if !next < merge_cap then begin
      pending := (time, lane, seqs.(lane), !next) :: !pending;
      seqs.(lane) <- seqs.(lane) + 1;
      incr next
    end
  in
  let fire (time, lane, _, id) =
    log := (time, lane, id) :: !log;
    List.iter
      (function
        | Own d -> schedule lane (time + d)
        | Cross (l, d) -> schedule (l mod nlanes) (time + d)
        | Cancel j ->
          let victim = (id + j) mod !next in
          pending := List.filter (fun (_, _, _, v) -> v <> victim) !pending)
      script.(id mod Array.length script)
  in
  let rec run horizon =
    match
      List.sort compare (List.filter (fun (t, _, _, _) -> t <= horizon) !pending)
    with
    | [] -> ()
    | first :: _ ->
      pending := List.filter (fun e -> e != first) !pending;
      fire first;
      run horizon
  in
  List.iter (fun (lane, time) -> if time < merge_t1 then schedule lane time) posts;
  run merge_t1;
  List.iter (fun (lane, time) -> if time >= merge_t1 then schedule lane time) posts;
  run merge_t2;
  List.rev !log

let merge_order_property (nlanes, posts, script) =
  let lanes = Sim.Lanes.create nlanes in
  let engines = Array.init nlanes (Sim.Lanes.engine lanes) in
  let handles = Array.make merge_cap Sim.Engine.nil_handle in
  let lane_of = Array.make merge_cap 0 in
  let next = ref 0 and log = ref [] in
  let rec schedule ~direct lane time =
    if !next < merge_cap then begin
      let id = !next in
      incr next;
      lane_of.(id) <- lane;
      let fn () = fire id lane time in
      handles.(id) <-
        (if direct then Sim.Engine.post engines.(lane) ~time fn
         else Sim.Lanes.post lanes ~lane ~time fn)
    end
  and fire id lane time =
    log := (time, lane, id) :: !log;
    List.iter
      (function
        | Own d -> schedule ~direct:true lane (time + d)
        | Cross (l, d) -> schedule ~direct:false (l mod nlanes) (time + d)
        | Cancel j ->
          let victim = (id + j) mod !next in
          Sim.Engine.cancel engines.(lane_of.(victim)) handles.(victim))
      script.(id mod Array.length script)
  in
  List.iteri
    (fun i (lane, time) ->
      if time < merge_t1 then schedule ~direct:(i mod 2 = 0) lane time)
    posts;
  Sim.Lanes.run_until lanes merge_t1;
  List.iter
    (fun (lane, time) -> if time >= merge_t1 then schedule ~direct:true lane time)
    posts;
  Sim.Lanes.run_until lanes merge_t2;
  List.rev !log = merge_reference nlanes posts script

let test_merge_order_qcheck =
  (* Coarse times force plenty of same-time collisions to stress the
     (lane, seq) tie-break. *)
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun d -> Own (d * 100)) (int_range 0 5));
          (3, map2 (fun l d -> Cross (l, d * 100)) (int_range 0 4) (int_range 0 5));
          (2, map (fun j -> Cancel j) (int_range 0 40));
        ])
  in
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun nlanes ->
      triple (return nlanes)
        (list_size (int_range 0 40)
           (pair (int_range 0 (nlanes - 1)) (map (fun t -> t * 100) (int_range 0 59))))
        (array_size (int_range 1 6) (list_size (int_range 0 3) op)))
  in
  let print (nlanes, posts, script) =
    let show = function
      | Own d -> Printf.sprintf "Own %d" d
      | Cross (l, d) -> Printf.sprintf "Cross (%d, %d)" l d
      | Cancel j -> Printf.sprintf "Cancel %d" j
    in
    Printf.sprintf "lanes=%d posts=[%s] script=[|%s|]" nlanes
      (String.concat "; "
         (List.map (fun (l, t) -> Printf.sprintf "(%d, %d)" l t) posts))
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun ops -> "[" ^ String.concat "; " (List.map show ops) ^ "]")
               script)))
  in
  qtest ~name:"lane merge fires in single-queue reference order" ~count:300
    (QCheck.make ~print gen) merge_order_property

let test_merge_cross_posts () =
  (* Events firing on one lane post into other lanes; the merge must fire
     everything exactly once in (time, lane) order, including chains. *)
  let lanes = Sim.Lanes.create 3 in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore
    (Sim.Lanes.post lanes ~lane:0 ~time:100 (fun () ->
         note "a0" ();
         (* same time, higher lane: must fire after every lane-0 event at
            t=100 but before t=101 *)
         ignore (Sim.Lanes.post lanes ~lane:2 ~time:100 (note "c0"));
         ignore
           (Sim.Lanes.post lanes ~lane:1 ~time:150 (fun () ->
                note "b0" ();
                ignore (Sim.Lanes.post lanes ~lane:0 ~time:150 (note "a1"))))));
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:100 (note "a2"));
  ignore (Sim.Lanes.post lanes ~lane:1 ~time:120 (note "b1"));
  Sim.Lanes.run_until lanes 1_000;
  Alcotest.(check (list string))
    "cross-post chain order"
    [ "a0"; "a2"; "c0"; "b1"; "b0"; "a1" ]
    (List.rev !fired);
  check_int "all fired" 6 (Sim.Lanes.events_fired lanes)

let test_same_time_cross_post_to_lower_lane () =
  (* Lane 1 fires the first of 60 events at t=100 and cross-posts into
     lane 0 at t=100.  (100, lane 0) sorts ahead of lane 1's 59 undrained
     events at t=100, so lane 0's event fires next. *)
  let lanes = Sim.Lanes.create 2 in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore
    (Sim.Lanes.post lanes ~lane:1 ~time:100 (fun () ->
         note "b0" ();
         ignore (Sim.Lanes.post lanes ~lane:0 ~time:100 (note "a0"))));
  for i = 1 to 59 do
    ignore (Sim.Lanes.post lanes ~lane:1 ~time:100 (note (Printf.sprintf "b%d" i)))
  done;
  Sim.Lanes.run_until lanes 1_000;
  Alcotest.(check (list string))
    "lane 0 fires right after the cross-post"
    ("b0" :: "a0" :: List.init 59 (fun i -> Printf.sprintf "b%d" (i + 1)))
    (List.rev !fired)

let test_merge_past_post_rejected () =
  let lanes = Sim.Lanes.create 2 in
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:500 ignore);
  Sim.Lanes.run_until lanes 500;
  Alcotest.check_raises "past post"
    (Invalid_argument "Lanes.post: time 499 is before global now 500")
    (fun () -> ignore (Sim.Lanes.post lanes ~lane:1 ~time:499 ignore))

let test_clock_inside_callback () =
  (* Inside a callback the global clock reads the firing event's time, so
     relative cross-posts and the past-post check are measured from it. *)
  let lanes = Sim.Lanes.create 2 in
  let seen = ref (-1) and landed = ref (-1) and rejected = ref false in
  ignore
    (Sim.Lanes.post lanes ~lane:0 ~time:100 (fun () ->
         seen := Sim.Lanes.now lanes;
         ignore
           (Sim.Lanes.post_in lanes ~lane:1 ~delay:10 (fun () ->
                landed := Sim.Engine.now (Sim.Lanes.engine lanes 1)));
         rejected :=
           try
             ignore (Sim.Lanes.post lanes ~lane:1 ~time:50 ignore);
             false
           with Invalid_argument _ -> true));
  Sim.Lanes.run_until lanes 1_000;
  check_int "now inside the callback" 100 !seen;
  check_int "post_in lands after the firing time" 110 !landed;
  check_bool "post before the firing time rejected" true !rejected

let test_lane_switch_hook () =
  (* The hook fires when the firing lane changes — the cluster harness
     relies on it to scope trace output to the right machine. *)
  let switches = ref [] in
  let lanes =
    Sim.Lanes.create ~on_lane_switch:(fun i -> switches := i :: !switches) 2
  in
  ignore (Sim.Lanes.post lanes ~lane:1 ~time:10 ignore);
  ignore (Sim.Lanes.post lanes ~lane:0 ~time:20 ignore);
  ignore (Sim.Lanes.post lanes ~lane:1 ~time:30 ignore);
  Sim.Lanes.run_until lanes 100;
  Alcotest.(check (list int)) "switch sequence" [ 1; 0; 1 ] (List.rev !switches)

(* --- Balancer ----------------------------------------------------------------- *)

let test_balancer_round_robin () =
  let rng = Sim.Rng.create 1 in
  let b = Cluster.Balancer.create ~mode:Cluster.Balancer.Round_robin ~n:3 ~rng in
  let picks = List.init 7 (fun _ -> Cluster.Balancer.pick b) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2; 0 ] picks

let test_balancer_weighted () =
  let rng = Sim.Rng.create 1 in
  let b = Cluster.Balancer.create ~mode:Cluster.Balancer.Weighted ~n:3 ~rng in
  (* All weight on machine 1: every draw lands there. *)
  Cluster.Balancer.set_weights b [| 0.0; 5.0; 0.0 |];
  for _ = 1 to 50 do
    check_int "degenerate weights" 1 (Cluster.Balancer.pick b)
  done;
  let w = Cluster.Balancer.weights b in
  check_bool "normalised" true (Float.abs (w.(1) -. 1.0) < 1e-9);
  Alcotest.check_raises "arity" (Invalid_argument "Balancer.set_weights: arity")
    (fun () -> Cluster.Balancer.set_weights b [| 1.0 |]);
  Alcotest.check_raises "zero total"
    (Invalid_argument "Balancer.set_weights: zero total") (fun () ->
      Cluster.Balancer.set_weights b [| 0.0; 0.0; 0.0 |])

let test_fleet_controller_shifts_weight () =
  let rng = Sim.Rng.create 1 in
  let b = Cluster.Balancer.create ~mode:Cluster.Balancer.Weighted ~n:2 ~rng in
  let f = Cluster.Fleet.create 2 in
  Cluster.Fleet.note_signal f ~mid:0 ~depth:0;
  Cluster.Fleet.note_signal f ~mid:1 ~depth:100;
  for _ = 1 to 20 do
    Cluster.Fleet.rebalance f b
  done;
  let w = Cluster.Balancer.weights b in
  check_bool "weight drained from deep machine" true (w.(0) > 0.9 && w.(1) < 0.1);
  check_bool "rebalances counted" true (Cluster.Fleet.rebalances f > 0);
  (* Depths equalised: weights converge back toward 1/2. *)
  Cluster.Fleet.note_signal f ~mid:1 ~depth:0;
  for _ = 1 to 50 do
    Cluster.Fleet.rebalance f b
  done;
  let w = Cluster.Balancer.weights b in
  check_bool "recovers toward even" true (Float.abs (w.(0) -. 0.5) < 0.05)

(* --- Machine-scoped trace decoding -------------------------------------------- *)

let test_machine_scope_roundtrip () =
  let s = Obs.Sink.create () in
  Obs.Sink.install s;
  Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
      Obs.Sink.sched s ~time:10
        (Obs.Sink.Dispatch { cpu = 0; tid = 1; name = "t"; migrated = false });
      Obs.Sink.set_machine 0;
      Obs.Sink.sched s ~time:20 (Obs.Sink.Preempt { cpu = 0; tid = 1 });
      Obs.Sink.set_machine 3;
      Obs.Sink.sched s ~time:30 (Obs.Sink.Block { cpu = 1; tid = 2 });
      Obs.Sink.set_machine (-1);
      Obs.Sink.sched s ~time:40 (Obs.Sink.Yield { cpu = 0; tid = 1 });
      let machines =
        List.map (fun e -> e.Obs.Sink.machine) (Obs.Sink.events s)
      in
      Alcotest.(check (list int))
        "machine stamps round-trip" [ -1; 0; 3; -1 ] machines;
      (* The CPU index survives scoping (track ids are masked on decode). *)
      let cpus =
        List.filter_map
          (fun e ->
            match e.Obs.Sink.kind with
            | Obs.Sink.Sched (Obs.Sink.Dispatch { cpu; _ })
            | Obs.Sink.Sched (Obs.Sink.Preempt { cpu; _ })
            | Obs.Sink.Sched (Obs.Sink.Block { cpu; _ })
            | Obs.Sink.Sched (Obs.Sink.Yield { cpu; _ }) ->
              Some cpu
            | _ -> None)
          (Obs.Sink.events s)
      in
      Alcotest.(check (list int)) "cpu tracks decode" [ 0; 0; 1; 0 ] cpus)

(* --- End-to-end: determinism and standalone identity --------------------------- *)

let smoke_cluster ?(policy = "shinjuku") () =
  let machines =
    Array.init 2 (fun i ->
        Scenario.make ~seed:(42 + i) ~warmup_ns:(ms 2) ~measure_ns:(ms 8)
          ~cooldown_ns:(ms 2) ~machine:Hw.Machines.xeon_e5_1s
          ~enclaves:
            [
              Scenario.enclave ~policy ~cpus:[ 0; 1; 2; 3 ]
                ~workloads:[] "serve";
            ]
          (Printf.sprintf "det-m%d" i))
  in
  Cluster.make ~machines
    ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 8 }
    ~arrivals:
      { Cluster.aseed = 7; rate = 30_000.0;
        service = Sim.Dist.Exponential 60_000.0 }
    ~routing:Cluster.Balancer.Weighted "det"

let test_cluster_deterministic () =
  let r = Cluster.run (smoke_cluster ()) in
  let b = Cluster.to_string (Cluster.run (smoke_cluster ())) in
  Alcotest.(check string) "byte-identical fleet reports" (Cluster.to_string r) b;
  Array.iter
    (fun (m : Cluster.machine_report) ->
      check_bool
        (Printf.sprintf "machine %d served traffic" m.Cluster.mid)
        true (m.Cluster.served > 0))
    r.Cluster.machines

(* The same fleet with the BPF fastpath in every machine's kernel: the
   in-kernel programs pick threads.  Metrics move only while a sink is
   installed. *)
let test_cluster_fastpath_picks () =
  Obs.Metrics.reset ();
  Obs.Sink.install (Obs.Sink.create ());
  let r =
    Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
        Cluster.run (smoke_cluster ~policy:"shinjuku?fastpath=true" ()))
  in
  let picks = Obs.Metrics.counter_value (Obs.Metrics.counter "bpf.picks") in
  Obs.Metrics.reset ();
  check_bool "fleet served traffic" true (r.Cluster.fleet_served > 0);
  check_bool (Printf.sprintf "bpf.picks > 0 (%d)" picks) true (picks > 0)

let ident_scenario i =
  Scenario.make ~seed:(100 + i) ~warmup_ns:(ms 2) ~measure_ns:(ms 10)
    ~cooldown_ns:(ms 2) ~machine:Hw.Machines.xeon_e5_1s
    ~enclaves:
      [
        Scenario.enclave ~policy:"shinjuku" ~cpus:[ 0; 1; 2; 3 ]
          ~workloads:
            [
              Scenario.Openloop
                {
                  wseed = 7 + i;
                  rate = 10_000.0;
                  service = Sim.Dist.Exponential 40_000.0;
                  nworkers = 20;
                  prefix = "worker";
                };
            ]
          "serve";
      ]
    (Printf.sprintf "ident-m%d" i)

let test_cluster_matches_standalone () =
  (* No fleet traffic: each machine of the cluster must produce the exact
     report its scenario produces standalone — the lane merge adds nothing
     to and reorders nothing in a machine's own event stream. *)
  let solo = Array.init 2 (fun i -> Scenario.run (ident_scenario i)) in
  let r = Cluster.run (Cluster.make ~machines:(Array.init 2 ident_scenario) "ident") in
  check_int "two machine reports" 2 (Array.length r.Cluster.machines);
  Array.iteri
    (fun i (m : Cluster.machine_report) ->
      check_bool
        (Printf.sprintf "machine %d report equals standalone run" i)
        true
        (solo.(i) = m.Cluster.scenario))
    r.Cluster.machines

let test_cluster_make_validation () =
  let scn ?(measure = ms 8) name =
    Scenario.make ~seed:1 ~warmup_ns:(ms 2) ~measure_ns:measure
      ~cooldown_ns:(ms 2) ~machine:Hw.Machines.xeon_e5_1s
      ~enclaves:
        [ Scenario.enclave ~policy:"shinjuku" ~cpus:[ 0; 1 ] ~workloads:[] "serve" ]
      name
  in
  Alcotest.check_raises "empty fleet"
    (Invalid_argument "Cluster.make: no machines") (fun () ->
      ignore (Cluster.make ~machines:[||] "x"));
  Alcotest.check_raises "mismatched windows"
    (Invalid_argument
       "Cluster.make: machines must share warmup/measure/cooldown windows")
    (fun () ->
      ignore
        (Cluster.make
           ~machines:[| scn "a"; scn ~measure:(ms 9) "b" |]
           "x"));
  Alcotest.check_raises "arrivals without serve"
    (Invalid_argument "Cluster.make: arrivals need a serve pool") (fun () ->
      ignore
        (Cluster.make ~machines:[| scn "a" |]
           ~arrivals:
             { Cluster.aseed = 1; rate = 1.0;
               service = Sim.Dist.Exponential 1.0 }
           "x"));
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "arrival rate %g" rate)
        (Invalid_argument "Cluster.make: arrival rate must be finite and positive")
        (fun () ->
          ignore
            (Cluster.make ~machines:[| scn "a" |]
               ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 4 }
               ~arrivals:
                 { Cluster.aseed = 1; rate; service = Sim.Dist.Exponential 1.0 }
               "x")))
    [ Float.nan; Float.infinity; 0.0; -1.0 ]

let () =
  Alcotest.run "cluster"
    [
      ( "lanes",
        [
          QCheck_alcotest.to_alcotest test_merge_order_qcheck;
          Alcotest.test_case "cross-post chains" `Quick test_merge_cross_posts;
          Alcotest.test_case "same-time cross-post into a lower lane" `Quick
            test_same_time_cross_post_to_lower_lane;
          Alcotest.test_case "past post rejected" `Quick
            test_merge_past_post_rejected;
          Alcotest.test_case "clock inside a callback" `Quick
            test_clock_inside_callback;
          Alcotest.test_case "lane-switch hook" `Quick test_lane_switch_hook;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "round-robin cycles" `Quick
            test_balancer_round_robin;
          Alcotest.test_case "weighted draw + validation" `Quick
            test_balancer_weighted;
          Alcotest.test_case "controller shifts weight" `Quick
            test_fleet_controller_shifts_weight;
        ] );
      ( "obs",
        [
          Alcotest.test_case "machine scope round-trip" `Quick
            test_machine_scope_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "byte-identical at fixed seed" `Quick
            test_cluster_deterministic;
          Alcotest.test_case "matches standalone scenario runs" `Quick
            test_cluster_matches_standalone;
          Alcotest.test_case "fastpath fleet records BPF picks" `Quick
            test_cluster_fastpath_picks;
          Alcotest.test_case "spec validation" `Quick
            test_cluster_make_validation;
        ] );
    ]
