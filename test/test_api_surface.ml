(* Coverage for the remaining public API: agent-created queues with wakeup
   config, explicit drains, distribution sampling, and table rendering
   under unusual inputs. *)

module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Abi = Ghost.Abi
module Squeue = Ghost.Squeue
module Msg = Ghost.Msg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let machine ncores =
  {
    Hw.Machines.name = "api-test";
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

let test_agent_created_queue_with_wakeup () =
  (* A local-model policy creates an extra queue wired to wake CPU 1's
     agent (CREATE_QUEUE + CONFIG_QUEUE_WAKEUP), re-routes a thread to it
     (ASSOCIATE_QUEUE), and drains it explicitly. *)
  let k = Kernel.create (machine 2) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let extra_queue = ref None in
  let drained_on = ref [] in
  let victim = ref None in
  let pol =
    Agent.make_policy ~name:"extra-queue"
      ~init:(fun ctx ->
        extra_queue := Some (Abi.create_queue ctx ~capacity:64 ~wake_cpu:(Some 1)))
      ~schedule:(fun ctx msgs ->
        ignore msgs;
        match !extra_queue with
        | Some q ->
          let extra_msgs = Abi.drain ctx q in
          if extra_msgs <> [] then
            drained_on := (Abi.cpu ctx, List.length extra_msgs) :: !drained_on
        | None -> ())
      ()
  in
  let _g = Agent.attach_local sys e pol in
  let t = Kernel.create_task k ~name:"routed" (Task.compute_forever ~slice:(us 50)) in
  victim := Some t;
  System.manage e t;
  Kernel.start k t;
  Kernel.run_until k (ms 1);
  (* Re-route the thread's messages to the extra queue. *)
  (match !extra_queue with
  | Some q -> (
    (* Drain default first so the association succeeds. *)
    let rec drain_default () =
      match Squeue.consume (System.default_queue e) ~now:(Kernel.now k) with
      | Some _ -> drain_default ()
      | None -> ()
    in
    drain_default ();
    match System.associate_queue e t q with
    | Ok () -> ()
    | Error `Pending_messages -> Alcotest.fail "association should succeed")
  | None -> Alcotest.fail "queue not created");
  (* New events now land on the extra queue and wake CPU 1's agent, which
     drains them in its pass. *)
  Kernel.set_affinity k t (Kernel.Cpumask.of_list ~ncpus:2 [ 0; 1 ]);
  Kernel.run_until k (ms 3);
  check_bool "agent 1 drained the extra queue" true
    (List.exists (fun (cpu, n) -> cpu = 1 && n > 0) !drained_on)

let test_dist_sampling_ranges =
  QCheck.Test.make ~name:"distribution samples respect their support" ~count:200
    QCheck.(pair small_int (pair (int_range 1 1000) (int_range 1 1000)))
    (fun (seed, (a, b)) ->
      let rng = Sim.Rng.create seed in
      let lo = float_of_int (min a b) and hi = float_of_int (min a b + max a b) in
      let u = Sim.Dist.sample rng (Sim.Dist.Uniform (lo, hi)) in
      let c = Sim.Dist.sample rng (Sim.Dist.Const lo) in
      let bi =
        Sim.Dist.sample rng
          (Sim.Dist.Bimodal { p_slow = 0.5; fast = lo; slow = hi })
      in
      u >= lo && u < hi && c = lo && (bi = lo || bi = hi))

let test_dist_mixture_support () =
  let rng = Sim.Rng.create 4 in
  let d =
    Sim.Dist.Mixture [ (1.0, Sim.Dist.Const 10.0); (2.0, Sim.Dist.Const 20.0) ]
  in
  let counts = Hashtbl.create 2 in
  for _ = 1 to 3000 do
    let v = Sim.Dist.sample rng d in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let n10 = Option.value ~default:0 (Hashtbl.find_opt counts 10.0) in
  let n20 = Option.value ~default:0 (Hashtbl.find_opt counts 20.0) in
  check_int "only support points" 3000 (n10 + n20);
  (* 1:2 weighting. *)
  check_bool
    (Printf.sprintf "weights respected (%d vs %d)" n10 n20)
    true
    (float_of_int n20 /. float_of_int n10 > 1.6
    && float_of_int n20 /. float_of_int n10 < 2.5)

let test_table_degenerate_inputs () =
  (* Rendering must not raise on ragged or empty inputs. *)
  let s1 = Gstats.Table.render ~header:[ "a" ] [] in
  check_bool "empty body renders" true (String.length s1 > 0);
  let s2 = Gstats.Table.render ~header:[ "a"; "b" ] [ [ "only-one" ] ] in
  check_bool "ragged rows render" true (String.length s2 > 0)

let test_pp_helpers () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Ghost.Msg.pp ppf
    { Msg.kind = Msg.THREAD_WAKEUP; tid = 7; tseq = 3; cpu = 1; posted_at = 9;
      visible_at = 9 };
  Format.pp_print_flush ppf ();
  check_bool "msg pp mentions kind" true
    (Buffer.contents buf <> ""
    && String.length (Buffer.contents buf) > 10);
  Buffer.clear buf;
  Ghost.Txn.pp ppf
    { Ghost.Txn.txn_id = 1; tid = 2; target_cpu = 3; agent_seq = None;
      thread_seq = None; status = Ghost.Txn.Failed Ghost.Txn.Estale;
      decided_at = 0 };
  Format.pp_print_flush ppf ();
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "txn pp mentions ESTALE" true (contains (Buffer.contents buf) "ESTALE")

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ test_dist_sampling_ranges ] in
  Alcotest.run "api-surface"
    [
      ( "agent-queues",
        [
          Alcotest.test_case "create/wakeup/drain" `Quick
            test_agent_created_queue_with_wakeup;
        ] );
      ( "dist",
        [ Alcotest.test_case "mixture support" `Quick test_dist_mixture_support ] );
      ( "rendering",
        [
          Alcotest.test_case "degenerate tables" `Quick test_table_degenerate_inputs;
          Alcotest.test_case "pretty printers" `Quick test_pp_helpers;
        ] );
      ("properties", qsuite);
    ]
