(* Tests for the observability subsystem: metrics registry, span sink,
   Perfetto exporter well-formedness, and the kernel/ghOSt instrumentation
   (cross-layer spans, lifecycle instants, drop surfacing). *)

module Task = Kernel.Task
module System = Ghost.System
module Agent = Ghost.Agent
module Squeue = Ghost.Squeue

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Units.ms
let us = Sim.Units.us

let tiny ncores =
  {
    Hw.Machines.name = Printf.sprintf "obs-test-%d" ncores;
    topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:ncores ~smt:1;
    costs = Hw.Costs.skylake;
  }

(* Every test that installs the global sink runs under this wrapper so a
   failing assertion can't leak an installed sink into the next test. *)
let with_sink fn =
  Obs.Metrics.reset ();
  let sink = Obs.Sink.create () in
  Obs.Sink.install sink;
  Fun.protect ~finally:Obs.Sink.uninstall (fun () -> fn sink)

(* --- Metrics registry --------------------------------------------------------- *)

let test_metrics_registry () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check_int "counter" 5 (Obs.Metrics.counter_value c);
  (* Registration is idempotent: same name, same cell. *)
  Obs.Metrics.incr (Obs.Metrics.counter "test.counter");
  check_int "idempotent handle" 6 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set g 42;
  let h = Obs.Metrics.histogram "test.hist" in
  List.iter (Obs.Metrics.observe h) [ 100; 200; 300 ];
  (* Kind clashes are programming errors. *)
  (try
     ignore (Obs.Metrics.gauge "test.counter");
     Alcotest.fail "kind clash not rejected"
   with Invalid_argument _ -> ());
  let snap = Obs.Metrics.snapshot () in
  let names = List.map fst snap in
  check_bool "snapshot sorted" true (names = List.sort compare names);
  check_bool "gauge" true (List.assoc "test.gauge" snap = Obs.Metrics.Gauge 42);
  (match List.assoc "test.hist" snap with
  | Obs.Metrics.Histogram hs ->
    check_int "hist count" 3 hs.Obs.Metrics.count;
    check_int "hist sum" 600 hs.Obs.Metrics.sum;
    check_bool "hist max" true (hs.Obs.Metrics.max >= 300)
  | _ -> Alcotest.fail "test.hist not a histogram");
  (* The JSON snapshot round-trips through our own parser. *)
  (match Obs.Json.parse (Obs.Json.to_string (Obs.Metrics.snapshot_json ())) with
  | Ok j ->
    check_bool "counter serialized" true
      (Obs.Json.member "test.counter" j = Some (Obs.Json.Num 6.));
    check_bool "hist count serialized" true
      (match Obs.Json.member "test.hist" j with
      | Some h -> Obs.Json.member "count" h = Some (Obs.Json.Num 3.)
      | None -> false)
  | Error e -> Alcotest.failf "snapshot_json unparseable: %s" e);
  (* Reset zeroes values but keeps registrations/handles valid. *)
  Obs.Metrics.reset ();
  check_int "reset counter" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  check_int "handle survives reset" 1 (Obs.Metrics.counter_value c)

(* --- Perfetto exporter -------------------------------------------------------- *)

(* Walk an exported document and check the trace_event invariants Perfetto
   cares about: parseable JSON, nondecreasing timestamps per (pid, tid)
   track, balanced B/E nesting, and matched async b/e ids. *)
let check_export_invariants json_text =
  let doc =
    match Obs.Json.parse json_text with
    | Ok d -> d
    | Error e -> Alcotest.failf "export is not valid JSON: %s" e
  in
  let events =
    match Obs.Json.member "traceEvents" doc with
    | Some a -> Obs.Json.to_list a
    | None -> Alcotest.fail "no traceEvents array"
  in
  check_bool "has events" true (events <> []);
  let str_exn k e =
    match Option.bind (Obs.Json.member k e) Obs.Json.str with
    | Some s -> s
    | None -> Alcotest.failf "event missing string %S" k
  in
  let num_exn k e =
    match Option.bind (Obs.Json.member k e) Obs.Json.num with
    | Some n -> n
    | None -> Alcotest.failf "event missing number %S" k
  in
  let last_ts = Hashtbl.create 16 in
  let depth = Hashtbl.create 16 in
  let open_async = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let ph = str_exn "ph" e in
      if ph <> "M" then begin
        let key = (num_exn "pid" e, num_exn "tid" e) in
        let ts = num_exn "ts" e in
        (match Hashtbl.find_opt last_ts key with
        | Some prev when ts < prev ->
          Alcotest.failf "ts went backwards on track (%.0f, %.0f)" (fst key)
            (snd key)
        | _ -> ());
        Hashtbl.replace last_ts key ts;
        match ph with
        | "B" ->
          Hashtbl.replace depth key
            (1 + Option.value (Hashtbl.find_opt depth key) ~default:0)
        | "E" ->
          let d = Option.value (Hashtbl.find_opt depth key) ~default:0 - 1 in
          if d < 0 then
            Alcotest.failf "E without B on track (%.0f, %.0f)" (fst key)
              (snd key);
          Hashtbl.replace depth key d
        | "b" ->
          let id = str_exn "id" e in
          Hashtbl.replace open_async id
            (1 + Option.value (Hashtbl.find_opt open_async id) ~default:0)
        | "e" ->
          let id = str_exn "id" e in
          let d = Option.value (Hashtbl.find_opt open_async id) ~default:0 - 1 in
          if d < 0 then Alcotest.failf "async end without begin, id %s" id;
          Hashtbl.replace open_async id d
        | _ -> ()
      end)
    events;
  Hashtbl.iter
    (fun (pid, tid) d ->
      if d <> 0 then Alcotest.failf "unbalanced B/E on track (%.0f, %.0f)" pid tid)
    depth;
  Hashtbl.iter
    (fun id d -> if d <> 0 then Alcotest.failf "unclosed async span id %s" id)
    open_async;
  events

let test_export_synthetic () =
  (* Hand-built sink, including slices and spans left open: the exporter
     must repair them so the invariants still hold. *)
  let s = Obs.Sink.create () in
  Obs.Sink.sched s ~time:10
    (Obs.Sink.Dispatch { cpu = 0; tid = 7; name = "a"; migrated = false });
  Obs.Sink.sched s ~time:20 (Obs.Sink.Preempt { cpu = 0; tid = 7 });
  Obs.Sink.sched s ~time:20
    (Obs.Sink.Dispatch { cpu = 0; tid = 8; name = "b"; migrated = true });
  Obs.Sink.sched s ~time:25 (Obs.Sink.Wake { tid = 7; target_cpu = 1 });
  let root =
    Obs.Sink.span_begin s ~time:30 ~name:"root" ~track:(Obs.Sink.Enclave 0) ()
  in
  let child =
    Obs.Sink.span_begin s ~time:35 ~parent:root ~name:"child"
      ~track:(Obs.Sink.Enclave 0) ()
  in
  Obs.Sink.span_end s ~time:40 child;
  Obs.Sink.instant s ~time:41 ~name:"mark" ~track:Obs.Sink.Global ();
  (* [root] left open; cpu 0 still has "b" running: exporter self-repairs. *)
  let events = check_export_invariants (Obs.Perfetto.export_string s) in
  let names ph =
    List.filter_map
      (fun e ->
        match Option.bind (Obs.Json.member "ph" e) Obs.Json.str with
        | Some p when p = ph ->
          Option.bind (Obs.Json.member "name" e) Obs.Json.str
        | _ -> None)
      events
  in
  check_bool "dispatch slice" true (List.mem "run:a" (names "B"));
  check_bool "async span" true (List.mem "root" (names "b"));
  check_bool "instant" true (List.mem "mark" (names "i"));
  check_bool "metrics attached" true
    (Obs.Json.member "metrics"
       (Result.get_ok (Obs.Json.parse (Obs.Perfetto.export_string s)))
    <> None)

(* --- End-to-end: instrumented ghOSt run --------------------------------------- *)

let run_small_ghost_scenario () =
  let k = Kernel.create (tiny 3) in
  let sys = System.install k in
  let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
  let _, pol = Policies.Fifo_centralized.policy ~timeslice:(us 100) () in
  let _g = Agent.attach_global sys e pol in
  List.iter
    (fun i ->
      let t =
        Kernel.create_task k
          ~name:(Printf.sprintf "job%d" i)
          (Task.compute_total ~slice:(us 80) ~total:(us 400) (fun () -> Task.Exit))
      in
      System.manage e t;
      Kernel.start k t)
    [ 0; 1; 2; 3 ];
  Kernel.run_until k (ms 5)

let test_cross_layer_spans () =
  with_sink (fun sink ->
      run_small_ghost_scenario ();
      let begins = Hashtbl.create 64 in
      let ended = Hashtbl.create 64 in
      let dispatches = ref 0 in
      Obs.Sink.iter sink (fun ev ->
          match ev.Obs.Sink.kind with
          | Obs.Sink.Span_begin { id; parent; name } ->
            Hashtbl.replace begins id (name, parent)
          | Obs.Sink.Span_end { id } -> Hashtbl.replace ended id ()
          | Obs.Sink.Sched (Obs.Sink.Dispatch _) -> incr dispatches
          | _ -> ());
      check_bool "dispatches recorded" true (!dispatches > 0);
      let spans_named prefix =
        Hashtbl.fold
          (fun id (name, parent) acc ->
            if String.length name >= String.length prefix
               && String.sub name 0 (String.length prefix) = prefix
            then (id, name, parent) :: acc
            else acc)
          begins []
      in
      let sched_spans = spans_named "sched:" in
      let msg_spans = spans_named "msg:" in
      let txn_spans = spans_named "txn" in
      check_bool "sched chain spans" true (sched_spans <> []);
      check_bool "msg spans" true (msg_spans <> []);
      check_bool "txn spans" true (txn_spans <> []);
      (* The paper's decision chain: a message span parented under a sched
         chain span — produced in Squeue, parent opened for the kernel
         event, consumed by the agent. *)
      let chained_msg =
        List.exists
          (fun (_, _, parent) ->
            parent <> 0
            && List.exists (fun (id, _, _) -> id = parent) sched_spans)
          msg_spans
      in
      check_bool "msg span parented under sched chain" true chained_msg;
      (* Transactions are parented under the agent pass that created them. *)
      let agent_passes = spans_named "agent-pass" in
      check_bool "agent pass spans" true (agent_passes <> []);
      let chained_txn =
        List.exists
          (fun (_, _, parent) ->
            parent <> 0
            && List.exists (fun (id, _, _) -> id = parent) agent_passes)
          txn_spans
      in
      check_bool "txn span parented under agent pass" true chained_txn;
      (* Every sched chain span that was opened got closed by a dispatch. *)
      let closed =
        List.for_all (fun (id, _, _) -> Hashtbl.mem ended id) sched_spans
      in
      check_bool "sched chains closed" true closed;
      (* And the whole thing exports cleanly. *)
      ignore (check_export_invariants (Obs.Perfetto.export_string sink));
      (* Metrics moved in lockstep. *)
      let counter name =
        match List.assoc name (Obs.Metrics.snapshot ()) with
        | Obs.Metrics.Counter n -> n
        | _ -> Alcotest.failf "%s is not a counter" name
      in
      check_bool "dispatch metric" true (counter "sched.dispatches" > 0);
      check_bool "txn metric" true (counter "txn.committed" > 0);
      check_int "no drops" 0 (counter "msg.dropped"))

let test_disabled_records_nothing () =
  Obs.Metrics.reset ();
  check_bool "no sink installed" false (Obs.Hooks.enabled ());
  run_small_ghost_scenario ();
  (* With no sink the hooks bail before touching metrics. *)
  match List.assoc "sched.dispatches" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter n -> check_int "no metrics without sink" 0 n
  | _ -> Alcotest.fail "sched.dispatches not a counter"

(* A fastpath run races the kernel's ring picks against the agent's
   commits, so its transactions fail for more than one reason; every
   failure lands in exactly one txn.failed.<reason> counter. *)
let test_txn_failure_reasons () =
  with_sink (fun _ ->
      let scn =
        Scenario.make ~seed:3 ~warmup_ns:(ms 1) ~measure_ns:(ms 6)
          ~cooldown_ns:(ms 1) ~machine:Hw.Machines.xeon_e5_1s
          ~enclaves:
            [
              Scenario.enclave ~policy:"shinjuku?fastpath=true"
                ~cpus:(List.init 5 Fun.id)
                ~workloads:
                  [
                    Scenario.Openloop
                      {
                        wseed = 11;
                        rate = 330_000.0;
                        service = Sim.Dist.Const 10_000.0;
                        nworkers = 64;
                        prefix = "worker";
                      };
                  ]
                "serve";
            ]
          "txn-reasons"
      in
      ignore (Scenario.run scn);
      let snap = Obs.Metrics.snapshot () in
      let counter name =
        match List.assoc_opt name snap with
        | Some (Obs.Metrics.Counter n) -> n
        | _ -> 0
      in
      let prefix = "txn.failed." in
      let reasons =
        List.filter_map
          (fun (name, v) ->
            match v with
            | Obs.Metrics.Counter n when String.starts_with ~prefix name && n > 0 ->
              Some n
            | _ -> None)
          snap
      in
      let failed = counter "txn.failed" in
      check_bool "transactions failed" true (failed > 0);
      check_bool "more than one reason" true (List.length reasons > 1);
      check_int "reasons sum to txn.failed" failed (List.fold_left ( + ) 0 reasons))

(* --- Lifecycle instants ------------------------------------------------------- *)

let instant_names sink =
  let acc = ref [] in
  Obs.Sink.iter sink (fun ev ->
      match ev.Obs.Sink.kind with
      | Obs.Sink.Instant { name } -> acc := name :: !acc
      | _ -> ());
  !acc

let test_watchdog_instant () =
  with_sink (fun sink ->
      let k = Kernel.create (tiny 2) in
      let sys = System.install k in
      let e =
        System.create_enclave sys ~watchdog_timeout:(ms 10)
          ~cpus:(Kernel.full_mask k) ()
      in
      let task =
        Kernel.create_task k ~name:"starved"
          (Task.compute_total ~slice:(us 100) ~total:(ms 2) (fun () -> Task.Exit))
      in
      System.manage e task;
      Kernel.start k task;
      Kernel.run_until k (ms 60);
      check_bool "watchdog destroyed enclave" false (System.enclave_alive e);
      let names = instant_names sink in
      check_bool "watchdog-fire instant" true (List.mem "watchdog-fire" names);
      check_bool "enclave-destroyed instant" true
        (List.mem "enclave-destroyed" names);
      check_bool "enclave-created instant" true
        (List.mem "enclave-created" names);
      ignore (check_export_invariants (Obs.Perfetto.export_string sink)))

let test_agent_crash_instant () =
  with_sink (fun sink ->
      let k = Kernel.create (tiny 2) in
      let sys = System.install k in
      let e = System.create_enclave sys ~cpus:(Kernel.full_mask k) () in
      let _, pol = Policies.Fifo_centralized.policy () in
      let group = Agent.attach_global sys e pol in
      let task =
        Kernel.create_task k ~name:"w"
          (Task.compute_total ~slice:(us 100) ~total:(ms 50) (fun () -> Task.Exit))
      in
      System.manage e task;
      Kernel.start k task;
      Kernel.run_until k (ms 5);
      Agent.crash group;
      Kernel.run_until k (ms 10);
      check_bool "enclave destroyed" false (System.enclave_alive e);
      let names = instant_names sink in
      check_bool "agent-attach instant" true (List.mem "agent-attach" names);
      check_bool "agent-crash instant" true (List.mem "agent-crash" names))

(* --- Drop surfacing ----------------------------------------------------------- *)

let test_drop_surfacing () =
  with_sink (fun sink ->
      let k = Kernel.create (tiny 2) in
      let sys = System.install k in
      let e =
        System.create_enclave sys ~deliver_ticks:true
          ~cpus:(Kernel.full_mask k) ()
      in
      (* Route cpu 0's TIMER_TICKs to a 1-slot queue nobody drains: the
         second tick must overflow, and the loss must be visible at every
         level without polling the queue. *)
      let q = System.create_queue e ~capacity:1 in
      System.associate_cpu_queue e ~cpu:0 q;
      let spin =
        Kernel.create_task k ~name:"spin" (Task.compute_forever ~slice:(ms 1))
      in
      Kernel.start k spin;
      Kernel.run_until k (ms 20);
      check_bool "queue-level drops" true (Squeue.dropped q > 0);
      check_bool "system stat" true ((System.stats sys).System.msg_drops > 0);
      check_bool "enclave_dropped covers the queue" true
        (System.enclave_dropped e >= Squeue.dropped q);
      check_bool "msg-drop instant" true
        (List.mem "msg-drop" (instant_names sink));
      match List.assoc "msg.dropped" (Obs.Metrics.snapshot ()) with
      | Obs.Metrics.Counter n -> check_bool "drop metric" true (n > 0)
      | _ -> Alcotest.fail "msg.dropped not a counter")

(* --- Ring mechanics ----------------------------------------------------------- *)

let test_ring_wrap_drops () =
  Obs.Metrics.reset ();
  let sink = Obs.Sink.create ~capacity:256 () in
  let n = 2000 in
  for i = 1 to n do
    Obs.Sink.instant sink ~time:i ~name:"tickle" ~track:Obs.Sink.Global ()
  done;
  check_int "recorded counts overwritten" n (Obs.Sink.recorded sink);
  check_bool "ring wrapped" true (Obs.Sink.dropped sink > 0);
  check_int "length = recorded - dropped"
    (n - Obs.Sink.dropped sink)
    (Obs.Sink.length sink);
  (* Drop-oldest: the survivors are exactly the newest records, in order. *)
  let times = List.map (fun e -> e.Obs.Sink.time) (Obs.Sink.events sink) in
  let len = Obs.Sink.length sink in
  check_bool "oldest dropped first" true
    (times = List.init len (fun i -> n - len + 1 + i));
  match List.assoc "obs.ring_dropped" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter c ->
    check_int "obs.ring_dropped metric" (Obs.Sink.dropped sink) c
  | _ -> Alcotest.fail "obs.ring_dropped not a counter"

let test_intern_round_trip () =
  let id = Obs.Sink.intern "ring-test-name" in
  check_bool "positive id" true (id > 0);
  check_int "same string, same id" id (Obs.Sink.intern "ring-test-name");
  check_int "empty string is id 0" 0 (Obs.Sink.intern "")

let test_sampling_deterministic () =
  let run () =
    let sink = Obs.Sink.create ~sample:4 ~seed:7 () in
    for i = 1 to 200 do
      let name = if i mod 2 = 0 then "sample-even" else "sample-odd" in
      let id =
        Obs.Sink.span_begin sink ~time:(10 * i) ~name ~track:Obs.Sink.Global ()
      in
      if id > 0 then Obs.Sink.span_end sink ~time:((10 * i) + 5) id
    done;
    Obs.Sink.events sink
  in
  let a = run () in
  let b = run () in
  check_bool "identical events at fixed seed" true (a = b);
  let count p = List.length (List.filter p a) in
  let begins =
    count (fun e ->
        match e.Obs.Sink.kind with Obs.Sink.Span_begin _ -> true | _ -> false)
  in
  let ends =
    count (fun e ->
        match e.Obs.Sink.kind with Obs.Sink.Span_end _ -> true | _ -> false)
  in
  (* 100 spans per name at 1-in-4 keeps exactly 25 of each: the countdown
     sampler keeps every 4th span per name whatever phase was drawn. *)
  check_int "1-in-4 per name" 50 begins;
  check_int "kept spans are balanced" begins ends

(* --- Message joins -------------------------------------------------------------- *)

let wakeup ~tid ~tseq ~at =
  {
    Ghost.Msg.kind = Ghost.Msg.THREAD_WAKEUP;
    tid;
    tseq;
    cpu = 0;
    posted_at = at;
    visible_at = at;
  }

(* The ids of the message spans begun, in record order, and of every span
   ended. *)
let msg_joins sink =
  let begun = ref [] and ended = ref [] in
  Obs.Sink.iter sink (fun ev ->
      match ev.Obs.Sink.kind with
      | Obs.Sink.Span_begin { id; name; _ } when String.starts_with ~prefix:"msg:" name ->
        begun := id :: !begun
      | Obs.Sink.Span_end { id } -> ended := id :: !ended
      | _ -> ());
  (List.rev !begun, List.rev !ended)

(* A later kernel under the same sink numbers its queues from 0 again.  The
   first queue with qid 3 keeps a message it never consumed; the second
   one's message with the same (tid, tseq) must end the span its own
   produce began, not the stale one. *)
let test_reused_qid () =
  with_sink (fun sink ->
      let old_q = Squeue.create ~id:3 ~capacity:8 in
      Obs.Sink.note_queue_owner ~qid:3 ~eid:0;
      ignore (Squeue.produce old_q (wakeup ~tid:5 ~tseq:2 ~at:10));
      let q = Squeue.create ~id:3 ~capacity:8 in
      Obs.Sink.note_queue_owner ~qid:3 ~eid:1;
      ignore (Squeue.produce q (wakeup ~tid:5 ~tseq:2 ~at:20));
      check_bool "consumed" true (Squeue.consume q ~now:30 <> None);
      match msg_joins sink with
      | [ _stale; fresh ], ended ->
        check_bool "the new queue's span ended" true (ended = [ fresh ])
      | begun, _ -> Alcotest.failf "%d message spans, expected 2" (List.length begun))

(* A message produced before the sink was installed has no span: its
   consume ends nothing, and the next message still joins. *)
let test_message_before_install () =
  Obs.Metrics.reset ();
  let q = Squeue.create ~id:4 ~capacity:8 in
  ignore (Squeue.produce q (wakeup ~tid:6 ~tseq:2 ~at:10));
  with_sink (fun sink ->
      ignore (Squeue.produce q (wakeup ~tid:6 ~tseq:4 ~at:20));
      check_bool "first consumed" true (Squeue.consume q ~now:30 <> None);
      check_bool "no span ended" true (snd (msg_joins sink) = []);
      check_bool "second consumed" true (Squeue.consume q ~now:40 <> None);
      match msg_joins sink with
      | [ id ], ended -> check_bool "its span ended" true (ended = [ id ])
      | begun, _ -> Alcotest.failf "%d message spans, expected 1" (List.length begun))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [ Alcotest.test_case "registry and snapshots" `Quick test_metrics_registry ] );
      ( "perfetto",
        [ Alcotest.test_case "synthetic export invariants" `Quick test_export_synthetic ] );
      ( "instrumentation",
        [
          Alcotest.test_case "cross-layer spans" `Quick test_cross_layer_spans;
          Alcotest.test_case "txn failures by reason" `Quick
            test_txn_failure_reasons;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "watchdog instant" `Quick test_watchdog_instant;
          Alcotest.test_case "agent crash instant" `Quick test_agent_crash_instant;
        ] );
      ( "drops",
        [ Alcotest.test_case "surfaced at every level" `Quick test_drop_surfacing ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound drops oldest" `Quick test_ring_wrap_drops;
          Alcotest.test_case "intern round-trip" `Quick test_intern_round_trip;
          Alcotest.test_case "sampling deterministic" `Quick
            test_sampling_deterministic;
        ] );
      ( "joins",
        [
          Alcotest.test_case "reused qid starts empty" `Quick test_reused_qid;
          Alcotest.test_case "message before install" `Quick
            test_message_before_install;
        ] );
    ]
