(* Benchmark harness: one target per entry of Experiments.Registry (each
   table and figure of the paper's evaluation, §4, and the ablations
   DESIGN.md calls out), each checking the entry's verdict at the quick or
   full size, plus the simulator's own throughput and allocation guards.

   Usage:  main.exe [quick] [target ...]
   Targets: every registry name, engine cluster dsl, all (default: all) *)

module R = Experiments.Registry

let quick = ref false
let seed = 42

let ms = Sim.Units.ms

let scale () = if !quick then R.Quick else R.Full

(* Guards: collected, reported together, and fatal once the last target
   has run, so one failure hides no later reading.  A host-side threshold
   lives below the measured values by more than the observed noise band,
   so a failure means a real regression, not a bad draw. *)
let guard_failures : string list ref = ref []

let check (c : R.check) =
  let ok = R.holds c in
  Printf.printf "guard %s  %s\n" (R.show_check c) (if ok then "ok" else "FAIL");
  if not ok then guard_failures := R.show_check c :: !guard_failures

let guard what reading ~floor = check { what; reading; bound = At_least floor }

let guard_max what reading ~ceiling =
  check { what; reading; bound = At_most ceiling }

let check_guards () =
  match !guard_failures with
  | [] -> ()
  | fails ->
    List.iter (fun f -> Printf.eprintf "bench guard regressed: %s\n" f) fails;
    exit 1

(* Runs a registry entry at the bench's size, prints it and checks its
   verdict. *)
let run_entry (e : _ R.t) =
  let r = e.run (scale ()) ~seed in
  e.print r;
  List.iter
    (fun (c : R.check) -> check { c with what = e.name ^ ": " ^ c.what })
    (e.verdict r);
  r

(* BENCH_engine.json is shared by every target that records numbers:
   read-modify-write so each target owns its top-level keys and running one
   doesn't clobber another's.  Every section written is stamped
   with the mode that produced it ("quick" or "full"), the commit it was
   built from ("-dirty" if any tracked file but the bench JSON differs from
   it, "unknown" outside a git checkout) and the dune profile it was
   compiled in ("release" by default, "dev" under --profile dev), so
   numbers never mix unmarked.  No guard reads the file: each compares
   readings taken in the same run. *)
let bench_json = "BENCH_engine.json"

let commit =
  lazy
    (match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, c when c <> "" ->
        if
          Sys.command
            "git diff --quiet HEAD -- ':/' ':(top,exclude)BENCH_*.json' 2>/dev/null"
          = 0
        then c
        else c ^ "-dirty"
      | _ -> "unknown"))

let read_bench_json () =
  if Sys.file_exists bench_json then begin
    let ic = open_in_bin bench_json in
    let n = in_channel_length ic in
    let str = really_input_string ic n in
    close_in ic;
    match Obs.Json.parse str with Ok (Obs.Json.Obj o) -> o | Ok _ | Error _ -> []
  end
  else []

let update_bench_json kvs =
  let stamp =
    [
      ("mode", Obs.Json.Str (if !quick then "quick" else "full"));
      ("commit", Obs.Json.Str (Lazy.force commit));
      ("profile", Obs.Json.Str Build_profile.name);
    ]
  in
  let kvs =
    List.map
      (function
        | k, Obs.Json.Obj o ->
          ( k,
            Obs.Json.Obj
              (stamp @ List.filter (fun (f, _) -> not (List.mem_assoc f stamp)) o) )
        | kv -> kv)
      kvs
  in
  let merged =
    List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) (read_bench_json ())
    @ kvs
  in
  let oc = open_out bench_json in
  output_string oc (Obs.Json.to_string (Obs.Json.Obj merged));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" bench_json

let run_colocation () =
  let r = run_entry R.colocation in
  let side (s : Experiments.Colocation.side) =
    Obs.Json.Obj
      [
        ("achieved_kqps", Obs.Json.Num s.achieved_kqps);
        ("p50_us", Obs.Json.Num s.p50_us);
        ("p99_us", Obs.Json.Num s.p99_us);
        ("p999_us", Obs.Json.Num s.p999_us);
        ("batch_share", Obs.Json.Num s.batch_share);
        ("cpu_moves", Obs.Json.Num (float_of_int s.moves));
      ]
  in
  update_bench_json
    [
      ( "colocation",
        Obs.Json.Obj
          [
            ("seed", Obs.Json.Num (float_of_int seed));
            ("dynamic", side r.dynamic);
            ("static", side r.static_);
          ] );
    ]

(* --- Engine throughput (events/sec) ------------------------------------------ *)

(* Event-queue throughput on synthetic workloads shaped like the simulator's
   real traffic.  The same driver runs against the two-tier wheel+heap queue
   ([Sim.Eventq]) and the seed binary heap kept as a baseline ([Sim.Heapq],
   API-compatible), so the reported speedup is apples-to-apples. *)

module Engine_bench (Q : sig
  type t
  type handle

  val create : unit -> t
  val nil_handle : handle
  val push : t -> time:int -> (unit -> unit) -> handle
  val cancel : t -> handle -> unit
  val pop_cell : t -> Sim.Heapq.cell
end) =
struct
  (* Pop-and-fire [events] events, advancing the virtual clock in [now];
     returns (events/sec of wall time, GC minor words per event).  Uses the
     sentinel pop so the loop itself allocates nothing — what's measured is
     the queue, not [option] wrappers; the words number is the workload's
     own allocation (its cells and closures), which is why it is reported:
     a regression there means the hot path started boxing again. *)
  let drive q now ~events =
    let fired = ref 0 in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    while !fired < events do
      let c = Q.pop_cell q in
      if c == Sim.Heapq.nil then invalid_arg "engine bench: queue drained early";
      now := c.Sim.Heapq.time;
      incr fired;
      c.Sim.Heapq.fn ()
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. w0) /. float_of_int events in
    (float_of_int events /. wall, words)

  (* A standing population of far-future timers: sleeping threads' wakeups,
     watchdogs, experiment deadlines.  They sit in the queue for seconds of
     virtual time while the hot traffic churns — the regime hierarchical
     timer wheels were invented for.  Reposts itself on fire so the
     population stays constant. *)
  let seed_timers q rng now ~count =
    let rec arm () =
      let delay = 1_000_000_000 + Sim.Rng.int rng 29_000_000_000 in
      ignore (Q.push q ~time:(!now + delay) arm)
    in
    for _ = 1 to count do
      arm ()
    done

  (* 64 CPUs on a 1 ms tick.  Each tick fans out what the kernel really
     posts: immediate rescheds (delay 0), context-switch completions and IPI
     deliveries (~1-2 us), a segment end (~50 us) — dense short-horizon
     traffic churning over 1M standing timers. *)
  let tick_heavy ~events =
    let q = Q.create () in
    let now = ref 0 in
    seed_timers q (Sim.Rng.create 3) now ~count:1_000_000;
    let period = 1_000_000 in
    let rec tick () =
      ignore (Q.push q ~time:!now (fun () -> ()));
      ignore (Q.push q ~time:!now (fun () -> ()));
      ignore (Q.push q ~time:(!now + 1_200) (fun () -> ()));
      ignore (Q.push q ~time:(!now + 1_900) (fun () -> ()));
      ignore (Q.push q ~time:(!now + 50_000) (fun () -> ()));
      ignore (Q.push q ~time:(!now + period) tick)
    in
    for cpu = 0 to 63 do
      ignore (Q.push q ~time:(cpu * 997) tick)
    done;
    drive q now ~events

  (* Preemption churn: every step cancels the previous segment-end event and
     posts a fresh one, like resched storms do, again over a standing timer
     population.  Mirrors the kernel's layout: per-CPU handle slots hold
     [nil_handle] (not an [option]) and the two closures per CPU are
     allocated up front, so the steady state allocates exactly the two
     queue cells each fired step pushes. *)
  let cancel_heavy ~events =
    let q = Q.create () in
    let now = ref 0 in
    seed_timers q (Sim.Rng.create 5) now ~count:1_000_000;
    let ncpus = 64 in
    let pending = Array.make ncpus Q.nil_handle in
    let clears =
      Array.init ncpus (fun cpu () -> pending.(cpu) <- Q.nil_handle)
    in
    let steps = Array.make ncpus (fun () -> ()) in
    for cpu = 0 to ncpus - 1 do
      steps.(cpu) <-
        (fun () ->
          if pending.(cpu) != Q.nil_handle then begin
            Q.cancel q pending.(cpu);
            pending.(cpu) <- Q.nil_handle
          end;
          pending.(cpu) <- Q.push q ~time:(!now + 150_000) clears.(cpu);
          ignore (Q.push q ~time:(!now + 10_000) steps.(cpu)))
    done;
    for cpu = 0 to ncpus - 1 do
      ignore (Q.push q ~time:(cpu * 997) steps.(cpu))
    done;
    drive q now ~events

  (* Self-reposting events with delays spanning six decades, including
     far-future ones past the wheel horizon (watchdogs, experiment ends). *)
  let mixed_horizon ~events =
    let q = Q.create () in
    let rng = Sim.Rng.create 7 in
    let now = ref 0 in
    let delay () =
      let p = Sim.Rng.int rng 100 in
      if p < 80 then 1_000 + Sim.Rng.int rng 999_000 (* 1 us .. 1 ms *)
      else if p < 95 then 1_000_000 + Sim.Rng.int rng 99_000_000 (* .. 100 ms *)
      else 1_000_000_000 + Sim.Rng.int rng 59_000_000_000 (* 1 s .. 60 s *)
    in
    let rec repost () = ignore (Q.push q ~time:(!now + delay ()) repost) in
    for _ = 1 to 65_536 do
      ignore (Q.push q ~time:(delay ()) repost)
    done;
    drive q now ~events

  (* The rows above keep 65k-1M timers standing; the perfbench workloads
     keep 31-235 events pending on average (46 on serve-central).  This row
     keeps 45, each reposting itself with a delay drawn as serve-central's
     pushes are: 16 % same-time, 76 % 0.5-4 us, 7 % 8-64 us, 1 % 1-2 ms.
     With so few cells the queue's cost is its branches, not its memory.
     The delays are drawn up front, so the timed loop is the queue's. *)
  let serve_shaped ~events =
    let q = Q.create () in
    let rng = Sim.Rng.create 11 in
    let delays =
      Array.init 65_536 (fun _ ->
          let p = Sim.Rng.int rng 100 in
          if p < 16 then 0
          else if p < 92 then 500 + Sim.Rng.int rng 3_500
          else if p < 99 then 8_000 + Sim.Rng.int rng 56_000
          else 1_000_000 + Sim.Rng.int rng 1_000_000)
    in
    let now = ref 0 and next = ref 0 in
    let rec repost () =
      next := (!next + 1) land 65_535;
      ignore (Q.push q ~time:(!now + delays.(!next)) repost)
    in
    for i = 1 to 45 do
      ignore (Q.push q ~time:delays.(i) repost)
    done;
    drive q now ~events
end

module Bench_heap = Engine_bench (Sim.Heapq)
module Bench_two_tier = Engine_bench (Sim.Eventq)

(* The sides of a guarded ratio run interleaved: each of [rounds] rounds
   runs every side once, each after a full major GC so no run pays for an
   earlier one's garbage.  A side returns its rate first.  Returns the
   rounds.  A row whose runs take milliseconds runs more rounds. *)
let interleaved ~rounds fs =
  List.init rounds (fun _ ->
      Array.map
        (fun f ->
          Gc.full_major ();
          f ())
        fs)

(* Side [i]'s fastest run. *)
let best rounds i =
  List.fold_left
    (fun b r -> if fst r.(i) > fst b then r.(i) else b)
    (List.hd rounds).(i) rounds

(* The median over rounds of side [i]'s rate over side [j]'s in the same
   round.  The ratio is not taken between the best runs: on a shared 2-vCPU
   VM a run is also sometimes faster than usual (serve-shaped's heap side
   read 7.85M/s in one round and 6.35-6.68M/s in the other eleven), and one
   such run on one side moved a best-of ratio from about 1.65x to 1.46x. *)
let median_ratio rounds i j =
  let a = Array.of_list (List.map (fun r -> fst r.(i) /. fst r.(j)) rounds) in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A simulation is deterministic, so side [i] must fire exactly [expect]
   events (a side's second value) in every round. *)
let guard_events name rounds i ~expect =
  let counts =
    List.sort_uniq compare (List.map (fun r -> int_of_float (snd r.(i))) rounds)
  in
  Printf.printf "%s events per run: %s (expected %d)\n" name
    (String.concat ", " (List.map string_of_int counts))
    expect;
  guard (name ^ " event count") (if counts = [ expect ] then 1.0 else 0.0)
    ~floor:1.0

(* A simulated run as an interleaved side: events per host second, and the
   events it fired. *)
let sim_side run () =
  let fired, wall = run () in
  (float_of_int fired /. wall, float_of_int fired)

(* The control every guarded simulation rate is divided by, run in the same
   rounds: the engine's heap-only serve-shaped row, which shares no code
   with the simulator but [Sim.Heapq].  The VM's speed drifts 1.4x between
   runs, so a rate recorded once says nothing about today's run; a ratio
   to a control measured beside it lets the floor sit in code. *)
let control () = Bench_heap.serve_shaped ~events:300_000

(* --- Observability overhead --------------------------------------------------- *)

(* The instrumented Squeue produce+consume roundtrip — the hottest hooked
   path — timed with no obs sink vs one installed.  The disabled number is
   what every ordinary run pays for the hooks being compiled in (a load and
   compare per site) and must stay at the seed's level; the enabled number
   bounds what `ghost_bench_cli trace` costs. *)
let obs_roundtrip ~events =
  let q = Ghost.Squeue.create ~id:1 ~capacity:64 in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to events do
    let msg =
      {
        Ghost.Msg.kind = Ghost.Msg.THREAD_WAKEUP;
        tid = 1;
        tseq = i;
        cpu = 0;
        posted_at = i;
        visible_at = i;
      }
    in
    ignore (Ghost.Squeue.produce q msg);
    ignore (Ghost.Squeue.consume q ~now:i)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let words = (Gc.minor_words () -. w0) /. float_of_int events in
  (float_of_int events /. wall, words)

(* Three rows: hooks compiled in but no sink (what every run pays), a full
   trace (sample=1), and the ring's 1-in-N span sampling (sample=8) — the
   knob that buys back most of the tracing cost when full fidelity isn't
   needed. *)
let obs_sample_n = 16

let run_obs_overhead ~events =
  let with_sink mk () =
    Obs.Metrics.reset ();
    Obs.Sink.install (mk ());
    Fun.protect
      ~finally:(fun () ->
        Obs.Sink.uninstall ();
        Obs.Metrics.reset ())
      (fun () -> obs_roundtrip ~events)
  in
  interleaved ~rounds:30
    [|
      (fun () -> obs_roundtrip ~events);
      with_sink (fun () -> Obs.Sink.create ());
      with_sink (fun () -> Obs.Sink.create ~sample:obs_sample_n ());
    |]

(* --- The ghOSt scenario: host rate and fault-hook overhead ------------------- *)

(* A small ghOSt serving scenario: fifo-centralized's global agent drains
   messages, reads status words and commits transactions for six
   compute-bound threads on four CPUs, for 100 ms.  It runs with no
   injector and with an empty plan armed.  An empty plan posts nothing to
   the event queue, so the two execute the same simulation; their ratio
   bounds what merely having lib/faults wired in costs every ordinary run
   (it should be noise). *)
let ghost_scenario ~arm () =
  let machine =
    {
      Hw.Machines.name = "faults-overhead";
      topo = Hw.Topology.create ~sockets:1 ~ccx_per_socket:1 ~cores_per_ccx:4 ~smt:1;
      costs = Hw.Costs.skylake;
    }
  in
  let kernel = Kernel.create ~seed:11 machine in
  let sys = Ghost.System.install kernel in
  let e = Ghost.System.create_enclave sys ~cpus:(Kernel.full_mask kernel) () in
  let _, pol = Policies.Fifo_centralized.policy ~timeslice:(Sim.Units.us 100) () in
  let g = Ghost.Agent.attach_global sys e pol in
  for i = 0 to 5 do
    let t =
      Kernel.create_task kernel
        ~name:(Printf.sprintf "w%d" i)
        (Kernel.Task.compute_forever ~slice:(Sim.Units.us 50))
    in
    Ghost.System.manage e t;
    Kernel.start kernel t
  done;
  if arm then
    ignore
      (Faults.Injector.arm ~rng:(Kernel.rng kernel)
         { Faults.Injector.sys; enclave = e; group = Some g; replace = None }
         Faults.Plan.empty);
  let t0 = Unix.gettimeofday () in
  Kernel.run_until kernel (ms 100);
  let wall = Unix.gettimeofday () -. t0 in
  (Sim.Engine.events_fired (Kernel.engine kernel), wall)

(* The events the scenario fires, armed or not: the count the agent ABI's
   port was pinned to (DESIGN.md §11). *)
let ghost_scenario_events = 114_988

let run_engine () =
  let events = if !quick then 300_000 else 2_000_000 in
  let serve_events = max events 1_000_000 in
  Gstats.Table.print_title
    (Printf.sprintf
       "Engine throughput: events/sec over %d events, serve-shaped %d \
        (heap-only seed queue vs two-tier wheel+heap)"
       events serve_events)
    ;
  (* Rounds and events per run for each row.  cancel-heavy read 2.955
     against its 3.0 floor once with five rounds.  A serve-shaped round's
     ratio spreads 1.2-2.0x at 300k events, and its median read 1.421 and
     1.488 against the 1.5 floor in one of twenty quick runs each with 15
     and 31 rounds; at a million events eleven rounds read 1.62-1.76. *)
  let workloads =
    [
      ("tick-heavy", 5, events, Bench_heap.tick_heavy, Bench_two_tier.tick_heavy);
      ("cancel-heavy", 7, events, Bench_heap.cancel_heavy, Bench_two_tier.cancel_heavy);
      ( "mixed-horizon", 5, events, Bench_heap.mixed_horizon,
        Bench_two_tier.mixed_horizon );
      ( "serve-shaped", 11, serve_events, Bench_heap.serve_shaped,
        Bench_two_tier.serve_shaped );
    ]
  in
  let fmt_rate r =
    if r >= 1e6 then Printf.sprintf "%.2fM/s" (r /. 1e6)
    else Printf.sprintf "%.0fk/s" (r /. 1e3)
  in
  let results =
    List.map
      (fun (name, rounds, events, heap, two) ->
        let r =
          interleaved ~rounds
            [| (fun () -> heap ~events); (fun () -> two ~events) |]
        in
        (name, best r 0, best r 1, median_ratio r 1 0))
      workloads
  in
  Gstats.Table.print
    ~header:
      [ "workload"; "heap-only"; "wheel+heap"; "speedup"; "wheel words/ev" ]
    (List.map
       (fun (name, (rh, _), (rt, wt), speedup) ->
         [
           name;
           fmt_rate rh;
           fmt_rate rt;
           Printf.sprintf "%.2fx" speedup;
           Printf.sprintf "%.1f" wt;
         ])
       results);
  let obs_events = if !quick then 200_000 else 1_000_000 in
  let obs = run_obs_overhead ~events:obs_events in
  let obs_disabled, obs_disabled_words = best obs 0 in
  let obs_enabled, obs_enabled_words = best obs 1 in
  let obs_sampled, obs_sampled_words = best obs 2 in
  let enabled_over_disabled = median_ratio obs 1 0
  and sampled_over_disabled = median_ratio obs 2 0 in
  Gstats.Table.print
    ~header:
      [ "obs sink (squeue roundtrip)"; "events/sec"; "minor words/ev"; "vs disabled" ]
    [
      [ "disabled"; fmt_rate obs_disabled;
        Printf.sprintf "%.1f" obs_disabled_words; "1.00x" ];
      [
        "enabled (full trace)";
        fmt_rate obs_enabled;
        Printf.sprintf "%.1f" obs_enabled_words;
        Printf.sprintf "%.2fx" enabled_over_disabled;
      ];
      [
        Printf.sprintf "enabled (sample=%d)" obs_sample_n;
        fmt_rate obs_sampled;
        Printf.sprintf "%.1f" obs_sampled_words;
        Printf.sprintf "%.2fx" sampled_over_disabled;
      ];
    ];
  let ghost =
    interleaved ~rounds:7
      [|
        control;
        sim_side (ghost_scenario ~arm:false);
        sim_side (ghost_scenario ~arm:true);
      |]
  in
  let control_rate, _ = best ghost 0 in
  let unarmed, _ = best ghost 1 and armed, _ = best ghost 2 in
  let unarmed_over_control = median_ratio ghost 1 0
  and armed_over_unarmed = median_ratio ghost 2 1 in
  Gstats.Table.print
    ~header:[ "ghost scenario (100 ms)"; "events/sec"; "median ratio" ]
    [
      [ "control (heap serve-shaped)"; fmt_rate control_rate; "" ];
      [
        "no injector";
        fmt_rate unarmed;
        Printf.sprintf "%.3f of control" unarmed_over_control;
      ];
      [
        "empty plan armed";
        fmt_rate armed;
        Printf.sprintf "%.3f of no injector" armed_over_unarmed;
      ];
    ];
  guard_events "ghost scenario unarmed" ghost 1 ~expect:ghost_scenario_events;
  guard_events "ghost scenario armed" ghost 2 ~expect:ghost_scenario_events;
  (* Twenty quick runs on a 2-vCPU VM read 0.403-0.566 unarmed over the
     control and 0.859-1.086 armed over unarmed; each floor sits 10 %
     under the lowest.  Each trips on a 1.1-1.6x slowdown, where the rate
     recorded once tripped the old ABI guard on a 1.4-2.3x one. *)
  guard "ghost scenario/control" unarmed_over_control ~floor:0.36;
  guard "faults armed/unarmed" armed_over_unarmed ~floor:0.77;
  update_bench_json
    [
      ( "engine",
        Obs.Json.Obj
          [
            ("events", Obs.Json.Num (float_of_int events));
            ( "workloads",
              Obs.Json.Arr
                (List.map
                   (fun (name, (rh, wh), (rt, wt), speedup) ->
                     Obs.Json.Obj
                       [
                         ("name", Obs.Json.Str name);
                         ("heap_events_per_sec", Obs.Json.Num rh);
                         ("wheel_events_per_sec", Obs.Json.Num rt);
                         ("speedup", Obs.Json.Num speedup);
                         ("heap_minor_words_per_event", Obs.Json.Num wh);
                         ("wheel_minor_words_per_event", Obs.Json.Num wt);
                       ])
                   results) );
          ] );
      ( "gc",
        Obs.Json.Obj
          [
            ( "minor_words_per_event",
              Obs.Json.Obj
                (List.map
                   (fun (name, _, (_, wt), _) -> (name, Obs.Json.Num wt))
                   results
                @ [
                    ("obs_disabled", Obs.Json.Num obs_disabled_words);
                    ("obs_enabled", Obs.Json.Num obs_enabled_words);
                    ("obs_sampled", Obs.Json.Num obs_sampled_words);
                  ]) );
          ] );
      ( "obs_overhead",
        Obs.Json.Obj
          [
            ("disabled_events_per_sec", Obs.Json.Num obs_disabled);
            ("enabled_events_per_sec", Obs.Json.Num obs_enabled);
            ("enabled_over_disabled", Obs.Json.Num enabled_over_disabled);
            ("sample_n", Obs.Json.Num (float_of_int obs_sample_n));
            ("sampled_events_per_sec", Obs.Json.Num obs_sampled);
            ("sampled_over_disabled", Obs.Json.Num sampled_over_disabled);
          ] );
      ( "ghost_scenario",
        Obs.Json.Obj
          [
            ("events_fired", Obs.Json.Num (float_of_int ghost_scenario_events));
            ("control_events_per_sec", Obs.Json.Num control_rate);
            ("unarmed_events_per_sec", Obs.Json.Num unarmed);
            ("armed_empty_events_per_sec", Obs.Json.Num armed);
            ("unarmed_over_control", Obs.Json.Num unarmed_over_control);
            ("armed_over_unarmed", Obs.Json.Num armed_over_unarmed);
          ] );
    ];
  (* Regression guards over the numbers just written.  ISSUE 6's stated
     targets were 0.5x for full tracing and 4x for mixed-horizon; steady
     state on this hardware both tiers are memory-bound (every fire pays the
     same cold cell dereference), which caps the honest equal-protocol
     mixed ratio near 2x and full tracing near 0.4x — see DESIGN.md §12.
     The floors below sit under the measured values by more than the noise
     band so they catch real regressions without flaking; the sampled
     tracing row is where the 0.5x bar is met and enforced. *)
  let speedup_of name =
    match List.find_opt (fun (n, _, _, _) -> n = name) results with
    | Some (_, _, _, speedup) -> speedup
    | None -> 0.0
  in
  let wheel_words name =
    match List.find_opt (fun (n, _, _, _) -> n = name) results with
    | Some (_, _, (_, wt), _) -> wt
    | None -> infinity
  in
  guard "tick-heavy speedup" (speedup_of "tick-heavy") ~floor:2.0;
  guard "cancel-heavy speedup" (speedup_of "cancel-heavy") ~floor:3.0;
  guard "mixed-horizon speedup" (speedup_of "mixed-horizon")
    ~floor:(if !quick then 1.4 else 1.15);
  (* With a few dozen cells pending, the pop's branches are its cost.  Six
     quick runs each on a 2-vCPU VM read 1.09-1.29x for the wheel whose
     pop ran a branchy count-trailing-zeros twice and filled every slot it
     drained, and 1.75-2.15x for the one-call de Bruijn pop. *)
  guard "serve-shaped speedup" (speedup_of "serve-shaped") ~floor:1.5;
  (* Steady state the wheel's pop path allocates nothing: the words are the
     workload's own cell + repost closure.  Quick mode also amortises the
     slot-array growth transient over fewer events, hence the looser
     ceiling. *)
  guard_max "mixed-horizon wheel words/ev" (wheel_words "mixed-horizon")
    ~ceiling:(if !quick then 16.0 else 10.0);
  (* Lazy cancellation's floor: each fired event re-arms a timeout, so the
     steady state is two live 5-word cells (the fired event's and the
     replacement timeout's) per event — ~10 words.  Anything above this
     ceiling means boxing crept back into the cancel path (the handle
     options and the two-bool cells this packed away paid 24). *)
  guard_max "cancel-heavy wheel words/ev" (wheel_words "cancel-heavy")
    ~ceiling:(if !quick then 13.0 else 12.0);
  guard "obs enabled/disabled" enabled_over_disabled ~floor:0.25;
  (* Twenty quick runs of the release build read 0.55-0.71 sampled on a
     2-vCPU VM.  The looser quick floor dates from dev-profile builds,
     which read 0.36-0.65 (best-of ratios over two uninterleaved reps). *)
  guard "obs sampled/disabled" sampled_over_disabled
    ~floor:(if !quick then 0.42 else 0.5)

(* --- cluster: lane scaling, the percpu-8 row and build words ------------------- *)

(* The percpu-8 row's pinned event count, and the ceiling on its host minor
   words per event, 10 % over the release build's 37.7. *)
let percpu_8_events = 63_776
let percpu_8_words_ceiling = 41.5

(* Three readings of the fleet harness: lane throughput as machines are
   added (events/sec through Sim.Lanes at 1, 2 and 8 machines, per-machine
   load held constant, each recorded over the control in the same rounds
   but not guarded), the same for the repo benchmark's fleet-percpu-8
   shape with its host words per event, and the host words it takes to
   build the 8-machine fleet. *)
let run_cluster () =
  let serve_cpus = List.init 8 (fun c -> c) in
  (* Scaling fleet: rate grows with the fleet so per-machine load is
     constant. *)
  let scale_fleet ?(policy = "shinjuku") ~warmup_ns ~measure_ns ~cooldown_ns n =
    let machines =
      Array.init n (fun i ->
          Scenario.make ~seed:(seed + i) ~warmup_ns ~measure_ns ~cooldown_ns
            ~machine:Hw.Machines.xeon_e5_1s
            ~enclaves:
              [ Scenario.enclave ~policy ~cpus:serve_cpus ~workloads:[] "serve" ]
            (Printf.sprintf "scale-m%d" i))
    in
    Cluster.make ~machines
      ~serve:{ Cluster.Machine.enclave = "serve"; nworkers = 32 }
      ~arrivals:
        {
          Cluster.aseed = 1337;
          rate = 20_000.0 *. float_of_int n;
          service = Sim.Dist.Exponential 80_000.0;
        }
      ~routing:Cluster.Balancer.Weighted
      (Printf.sprintf "scale-%d" n)
  in
  let measure_ns = if !quick then ms 20 else ms 50 in
  let sizes = [ 1; 2; 8 ] in
  let timed c =
    sim_side (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = Cluster.run c in
        (r.Cluster.events_fired, Unix.gettimeofday () -. t0))
  in
  (* fleet-percpu-8's shape (eight machines of eight per-CPU agents, 32
     workers each, weighted routing at 160 kq/s of 80 us requests) over
     the quick window in either mode, so its count pins in both.  Its
     CPUs go idle between requests, and each idle pick runs through every
     class and tries to steal: the path its words per event guard. *)
  let percpu =
    scale_fleet ~policy:"fifo-percpu" ~warmup_ns:(ms 5) ~measure_ns:(ms 20)
      ~cooldown_ns:(ms 5) 8
  in
  let rounds =
    interleaved ~rounds:3
      (Array.of_list
         ((control
          :: List.map
               (fun n ->
                 timed
                   (scale_fleet ~warmup_ns:(ms 5) ~measure_ns ~cooldown_ns:(ms 5) n))
               sizes)
         @ [ timed percpu ]))
  in
  let scaling =
    List.mapi
      (fun i n ->
        let rate, fired = best rounds (i + 1) in
        let ratio = median_ratio rounds (i + 1) 0 in
        Printf.printf
          "cluster scale n=%d: %.0f events, best %.2f Mev/s, %.3f of control\n%!"
          n fired (rate /. 1e6) ratio;
        (n, rate, ratio))
      sizes
  in
  let percpu_side = List.length sizes + 1 in
  let percpu_rate, percpu_events = best rounds percpu_side in
  let percpu_ratio = median_ratio rounds percpu_side 0 in
  Printf.printf
    "cluster percpu-8: %.0f events, best %.2f Mev/s, %.3f of control\n%!"
    percpu_events (percpu_rate /. 1e6) percpu_ratio;
  guard_events "cluster percpu-8" rounds percpu_side ~expect:percpu_8_events;
  (* Host minor words per event of one more run: deterministic for a
     build, as the build words below are. *)
  let percpu_words =
    let w0 = Gc.minor_words () in
    let r = Cluster.run percpu in
    (Gc.minor_words () -. w0) /. float_of_int r.Cluster.events_fired
  in
  Printf.printf "cluster percpu-8: %.1f host minor words per event\n%!"
    percpu_words;
  (* Host minor words allocated by a zero-window Cluster.run of the
     8-machine fleet: construction and the time-0 setup events.
     Gc.minor_words is exact, so the count is deterministic for a build
     (the major-heap counters are only synced at GC slices).  With an
     engine per machine it was 182,290: nine wheels of 1,184 slot
     records, and each machine's dense time-0 slot re-sorted whole after
     every push into it.  On one shared queue it is 111,861.  The
     ceiling sits between, below what eight extra wheels alone would
     add. *)
  let build_words =
    let c = scale_fleet ~warmup_ns:0 ~measure_ns:0 ~cooldown_ns:0 8 in
    let w0 = Gc.minor_words () in
    ignore (Cluster.run c);
    Gc.minor_words () -. w0
  in
  Printf.printf "cluster build: %.0f host minor words for 8 machines\n%!"
    build_words;
  update_bench_json
    [
      ( "cluster",
        Obs.Json.Obj
          [
            ( "scaling",
              Obs.Json.Arr
                (List.map
                   (fun (n, rate, ratio) ->
                     Obs.Json.Obj
                       [
                         ("machines", Obs.Json.Num (float_of_int n));
                         ("events_per_sec", Obs.Json.Num rate);
                         ("over_control", Obs.Json.Num ratio);
                       ])
                   scaling) );
            ( "percpu_8",
              Obs.Json.Obj
                [
                  ("events", Obs.Json.Num percpu_events);
                  ("events_per_sec", Obs.Json.Num percpu_rate);
                  ("over_control", Obs.Json.Num percpu_ratio);
                  ("minor_words_per_event", Obs.Json.Num percpu_words);
                ] );
            ("build_words_8", Obs.Json.Num build_words);
          ] );
    ];
  guard_max "cluster percpu-8 minor words/event" percpu_words
    ~ceiling:percpu_8_words_ceiling;
  guard_max "cluster 8-machine build words" build_words ~ceiling:150_000.0

(* The fleet controller against static round-robin on the straggler
   fleet. *)
let run_fleet () =
  let r = run_entry R.fleet in
  update_bench_json
    [
      ( "fleet",
        Obs.Json.Obj
          [
            ("static_p99_us", Obs.Json.Num r.static_.p99_us);
            ("dynamic_p99_us", Obs.Json.Num r.dynamic.p99_us);
            ( "static_over_dynamic_p99",
              Obs.Json.Num (r.static_.p99_us /. Float.max 0.1 r.dynamic.p99_us) );
            ("rebalances", Obs.Json.Num (float_of_int r.dynamic.rebalances));
          ] );
    ]

(* --- BPF fastpath tier (§3.5) -------------------------------------------------- *)

let run_bpf () =
  let agent_only, fastpath =
    match run_entry R.bpf with
    | [ a; f ] -> (a, f)
    | _ -> failwith "bpf: two rows expected"
  in
  let wd_win = agent_only.wd_p99_us /. fastpath.wd_p99_us in
  let words_per_req =
    fastpath.minor_words /. float_of_int (max 1 fastpath.completed)
  in
  Printf.printf "fastpath minor words per completed request: %.1f\n"
    words_per_req;
  (* Host allocation on the kernel -> agent -> txn path, which the fastpath
     row exercises hardest.  The count is deterministic for a build, so the
     ceiling needs no noise band.  With the tid and CPU tables as
     polymorphic Hashtbls (an option allocated per hit) it measured 427.6
     words per request in quick mode and 427.2 in full; on Sim.Idtbl, 374.1
     and 372.2. *)
  guard_max "bpf fastpath minor words/req" words_per_req ~ceiling:400.0;
  let row_json (r : Experiments.Bpf_ablation.row) =
    Obs.Json.Obj
      [
        ("offered", Obs.Json.Num (float_of_int r.offered));
        ("completed", Obs.Json.Num (float_of_int r.completed));
        ("wd_p50_us", Obs.Json.Num r.wd_p50_us);
        ("wd_p99_us", Obs.Json.Num r.wd_p99_us);
        ("sojourn_p99_us", Obs.Json.Num r.sojourn_p99_us);
        ("throughput_kqps", Obs.Json.Num r.throughput_kqps);
        ("picks", Obs.Json.Num (float_of_int r.bpf_picks));
        ("misses", Obs.Json.Num (float_of_int r.bpf_misses));
        ("fallbacks", Obs.Json.Num (float_of_int r.bpf_fallbacks));
      ]
  in
  update_bench_json
    [
      ( "bpf",
        Obs.Json.Obj
          [
            ("agent_only", row_json agent_only);
            ("fastpath", row_json fastpath);
            ("wd_p99_win", Obs.Json.Num wd_win);
            ("fastpath_minor_words_per_request", Obs.Json.Num words_per_req);
          ] );
    ]

(* --- DSL policies: host rate and words per pass -------------------------------- *)

(* Registry-built serving scenario: worker threads under the spec'd policy,
   plus batch threads for the two-class engines, for 200 ms.
   Deterministic, so the event count doubles as an identity check on the
   non-Scenario path; the reports' byte-identity is pinned in tier 1
   (test/test_golden_dsl.ml). *)
let dsl_perf ~spec () =
  let machine =
    {
      Hw.Machines.name = "dsl-perf";
      topo =
        Hw.Topology.create ~sockets:1 ~ccx_per_socket:2 ~cores_per_ccx:4 ~smt:1;
      costs = Hw.Costs.skylake;
    }
  in
  let kernel = Kernel.create ~seed:17 machine in
  let sys = Ghost.System.install kernel in
  let e = Ghost.System.create_enclave sys ~cpus:(Kernel.full_mask kernel) () in
  let inst = Policies.Registry.make spec in
  ignore (Policies.Registry.attach sys e inst);
  let spawn name beh =
    let t = Kernel.create_task kernel ~name beh in
    Ghost.System.manage e t;
    Kernel.start kernel t
  in
  for i = 0 to 11 do
    spawn
      (Printf.sprintf "worker%d" i)
      (Kernel.Task.compute_forever ~slice:(Sim.Units.us 50))
  done;
  for i = 0 to 3 do
    spawn
      (Printf.sprintf "batch%d" i)
      (Kernel.Task.compute_forever ~slice:(Sim.Units.us 200))
  done;
  let t0 = Unix.gettimeofday () in
  Kernel.run_until kernel (ms 200);
  let wall = Unix.gettimeofday () -. t0 in
  (Sim.Engine.events_fired (Kernel.engine kernel), wall)

(* The repo benchmark's bpf-saturate shape, shortened: a slow
   [shinjuku?fastpath=true] agent on CPUs 0-4 of xeon-e5-1s, 64 workers
   taking 330 kq/s of 10 us requests, timed over 100 ms after a 20 ms
   warmup.  Its agent walks a class-0 queue of about 160 entries each
   pass, so this row guards the fastpath's publish walk, which
   [dsl_perf]'s never-blocking threads leave short. *)
let dsl_fastpath () =
  let warmup_ns = ms 20 and measure_ns = ms 100 in
  let scn =
    Scenario.make ~seed:42 ~machine:Hw.Machines.xeon_e5_1s ~warmup_ns
      ~measure_ns ~cooldown_ns:0
      ~enclaves:
        [
          Scenario.enclave ~min_iteration:(Sim.Units.us 10)
            ~idle_gap:(Sim.Units.us 25) ~policy:"shinjuku?fastpath=true"
            ~cpus:[ 0; 1; 2; 3; 4 ]
            ~workloads:
              [
                Scenario.Openloop
                  {
                    wseed = 1;
                    rate = 330_000.0;
                    service = Sim.Dist.Const 10_000.0;
                    nworkers = 64;
                    prefix = "w";
                  };
              ]
            "serving";
        ]
      "dsl-fastpath"
  in
  let k = Scenario.kernel_of (Scenario.start scn) in
  Kernel.run_until k warmup_ns;
  let e0 = Sim.Engine.events_fired (Kernel.engine k) in
  let t0 = Unix.gettimeofday () in
  Kernel.run_until k (warmup_ns + measure_ns);
  let wall = Unix.gettimeofday () -. t0 in
  (Sim.Engine.events_fired (Kernel.engine k) - e0, wall)

(* The two heaviest centralized policies and the fastpath row: label, run,
   the events each fires (the counts the DSL port was pinned to), and the
   floor of its rate over the control.  Twenty quick runs on a 2-vCPU VM
   read 0.278-0.412, 0.269-0.391 and 0.206-0.249; each floor sits 10 %
   under the lowest.  With a publish walk over every queue entry the
   fastpath row read 0.155-0.209 in thirty quick runs, under its floor in
   nine: the ratio spreads about as widely as the walk's gain. *)
let dsl_perf_specs =
  [
    ("shinjuku", dsl_perf ~spec:"shinjuku?timeslice=30us", 383_470, 0.25);
    ("central", dsl_perf ~spec:"central?timeslice=50us", 324_750, 0.24);
    ("fastpath", dsl_fastpath, 123_434, 0.18);
  ]

(* Host minor words per agent pass of the repo benchmark's serve-central
   shape, shortened: [policy] with one global agent on a 21-CPU xeon-e5-1s
   enclave, bimodal RocksDB requests at 200 kq/s and 10 batch threads,
   counted over 20 ms after a 10 ms warmup.  [Gc.minor_words] is exact, so
   the count is deterministic for a build. *)
let words_per_pass ~policy =
  let warmup_ns = ms 10 and measure_ns = ms 20 in
  let scn =
    Scenario.make ~seed:42 ~machine:Hw.Machines.xeon_e5_1s ~warmup_ns
      ~measure_ns ~cooldown_ns:0
      ~enclaves:
        [
          Scenario.enclave ~policy ~cpus:(List.init 21 Fun.id)
            ~workloads:
              [
                Scenario.Openloop
                  {
                    wseed = 1;
                    rate = 200_000.0;
                    service =
                      Sim.Dist.Bimodal
                        { p_slow = 0.005; fast = 4_000.0; slow = 10_000_000.0 };
                    nworkers = 200;
                    prefix = "worker";
                  };
                Scenario.Batch { n = 10; prefix = "batch" };
              ]
            "serving";
        ]
      "pass-words"
  in
  let st = Scenario.start scn in
  let k = Scenario.kernel_of st in
  let group = Scenario.group (Scenario.find (Scenario.live_of st) "serving") in
  Kernel.run_until k warmup_ns;
  let p0 = Ghost.Agent.iterations group in
  let w0 = Gc.minor_words () in
  Kernel.run_until k (warmup_ns + measure_ns);
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (Ghost.Agent.iterations group - p0)

(* The same count with the agent ABI as a closure table and the centralized
   phases taking per-pass skip/assign closures, before the direct pass
   context replaced both: 222.6.  On the direct context it is 149.0, so
   the ceiling sits between the two with room for unrelated drift. *)
let central_words_per_pass_closure_abi = 222.6
let central_words_per_pass_ceiling = 165.0

(* Search's pass on the same scenario read 4105.2 when each probe scanned
   the enclave CPU list and a per-pass [assigned] table, and every thread
   rebuilt its candidate list.  With the candidate orders built once and
   marks in arrays it reads 662.3; the ceiling sits over that by central's
   margin (165 over 138.3). *)
let search_words_per_pass_list_scan = 4105.2
let search_words_per_pass_ceiling = 790.0

let run_dsl () =
  let rounds =
    interleaved ~rounds:7
      (Array.of_list
         (control
         :: List.map
              (fun (_, run, _, _) -> sim_side run)
              dsl_perf_specs))
  in
  let control_rate, _ = best rounds 0 in
  let rates =
    List.mapi
      (fun i (label, _, expect, floor) ->
        let rate, _ = best rounds (i + 1) in
        let ratio = median_ratio rounds (i + 1) 0 in
        Printf.printf "dsl %s: best %.0f events/sec, %.3f of control (%.0f)\n"
          label rate ratio control_rate;
        guard_events ("dsl " ^ label) rounds (i + 1) ~expect;
        guard (Printf.sprintf "dsl %s/control" label) ratio ~floor;
        (label, expect, rate, ratio))
      dsl_perf_specs
  in
  let pass_words = words_per_pass ~policy:"shinjuku?shenango_ext=true" in
  Printf.printf "dsl central minor words per agent pass: %.1f (closure ABI %.1f)\n"
    pass_words central_words_per_pass_closure_abi;
  guard_max "dsl central minor words/pass" pass_words
    ~ceiling:central_words_per_pass_ceiling;
  let search_words = words_per_pass ~policy:"search" in
  Printf.printf "dsl search minor words per agent pass: %.1f (list scan %.1f)\n"
    search_words search_words_per_pass_list_scan;
  guard_max "dsl search minor words/pass" search_words
    ~ceiling:search_words_per_pass_ceiling;
  update_bench_json
    [
      ( "dsl_rates",
        Obs.Json.Obj
          (("control_events_per_sec", Obs.Json.Num control_rate)
          :: List.map
               (fun (label, fired, rate, ratio) ->
                 ( label,
                   Obs.Json.Obj
                     [
                       ("events_fired", Obs.Json.Num (float_of_int fired));
                       ("events_per_sec", Obs.Json.Num rate);
                       ("over_control", Obs.Json.Num ratio);
                     ] ))
               rates) );
      ( "dsl_overhead",
        Obs.Json.Obj
          [
            ( "central_pass_words",
              Obs.Json.Obj
                [
                  ("minor_words_per_pass", Obs.Json.Num pass_words);
                  ( "closure_abi_minor_words_per_pass",
                    Obs.Json.Num central_words_per_pass_closure_abi );
                  ("ceiling", Obs.Json.Num central_words_per_pass_ceiling);
                ] );
            ( "search_pass_words",
              Obs.Json.Obj
                [
                  ("minor_words_per_pass", Obs.Json.Num search_words);
                  ( "list_scan_minor_words_per_pass",
                    Obs.Json.Num search_words_per_pass_list_scan );
                  ("ceiling", Obs.Json.Num search_words_per_pass_ceiling);
                ] );
          ] );
    ]

(* The self-tuning controller against its frozen-knob variant on the
   load-step surge. *)
let run_adaptive () =
  let { Experiments.Adaptive.adaptive = live; static_ } = run_entry R.adaptive in
  let side (s : Experiments.Adaptive.side) =
    Obs.Json.Obj
      [
        ("p99_us", Obs.Json.Num s.p99_us);
        ("p999_us", Obs.Json.Num s.p999_us);
        ("tightens", Obs.Json.Num (float_of_int s.tightens));
        ("relaxes", Obs.Json.Num (float_of_int s.relaxes));
      ]
  in
  update_bench_json
    [ ("adaptive", Obs.Json.Obj [ ("live", side live); ("static", side static_) ]) ]

(* Hybrid P/E topology: class-blind fifo-percpu against the hybrid-aware
   EDF policy on bit-identical offered frame traffic. *)
let run_hybrid () =
  match run_entry R.hybrid with
  | [ blind; aware ] ->
    let row_json (r : Experiments.Hybrid.row) =
      Obs.Json.Obj
        [
          ("offered", Obs.Json.Num (float_of_int r.offered));
          ("completed", Obs.Json.Num (float_of_int r.completed));
          ("frame_p50_us", Obs.Json.Num r.frame_p50_us);
          ("frame_p99_us", Obs.Json.Num r.frame_p99_us);
          ("miss_rate", Obs.Json.Num r.miss_rate);
        ]
    in
    update_bench_json
      [
        ( "hybrid",
          Obs.Json.Obj
            [
              ("p99_ratio", Obs.Json.Num (blind.frame_p99_us /. aware.frame_p99_us));
              ("fifo_percpu", row_json blind);
              ("hybrid_edf", row_json aware);
            ] );
      ]
  | _ -> failwith "hybrid: two rows expected"

(* --- Driver ------------------------------------------------------------------- *)

(* Registry entries whose target also records its report. *)
let recorded =
  [
    ("bpf", run_bpf); ("colocation", run_colocation); ("fleet", run_fleet);
    ("hybrid", run_hybrid); ("adaptive", run_adaptive);
  ]

let all_targets =
  List.map
    (fun (R.E e) ->
      ( e.name,
        match List.assoc_opt e.name recorded with
        | Some f -> f
        | None -> fun () -> ignore (run_entry e) ))
    R.all
  @ [ ("engine", run_engine); ("cluster", run_cluster); ("dsl", run_dsl) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let targets =
    match args with
    | [] | [ "all" ] -> List.map fst all_targets
    | picks -> picks
  in
  (* Reject a misspelt target before running anything, so a typo in the
     @bench-quick rule fails the gate instead of skipping its guards. *)
  (match
     List.filter (fun n -> not (List.mem_assoc n all_targets)) targets
   with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown target %s; known: %s\n" (String.concat " " unknown)
      (String.concat " " (List.map fst all_targets));
    exit 2);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let s = Unix.gettimeofday () in
      (List.assoc name all_targets) ();
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. s))
    targets;
  Printf.printf "\nTotal: %.1fs\n" (Unix.gettimeofday () -. t0);
  check_guards ()
