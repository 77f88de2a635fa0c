(* Tests for the simulation substrate: event queue, engine, RNG and
   distributions. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Eventq ----------------------------------------------------------------- *)

let test_eventq_order () =
  let q = Sim.Eventq.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (Sim.Eventq.push q ~time:30 (note "c"));
  ignore (Sim.Eventq.push q ~time:10 (note "a"));
  ignore (Sim.Eventq.push q ~time:20 (note "b"));
  let rec drain () =
    match Sim.Eventq.pop q with
    | Some (_, fn) ->
      fn ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ] (List.rev !fired)

let test_eventq_fifo_ties () =
  let q = Sim.Eventq.create () in
  let fired = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Eventq.push q ~time:5 (fun () -> fired := i :: !fired))
  done;
  let rec drain () =
    match Sim.Eventq.pop q with
    | Some (_, fn) ->
      fn ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "insertion order on equal timestamps"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !fired)

let test_eventq_cancel () =
  let q = Sim.Eventq.create () in
  let fired = ref 0 in
  let h1 = Sim.Eventq.push q ~time:1 (fun () -> incr fired) in
  ignore (Sim.Eventq.push q ~time:2 (fun () -> incr fired));
  check_int "live before cancel" 2 (Sim.Eventq.live_count q);
  Sim.Eventq.cancel q h1;
  check_bool "handle marked" true (Sim.Eventq.is_cancelled h1);
  check_int "live after cancel" 1 (Sim.Eventq.live_count q);
  let rec drain () =
    match Sim.Eventq.pop q with
    | Some (_, fn) ->
      fn ();
      drain ()
    | None -> ()
  in
  drain ();
  check_int "only live event fired" 1 !fired;
  check_bool "empty at end" true (Sim.Eventq.is_empty q)

let test_eventq_peek_skips_cancelled () =
  let q = Sim.Eventq.create () in
  let h = Sim.Eventq.push q ~time:1 ignore in
  ignore (Sim.Eventq.push q ~time:7 ignore);
  Sim.Eventq.cancel q h;
  Alcotest.(check (option int)) "peek skips dead" (Some 7) (Sim.Eventq.peek_time q)

let test_eventq_many =
  QCheck.Test.make ~name:"eventq pops in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Sim.Eventq.create () in
      List.iter (fun time -> ignore (Sim.Eventq.push q ~time ignore)) times;
      let rec drain last =
        match Sim.Eventq.pop q with
        | Some (time, _) -> time >= last && drain time
        | None -> true
      in
      drain 0)

(* Model check for the two-tier wheel+heap queue: run a long randomized
   push/cancel/pop trace against a naive sorted-list reference and demand
   bit-identical pop order — (time, seq) ties included, which the uid
   encodes since both assign sequence numbers in push order.  Delays span
   level-0 buckets, mid levels, and the far-future overflow heap; pushes
   never go into the past (engine semantics). *)
let run_eventq_model ~seed ~ops ~p_pop ~p_cancel () =
  let rng = Sim.Rng.create seed in
  let q = Sim.Eventq.create () in
  (* Sorted ascending by (time, uid); each entry carries its Eventq handle. *)
  let model = ref [] in
  let next_uid = ref 0 in
  let now = ref 0 in
  let last_fired = ref (-1) in
  let delay () =
    match Sim.Rng.int rng 10 with
    | 0 | 1 -> 0
    | 2 | 3 | 4 | 5 -> Sim.Rng.int rng 16_000 (* level-0/1 buckets *)
    | 6 | 7 -> Sim.Rng.int rng 10_000_000 (* mid levels *)
    | 8 -> Sim.Rng.int rng 30_000_000_000 (* high levels *)
    | _ -> Sim.Rng.int rng 30_000_000_000_000 (* past the wheel: heap tier *)
  in
  let insert_model entry =
    let rec go = function
      | [] -> [ entry ]
      | ((t, u, _) :: _) as rest
        when let et, eu, _ = entry in
             et < t || (et = t && eu < u) ->
        entry :: rest
      | x :: rest -> x :: go rest
    in
    model := go !model
  in
  let push () =
    let time = !now + delay () in
    let uid = !next_uid in
    incr next_uid;
    let h = Sim.Eventq.push q ~time (fun () -> last_fired := uid) in
    insert_model (time, uid, h)
  in
  let pop_both () =
    match (Sim.Eventq.pop q, !model) with
    | None, [] -> ()
    | Some (time, fn), (mt, muid, _) :: rest ->
      model := rest;
      now := time;
      fn ();
      if time <> mt || !last_fired <> muid then
        Alcotest.failf "pop mismatch: queue (%d, uid %d) vs model (%d, uid %d)"
          time !last_fired mt muid
    | Some (time, _), [] -> Alcotest.failf "queue fired (%d) but model empty" time
    | None, (mt, _, _) :: _ -> Alcotest.failf "queue empty but model has (%d)" mt
  in
  let cancel_random () =
    match !model with
    | [] -> ()
    | entries ->
      let i = Sim.Rng.int rng (List.length entries) in
      let time, uid, h = List.nth entries i in
      Sim.Eventq.cancel q h;
      model :=
        List.filter (fun (t, u, _) -> not (t = time && u = uid)) entries
  in
  for _ = 1 to ops do
    let r = Sim.Rng.float rng 1.0 in
    if r < p_pop then pop_both ()
    else if r < p_pop +. p_cancel then cancel_random ()
    else push ()
  done;
  while !model <> [] || not (Sim.Eventq.is_empty q) do
    pop_both ()
  done;
  check_bool "drained" true (Sim.Eventq.is_empty q)

let test_eventq_model () =
  run_eventq_model ~seed:42 ~ops:12_000 ~p_pop:0.35 ~p_cancel:0.15 ()

let test_eventq_model_cancel_heavy () =
  run_eventq_model ~seed:1337 ~ops:12_000 ~p_pop:0.2 ~p_cancel:0.45 ()

(* --- Engine ----------------------------------------------------------------- *)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.post e ~time:100 (fun () -> log := (100, Sim.Engine.now e) :: !log));
  ignore (Sim.Engine.post e ~time:50 (fun () -> log := (50, Sim.Engine.now e) :: !log));
  Sim.Engine.run_until e 75;
  check_int "clock set to horizon" 75 (Sim.Engine.now e);
  Alcotest.(check (list (pair int int))) "only first fired" [ (50, 50) ] !log;
  Sim.Engine.run_until e 200;
  Alcotest.(check (list (pair int int)))
    "second fired at its time"
    [ (100, 100); (50, 50) ]
    !log

let test_engine_post_in_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.run_until e 10;
  Alcotest.check_raises "past post rejected"
    (Invalid_argument "Engine.post: time 5 is before now 10") (fun () ->
      ignore (Sim.Engine.post e ~time:5 ignore))

let test_engine_cascading () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 0 then ignore (Sim.Engine.post_in e ~delay:10 (chain (n - 1)))
  in
  ignore (Sim.Engine.post_in e ~delay:10 (chain 9));
  Sim.Engine.run e;
  check_int "all chained events fired" 10 !count;
  check_int "clock at last event" 100 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.post_in e ~delay:5 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  check_bool "cancelled event did not fire" false !fired

(* --- Idtbl ------------------------------------------------------------------ *)

(* Model check for the dense id table: one random replace / remove / lookup
   sequence run against both it and Stdlib.Hashtbl.  Keys start at -4, so
   replace must raise on some and lookups must answer "absent" for them.
   Keys run past several growth steps, and after every operation max_int
   and min_int must still be absent.  The final fold must list the model's
   bindings in ascending key order. *)
type idtbl_op = Replace of int * int | Remove of int | Find of int | Mem of int

let test_idtbl_model =
  let key = QCheck.Gen.int_range (-4) 600 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> Replace (k, v)) key small_nat);
          (2, map (fun k -> Remove k) key);
          (2, map (fun k -> Find k) key);
          (1, map (fun k -> Mem k) key);
        ])
  in
  let print = function
    | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
    | Remove k -> Printf.sprintf "remove %d" k
    | Find k -> Printf.sprintf "find %d" k
    | Mem k -> Printf.sprintf "mem %d" k
  in
  QCheck.Test.make ~name:"Idtbl agrees with Hashtbl" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let t = Sim.Idtbl.create () in
      let m = Hashtbl.create 16 in
      let absent k = Sim.Idtbl.find_opt t k = None && not (Sim.Idtbl.mem t k) in
      let step op =
        match op with
        | Replace (k, v) when k < 0 -> (
          match Sim.Idtbl.replace t k v with
          | () -> false
          | exception Invalid_argument _ -> true)
        | Replace (k, v) ->
          Sim.Idtbl.replace t k v;
          Hashtbl.replace m k v;
          true
        | Remove k ->
          Sim.Idtbl.remove t k;
          Hashtbl.remove m k;
          true
        | Find k ->
          Sim.Idtbl.find_opt t k = Hashtbl.find_opt m k
          && (match Sim.Idtbl.find t k with
             | v -> Some v
             | exception Not_found -> None)
             = Hashtbl.find_opt m k
        | Mem k -> Sim.Idtbl.mem t k = Hashtbl.mem m k
      in
      List.for_all
        (fun op ->
          step op
          && Sim.Idtbl.length t = Hashtbl.length m
          && absent max_int && absent min_int)
        ops
      &&
      let folded = Sim.Idtbl.fold (fun k v acc -> (k, v) :: acc) t [] in
      let iterated = ref [] in
      Sim.Idtbl.iter (fun k v -> iterated := (k, v) :: !iterated) t;
      let model = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []) in
      List.rev folded = model && List.rev !iterated = model)

(* --- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create 7 in
  let c = Sim.Rng.split a in
  check_bool "split stream differs" true (Sim.Rng.bits64 a <> Sim.Rng.bits64 c)

let test_rng_stream_leaves_parent_untouched () =
  (* Labeled sub-streams (the fault injector's jitter source) must not
     advance the parent, and must be label- and state-deterministic. *)
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  let s1 = Sim.Rng.stream a ~label:"faults" in
  let s2 = Sim.Rng.stream b ~label:"faults" in
  Alcotest.(check int64) "same label, same stream" (Sim.Rng.bits64 s1)
    (Sim.Rng.bits64 s2);
  for _ = 1 to 50 do
    Alcotest.(check int64) "parent unchanged by stream derivation"
      (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done;
  let c = Sim.Rng.create 7 in
  check_bool "different labels differ" true
    (Sim.Rng.bits64 (Sim.Rng.stream c ~label:"faults")
    <> Sim.Rng.bits64 (Sim.Rng.stream c ~label:"other"))

let test_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng n in
      v >= 0 && v < n)

let test_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 11 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "empirical mean %.2f within 2%% of 50" mean)
    true
    (Float.abs (mean -. 50.0) < 1.0)

(* --- Dist ------------------------------------------------------------------- *)

let test_dist_bimodal () =
  let rng = Sim.Rng.create 3 in
  let d = Sim.Dist.Bimodal { p_slow = 0.005; fast = 4000.0; slow = 10_000_000.0 } in
  let n = 200_000 in
  let slow = ref 0 in
  for _ = 1 to n do
    if Sim.Dist.sample rng d > 5000.0 then incr slow
  done;
  let frac = float_of_int !slow /. float_of_int n in
  check_bool
    (Printf.sprintf "slow fraction %.4f close to 0.005" frac)
    true
    (Float.abs (frac -. 0.005) < 0.002)

let test_dist_means () =
  let cases =
    [
      (Sim.Dist.Const 42.0, 42.0);
      (Sim.Dist.Uniform (10.0, 20.0), 15.0);
      (Sim.Dist.Exponential 7.0, 7.0);
      (Sim.Dist.Bimodal { p_slow = 0.5; fast = 0.0; slow = 10.0 }, 5.0);
      (Sim.Dist.Mixture [ (1.0, Sim.Dist.Const 1.0); (3.0, Sim.Dist.Const 5.0) ], 4.0);
    ]
  in
  List.iter
    (fun (d, expect) ->
      Alcotest.(check (float 1e-9)) "analytic mean" expect (Sim.Dist.mean d))
    cases

let test_dist_sample_ns_positive =
  QCheck.Test.make ~name:"sample_ns >= 1" ~count:300 QCheck.small_int (fun seed ->
      let rng = Sim.Rng.create seed in
      Sim.Dist.sample_ns rng (Sim.Dist.Const 0.0) >= 1
      && Sim.Dist.sample_ns rng (Sim.Dist.Exponential 5.0) >= 1)

(* --- Units ------------------------------------------------------------------ *)

let test_units () =
  check_int "us" 3_000 (Sim.Units.us 3);
  check_int "ms" 2_000_000 (Sim.Units.ms 2);
  check_int "sec" 1_000_000_000 (Sim.Units.sec 1);
  check_int "us_f rounds" 1_500 (Sim.Units.us_f 1.5);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Sim.Units.to_ms 1_500_000)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        test_eventq_many; test_idtbl_model; test_rng_int_bounds;
        test_rng_float_bounds; test_dist_sample_ns_positive;
      ]
  in
  Alcotest.run "sim"
    [
      ( "eventq",
        [
          Alcotest.test_case "timestamp order" `Quick test_eventq_order;
          Alcotest.test_case "fifo on ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_eventq_cancel;
          Alcotest.test_case "peek skips cancelled" `Quick
            test_eventq_peek_skips_cancelled;
          Alcotest.test_case "12k-op model check" `Quick test_eventq_model;
          Alcotest.test_case "12k-op model check (cancel-heavy)" `Quick
            test_eventq_model_cancel_heavy;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "post in past" `Quick test_engine_post_in_past;
          Alcotest.test_case "cascading events" `Quick test_engine_cascading;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "labeled stream leaves parent untouched" `Quick
            test_rng_stream_leaves_parent_untouched;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
      ( "dist",
        [
          Alcotest.test_case "bimodal fraction" `Quick test_dist_bimodal;
          Alcotest.test_case "analytic means" `Quick test_dist_means;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ("properties", qsuite);
    ]
