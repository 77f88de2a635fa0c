(* Smoke tests for the experiment harnesses: tiny-duration runs of every
   bench entry point, asserting the structural claims each experiment
   exists to show.  Keeps `bench/main.exe` from bit-rotting. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ms = Sim.Units.ms

(* The test runs in the build directory's test/, whose parent holds a copy
   of lib/ (a dependency of this suite), wherever the build directory is. *)
let test_table2_counts () =
  let rows = Experiments.Table2.run ~root:".." () in
  check_bool "has rows" true (List.length rows > 8);
  check_bool "our policy counts are positive" true
    (List.exists
       (fun (r : Experiments.Table2.row) ->
         r.component = "Google Search policy"
         && (match r.our_loc with Some n -> n > 100 | None -> false))
       rows);
  (* The paper's core size relation: our policies are much smaller than our
     mechanism (class + agent runtime). *)
  let get name =
    List.find_map
      (fun (r : Experiments.Table2.row) ->
        if r.component = name then r.our_loc else None)
      rows
  in
  match (get "ghOSt kernel scheduling class", get "Google Snap policy") with
  | Some mechanism, Some policy -> check_bool "policy << mechanism" true (policy * 10 < mechanism)
  | _ -> Alcotest.fail "expected components missing"

let test_fig5_single_points () =
  let results =
    Experiments.Fig5.run ~measure_ns:(ms 5)
      ~machines:[ Hw.Machines.skylake_2s ] ()
  in
  match results with
  | [ (_, points) ] ->
    check_bool "sweep has points" true (List.length points > 10);
    let p1 = List.hd points in
    let pmax = List.nth points (List.length points - 1) in
    check_bool "throughput grows with cpus" true
      (pmax.Experiments.Fig5.txns_per_sec > 5.0 *. p1.Experiments.Fig5.txns_per_sec)
  | _ -> Alcotest.fail "one machine expected"

let test_fig6_ordering () =
  (* At a load where CFS has saturated but the preemptive systems have not,
     CFS's p99 must dwarf the other two. *)
  let points =
    Experiments.Fig6.run ~rates:[ 270_000. ] ~warmup_ns:(ms 100) ~measure_ns:(ms 400)
      ()
  in
  let p99 sys =
    List.find_map
      (fun (p : Experiments.Fig6.point) ->
        if p.system = sys then Some p.p99_us else None)
      points
  in
  match (p99 Experiments.Fig6.Shinjuku, p99 Experiments.Fig6.Ghost_shinjuku,
         p99 Experiments.Fig6.Cfs_shinjuku)
  with
  | Some s, Some g, Some c ->
    (* Short windows are noisy; assert the robust part of the ordering:
       CFS clearly worst, Shinjuku no worse than ghOSt by much. *)
    check_bool
      (Printf.sprintf "ordering s=%.0f <~ g=%.0f << c=%.0f" s g c)
      true
      (s <= (2.0 *. g) +. 10.0 && 4.0 *. g < c)
  | _ -> Alcotest.fail "missing systems"

let test_fig7_runs () =
  let rows = Experiments.Fig7.run ~duration_ns:(ms 300) ~warmup_ns:(ms 50) () in
  check_bool "four rows (2 scheds x 2 sizes)" true (List.length rows = 4);
  List.iter
    (fun (r : Experiments.Fig7.row) ->
      check_bool "percentiles monotone" true
        (let vals = List.map snd r.percentiles in
         let rec mono = function
           | a :: (b :: _ as rest) -> a <= b && mono rest
           | _ -> true
         in
         mono vals))
    rows

let test_table4_security () =
  let rows = Experiments.Table4.run ~work_ns:(ms 60) () in
  check_bool "four policies" true (List.length rows = 4);
  (match rows with
  | cfs :: rest ->
    check_bool "cfs is insecure" true (cfs.Experiments.Table4.violations > 0);
    List.iter
      (fun (r : Experiments.Table4.row) ->
        check_bool (r.label ^ " is secure") true (r.violations = 0))
      rest
  | [] -> Alcotest.fail "no rows");
  ()

let test_bpf_ablation_helps () =
  match Experiments.Bpf_ablation.run ~duration_ns:(ms 150) () with
  | [ without; with_bpf ] ->
    check_int "offered traffic bit-identical"
      without.Experiments.Bpf_ablation.offered
      with_bpf.Experiments.Bpf_ablation.offered;
    check_bool "fastpath picks occurred" true
      (with_bpf.Experiments.Bpf_ablation.bpf_picks > 100);
    check_bool
      (Printf.sprintf "wakeup-to-dispatch p99 improves 2x (%.0f -> %.0f us)"
         without.Experiments.Bpf_ablation.wd_p99_us
         with_bpf.Experiments.Bpf_ablation.wd_p99_us)
      true
      (with_bpf.wd_p99_us < without.Experiments.Bpf_ablation.wd_p99_us /. 2.0)
  | _ -> Alcotest.fail "two rows expected"

let test_tickless_removes_jitter () =
  match Experiments.Tickless.run ~duration_ns:(ms 200) () with
  | [ _cfs; ticks_on; tickless ] ->
    check_bool
      (Printf.sprintf "tick-less p99 lower (%.1f vs %.1f)"
         tickless.Experiments.Tickless.p99_us ticks_on.Experiments.Tickless.p99_us)
      true
      (tickless.p99_us < ticks_on.Experiments.Tickless.p99_us)
  | _ -> Alcotest.fail "three rows expected"

let () =
  Alcotest.run "experiments"
    [
      ( "harnesses",
        [
          Alcotest.test_case "table2 inventory" `Quick test_table2_counts;
          Alcotest.test_case "fig5 sweep" `Quick test_fig5_single_points;
          Alcotest.test_case "fig6 ordering" `Quick test_fig6_ordering;
          Alcotest.test_case "fig7 percentiles" `Quick test_fig7_runs;
          Alcotest.test_case "table4 security" `Quick test_table4_security;
          Alcotest.test_case "bpf ablation" `Quick test_bpf_ablation_helps;
          Alcotest.test_case "tickless" `Quick test_tickless_removes_jitter;
        ] );
    ]
