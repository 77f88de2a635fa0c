(* Tests of the benchmark's own logic: the sampler's path -> layer mapping,
   the percentile rule, and the split between end-to-end and per-layer
   metrics (checked against BENCHMARK.json). *)

let check_layer stack expected =
  Alcotest.(check string) (String.concat " < " stack) expected (Layer.of_stack stack)

let layers () =
  check_layer [ "lib/sim/wheel.ml" ] "sim";
  check_layer [ "lib/core/abi.ml"; "lib/policies/fastpath.ml" ] "core";
  (* stdlib and benchmark frames are charged to their library caller *)
  check_layer [ "hashtbl.ml"; "stdlib.ml"; "lib/kernel/kernel.ml"; "lib/sim/engine.ml" ]
    "kernel";
  check_layer
    [ "perfbench/sampler.ml"; "list.ml"; "lib/policies/dsl.ml"; "lib/core/agent.ml" ]
    "policies";
  check_layer [ "/usr/local/lib/ocaml/list.ml"; "lib/obs/sink.ml" ] "obs";
  (* directories that are not benchmark layers, and stacks with none *)
  check_layer [ "lib/experiments/fig6.ml"; "lib/cluster/cluster.ml" ] "cluster";
  check_layer [ "lib/sim.ml"; "perfbench/main.ml"; "std_exit.ml" ] Layer.other;
  check_layer [] Layer.other;
  List.iter
    (fun l ->
      Alcotest.(check (option string)) l (Some l) (Layer.of_file ("lib/" ^ l ^ "/x.ml")))
    Layer.names

let samples_of l =
  let a = Quant.samples (List.length l) in
  List.iteri (fun i v -> a.{i} <- v) l;
  Quant.sort a (List.length l);
  a

let percentiles () =
  Alcotest.(check bool) "1000 samples: 10 beyond p99" true
    (Quant.percentile_ok ~count:1000 99.0);
  Alcotest.(check bool) "999 samples: 9 beyond p99" false
    (Quant.percentile_ok ~count:999 99.0);
  Alcotest.(check bool) "p99.9 needs 10000" false (Quant.percentile_ok ~count:9999 99.9);
  Alcotest.(check bool) "p50 of 20" true (Quant.percentile_ok ~count:20 50.0);
  let a = samples_of (List.rev (List.init 100 (fun i -> i + 1))) in
  Alcotest.(check (list int)) "sorted"
    (List.init 100 (fun i -> i + 1))
    (List.init 100 (fun i -> a.{i}));
  Alcotest.(check int) "p50" 50 (Quant.nearest_rank a 100 50.0);
  Alcotest.(check int) "p99" 99 (Quant.nearest_rank a 100 99.0);
  Alcotest.(check int) "p100" 100 (Quant.nearest_rank a 100 100.0);
  Alcotest.(check int) "p1 of 3" 7 (Quant.nearest_rank (samples_of [ 9; 7; 8 ]) 3 1.0);
  Alcotest.(check (float 1e-12)) "median even" 2.5 (Quant.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "median odd" 3.0 (Quant.median [ 5.0; 1.0; 3.0 ])

let per_event_split () =
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) (m.name ^ " is not per-event") false m.per_event)
    Spec.end_to_end;
  List.iter
    (fun name ->
      match List.find_opt (fun (m : Spec.metric) -> m.name = name) Spec.per_layer with
      | Some m -> Alcotest.(check bool) (name ^ " is per-event") true m.per_event
      | None -> Alcotest.failf "%s missing from the per-layer metrics" name)
    [ "sim.events_per_host_s"; "gc.minor_words_per_event"; "gc.promoted_words_per_event" ]

(* BENCHMARK.json lists exactly the metrics the benchmark emits. *)
let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json =
    match Obs.Json.parse text with Ok j -> j | Error e -> Alcotest.fail e
  in
  let listed key =
    List.map
      (fun m ->
        let field k = Option.bind (Obs.Json.member k m) Obs.Json.str in
        (field "name", field "unit", field "better"))
      (Obs.Json.to_list (Option.get (Obs.Json.member key json)))
  in
  let spec ms =
    List.map
      (fun (m : Spec.metric) ->
        (Some m.name, Some m.unit_, Some (if m.higher_is_better then "higher" else "lower")))
      ms
  in
  let t = Alcotest.(list (triple (option string) (option string) (option string))) in
  Alcotest.check t "end_to_end" (spec Spec.end_to_end) (listed "end_to_end");
  Alcotest.check t "per_layer" (spec Spec.per_layer) (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "sampler path to layer" `Quick layers;
          Alcotest.test_case "percentile rule" `Quick percentiles;
          Alcotest.test_case "per-event ratios per-layer only" `Quick per_event_split;
          Alcotest.test_case "BENCHMARK.json metrics" `Quick benchmark_json;
        ] );
    ]
