(* Tests for histograms, time series and table rendering. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_hist_basics () =
  let h = Gstats.Histogram.create () in
  check_int "empty count" 0 (Gstats.Histogram.count h);
  check_int "empty percentile" 0 (Gstats.Histogram.percentile h 99.0);
  List.iter (Gstats.Histogram.record h) [ 1; 2; 3; 4; 5 ];
  check_int "count" 5 (Gstats.Histogram.count h);
  check_int "sum" 15 (Gstats.Histogram.sum h);
  check_int "max" 5 (Gstats.Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Gstats.Histogram.mean h)

let test_hist_small_values_exact () =
  (* Values < 32 land in exact unit buckets. *)
  let h = Gstats.Histogram.create () in
  for v = 0 to 31 do
    Gstats.Histogram.record h v
  done;
  check_int "p50 exact" 15 (Gstats.Histogram.percentile h 50.0);
  check_int "p100 exact" 31 (Gstats.Histogram.percentile h 100.0)

let test_hist_percentile_accuracy =
  QCheck.Test.make ~name:"percentile within 4% relative error" ~count:100
    QCheck.(list_of_size (Gen.int_range 10 500) (int_range 1 2_000_000_000))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Gstats.Histogram.create () in
      List.iter (Gstats.Histogram.record h) values;
      let sorted = List.sort compare values in
      let n = List.length sorted in
      List.for_all
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
          let exact = List.nth sorted (rank - 1) in
          let est = Gstats.Histogram.percentile h p in
          (* Bucket representative can sit one bucket high; bound ~4%. *)
          float_of_int (abs (est - exact)) <= 0.04 *. float_of_int exact +. 1.0
          || est <= Gstats.Histogram.max_value h)
        [ 50.0; 90.0; 99.0 ])

let test_hist_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 1_000_000))
    (fun values ->
      let h = Gstats.Histogram.create () in
      List.iter (Gstats.Histogram.record h) values;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ] in
      let vals = List.map (Gstats.Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let test_hist_reset () =
  let h = Gstats.Histogram.create () in
  Gstats.Histogram.record h 123;
  Gstats.Histogram.reset h;
  check_int "reset count" 0 (Gstats.Histogram.count h);
  check_int "reset max" 0 (Gstats.Histogram.max_value h)

let test_hist_negative_clamped () =
  let h = Gstats.Histogram.create () in
  Gstats.Histogram.record h (-5);
  check_int "clamped to 0" 0 (Gstats.Histogram.sum h);
  check_int "clamped p100" 0 (Gstats.Histogram.percentile h 100.0)

let test_timeseries_windows () =
  let ts = Gstats.Timeseries.create ~window:1000 in
  Gstats.Timeseries.record ts ~time:100 5;
  Gstats.Timeseries.record ts ~time:900 7;
  Gstats.Timeseries.record ts ~time:1500 9;
  Gstats.Timeseries.incr ts ~time:1600;
  let ws = Gstats.Timeseries.windows ts in
  check_int "two windows" 2 (List.length ws);
  (match ws with
  | [ (t0, n0, h0); (t1, n1, _) ] ->
    check_int "first window start" 0 t0;
    check_int "first window events" 2 n0;
    check_int "first window max" 7 (Gstats.Histogram.max_value h0);
    check_int "second window start" 1000 t1;
    check_int "second window events" 2 n1
  | _ -> Alcotest.fail "unexpected window shape")

let test_table_render () =
  let s =
    Gstats.Table.render ~header:[ "a"; "bbb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check_bool "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  check_bool "aligned separator present" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "---  ---"))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ test_hist_percentile_accuracy; test_hist_percentile_monotone ]
  in
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_hist_basics;
          Alcotest.test_case "small values exact" `Quick test_hist_small_values_exact;
          Alcotest.test_case "reset" `Quick test_hist_reset;
          Alcotest.test_case "negative clamped" `Quick test_hist_negative_clamped;
        ] );
      ("timeseries", [ Alcotest.test_case "windows" `Quick test_timeseries_windows ]);
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ("properties", qsuite);
    ]
