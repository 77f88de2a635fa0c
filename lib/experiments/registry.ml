(* Name -> experiment registry: one entry per table, figure or ablation,
   each with its three sizes.  Quick and Full are the bench's historical
   sizes; Short is what tier 1 digests and `trace` records, and for fig5,
   fig6a, table3 and colocation it is the configuration whose digest the
   bench pinned before tier 1 did. *)

type scale = Short | Quick | Full

type 'r t = {
  name : string;
  doc : string;
  run : scale -> seed:int -> 'r;
  print : 'r -> unit;
  digest : ('r -> string) option;
}

type entry = E : 'r t -> entry

let digest_of v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let ms = Sim.Units.ms
let sec = Sim.Units.sec

let size s ~short ~quick ~full =
  match s with Short -> short | Quick -> quick | Full -> full

let make ?(digest = Some digest_of) name doc run print =
  { name; doc; run; print; digest }

let table2 =
  make ~digest:None "table2" "Lines-of-code inventory vs the paper's Table 2"
    (fun _ ~seed:_ -> Table2.run ())
    Table2.print

let table3 =
  make "table3" "Microbenchmarks of ghOSt operations (Table 3)"
    (fun s ~seed ->
      Table3.run ~samples:(size s ~short:120 ~quick:150 ~full:400) ~seed ())
    Table3.print

let fig5 =
  make "fig5" "Global agent scalability sweep (Fig. 5)"
    (fun s ~seed ->
      Fig5.run ~measure_ns:(ms (size s ~short:10 ~quick:20 ~full:50)) ~seed ())
    Fig5.print

let fig6 name doc ~with_batch ~title =
  make name doc
    (fun s ~seed ->
      let rates =
        size s ~short:[ 100_000.; 250_000. ]
          ~quick:[ 100_000.; 200_000.; 250_000.; 300_000. ]
          ~full:Fig6.default_rates
      in
      let warmup, measure =
        size s ~short:(50, 100) ~quick:(100, 300) ~full:(200, 800)
      in
      Fig6.run ~rates ~with_batch ~warmup_ns:(ms warmup) ~measure_ns:(ms measure)
        ~seed ())
    (Fig6.print ~title)

let fig6a =
  fig6 "fig6a" "Shinjuku / ghOSt-Shinjuku / CFS-Shinjuku p99 vs load (Fig. 6a)"
    ~with_batch:false
    ~title:"Fig. 6a: p99 vs throughput (RocksDB dispersive load)"

let fig6bc =
  fig6 "fig6bc" "Fig. 6a's systems co-located with a batch app (Fig. 6b/c)"
    ~with_batch:true
    ~title:"Fig. 6b/6c: RocksDB co-located with a batch app (+ batch CPU share)"

let fig7 name doc ~loaded ~title =
  make name doc
    (fun s ~seed ->
      let warmup_ns = size s ~short:(ms 50) ~quick:(ms 200) ~full:(ms 200) in
      let duration_ns = size s ~short:(ms 100) ~quick:(sec 1) ~full:(sec 3) in
      Fig7.run ~loaded ~duration_ns ~warmup_ns ~seed ())
    (Fig7.print ~title)

let fig7a =
  fig7 "fig7a" "Google Snap RTT percentiles, MicroQuanta vs ghOSt (Fig. 7a)"
    ~loaded:false ~title:"Fig. 7a: Google Snap RTT percentiles (quiet mode)"

let fig7b =
  fig7 "fig7b" "Fig. 7a with 40 antagonist threads (Fig. 7b)" ~loaded:true
    ~title:"Fig. 7b: Google Snap RTT percentiles (loaded mode)"

let fig8 =
  make "fig8" "Google Search, CFS vs ghOSt and its ablations (Fig. 8)"
    (fun s ~seed ->
      let duration_ns = size s ~short:(ms 2) ~quick:(sec 3) ~full:(sec 10) in
      let warmup_ns = size s ~short:0 ~quick:(sec 1) ~full:(sec 2) in
      List.map
        (fun (_, mode) -> Fig8.run ~duration_ns ~warmup_ns ~seed mode)
        (Fig8.default_modes ()))
    (fun results ->
      Fig8.print_summary results;
      (* Per-second series for the two headline systems (Fig. 8's x-axis). *)
      List.iter
        (fun (r : Fig8.result) ->
          if r.label = "cfs" || r.label = "ghost" then Fig8.print_series r)
        results)

let table4 =
  make "table4" "Secure VM core scheduling (Table 4)"
    (fun s ~seed ->
      Table4.run ~work_ns:(ms (size s ~short:20 ~quick:200 ~full:400)) ~seed ())
    Table4.print

(* The rows' host minor words differ between builds, so the digest leaves
   them out. *)
let bpf =
  make "bpf"
    "BPF fastpath ablation: wakeup-to-dispatch latency with and without \
     in-kernel programs (3.5, 5)"
    ~digest:
      (Some
         (fun rows ->
           digest_of
             (List.map
                (fun (r : Bpf_ablation.row) -> { r with minor_words = 0.0 })
                rows)))
    (fun s ~seed ->
      let duration_ns = ms (size s ~short:20 ~quick:150 ~full:500) in
      Bpf_ablation.run ~duration_ns ~seed ())
    Bpf_ablation.print

let tickless =
  make "tickless" "Tick-less scheduling for guest workloads (5)"
    (fun s ~seed ->
      let duration_ns = ms (size s ~short:20 ~quick:300 ~full:500) in
      Tickless.run ~duration_ns ~seed ())
    Tickless.print

let upgrade =
  make "upgrade"
    "In-place agent upgrade under load, and an upgrade the ABI check \
     rejects (3.4)"
    (fun s ~seed ->
      let measure_ns, upgrade_offset =
        size s ~short:(ms 30, ms 10) ~quick:(ms 150, ms 50) ~full:(ms 300, ms 100)
      in
      let rej_measure_ns, rej_offset =
        size s ~short:(ms 30, ms 10) ~quick:(ms 100, ms 50) ~full:(ms 100, ms 50)
      in
      ( Upgrade.run ~seed ~measure_ns ~upgrade_offset (),
        Upgrade.run_rejected ~seed ~measure_ns:rej_measure_ns
          ~upgrade_offset:rej_offset () ))
    (fun (r, rej) ->
      Upgrade.print r;
      Upgrade.print_rejected rej)

let resilience =
  make "resilience" "Agent crash and stuck agent under load: no thread is lost (3.4)"
    (fun _ ~seed ->
      List.map
        (fun scenario -> Resilience.run ~seed ~scenario ())
        [ Resilience.Crash; Resilience.Stuck ])
    (List.iter Resilience.print)

let colocation =
  make "colocation"
    "Two-enclave colocation: a load watcher lends batch CPUs to serving \
     mid-surge, vs a static partition"
    (fun s ~seed ->
      let warmup, measure =
        size s ~short:(30, 90) ~quick:(100, 300) ~full:(100, 300)
      in
      Colocation.run ~seed ~warmup_ns:(ms warmup) ~measure_ns:(ms measure) ())
    Colocation.print

let fleet =
  make "fleet"
    "Fleet controller vs static round-robin on a 4-machine cluster with one \
     straggler"
    (fun s ~seed ->
      Fleet.run ~seed ~measure_ns:(ms (size s ~short:20 ~quick:60 ~full:200)) ())
    Fleet.print

let hybrid =
  make "hybrid"
    "60 Hz frames on a P/E hybrid machine: class-blind fifo-percpu vs \
     hybrid-aware EDF"
    (fun s ~seed ->
      let duration_ns = ms (size s ~short:100 ~quick:600 ~full:1000) in
      Hybrid.run ~duration_ns ~seed ())
    Hybrid.print

let adaptive =
  make "adaptive" "Self-tuning adaptive policy vs its frozen knobs on a load step"
    (fun s ~seed ->
      let warmup, measure =
        size s ~short:(20, 60) ~quick:(50, 300) ~full:(100, 300)
      in
      Adaptive.run ~seed ~warmup_ns:(ms warmup) ~measure_ns:(ms measure) ())
    Adaptive.print

let all =
  [
    E table2; E table3; E fig5; E fig6a; E fig6bc; E fig7a; E fig7b; E fig8;
    E table4; E bpf; E tickless; E upgrade; E resilience; E colocation;
    E fleet; E hybrid; E adaptive;
  ]

let names = List.map (fun (E e) -> e.name) all
