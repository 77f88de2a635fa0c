(* Name -> experiment registry: one entry per table, figure or ablation,
   each with its three sizes.  Quick and Full are the bench's historical
   sizes; Short is what tier 1 digests and `trace` records, and for fig5,
   table3 and colocation it is the configuration whose digest the bench
   pinned before tier 1 did.  fig6a's Short runs 100 and 300 kq/s: its
   verdict needs a load where CFS has saturated, and at 250 kq/s CFS does
   not within 100 ms. *)

type scale = Short | Quick | Full

type bound = At_least of float | Above of float | At_most of float
type check = { what : string; reading : float; bound : bound }

type 'r t = {
  name : string;
  doc : string;
  run : scale -> seed:int -> 'r;
  print : 'r -> unit;
  digest : ('r -> string) option;
  verdict : 'r -> check list;
}

type entry = E : 'r t -> entry

let holds c =
  match c.bound with
  | At_least b -> c.reading >= b
  | Above b -> c.reading > b
  | At_most b -> c.reading <= b

let show_check c =
  let op, b =
    match c.bound with
    | At_least b -> (">=", b)
    | Above b -> (">", b)
    | At_most b -> ("<=", b)
  in
  Printf.sprintf "%-40s %10.3f  (%s %.3f)" c.what c.reading op b

let digest_of v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let ms = Sim.Units.ms
let sec = Sim.Units.sec

let size s ~short ~quick ~full =
  match s with Short -> short | Quick -> quick | Full -> full

let make ?(digest = Some digest_of) name doc ~verdict run print =
  { name; doc; run; print; digest; verdict }

let check what reading bound = { what; reading; bound }
let flag b = if b then 1.0 else 0.0

(* Policies are small next to the mechanism they run on. *)
let table2 =
  make ~digest:None "table2" "Lines-of-code inventory vs the paper's Table 2"
    ~verdict:(fun rows ->
      let loc name =
        List.find_map
          (fun (r : Table2.row) -> if r.component = name then r.our_loc else None)
          rows
        |> Option.fold ~none:0.0 ~some:float_of_int
      in
      [
        check "components counted" (float_of_int (List.length rows)) (Above 8.0);
        check "Search policy lines" (loc "Google Search policy") (Above 100.0);
        check "kernel class lines / Snap policy lines"
          (loc "ghOSt kernel scheduling class" /. loc "Google Snap policy")
          (Above 10.0);
      ])
    (fun _ ~seed:_ -> Table2.run ())
    Table2.print

(* Every row within 10 % of the paper.  Row 2 adds half an agent pass of
   polling delay the paper's spin loop does not pay, so it gets 35 %. *)
let table3 =
  make "table3" "Microbenchmarks of ghOSt operations (Table 3)"
    ~verdict:
      (List.map (fun (l : Table3.line) ->
           let drift =
             100.0
             *. Float.abs (float_of_int (l.measured_ns - l.paper_ns))
             /. float_of_int l.paper_ns
           in
           check ("drift %, " ^ l.label) drift
             (At_most
                (if l.label = "2. Message delivery to global agent" then 35.0
                 else 10.0))))
    (fun s ~seed ->
      Table3.run ~samples:(size s ~short:120 ~quick:150 ~full:400) ~seed)
    Table3.print

let fig5 =
  make "fig5" "Global agent scalability sweep (Fig. 5)"
    ~verdict:
      (List.map (fun (machine, (points : Fig5.point list)) ->
           let first = List.hd points
           and last = List.nth points (List.length points - 1) in
           check
             (machine ^ " txns/s, last point / first")
             (last.txns_per_sec /. first.txns_per_sec)
             (Above 5.0)))
    (fun s ~seed ->
      Fig5.run ~measure_ns:(ms (size s ~short:10 ~quick:20 ~full:50)) ~seed)
    Fig5.print

(* Fig. 6's ordering at some offered load: CFS's p99 past 4x ghOSt's while
   Shinjuku's stays within 2x ghOSt's + 10 us.  The checks read the load
   where both hold with the widest CFS gap, or else the widest gap. *)
let fig6_verdict points =
  let rates =
    List.sort_uniq compare (List.map (fun (p : Fig6.point) -> p.offered_kqps) points)
  in
  let at_rate rate =
    let p99 sys =
      (List.find
         (fun (p : Fig6.point) -> p.offered_kqps = rate && p.system = sys)
         points)
        .p99_us
    in
    let s = p99 Fig6.Shinjuku and g = p99 Fig6.Ghost_shinjuku in
    [
      check
        (Printf.sprintf "CFS p99 / ghOSt p99 at %.0f kq/s" rate)
        (p99 Fig6.Cfs_shinjuku /. g) (Above 4.0);
      check
        (Printf.sprintf "Shinjuku p99 us at %.0f kq/s" rate)
        s
        (At_most ((2.0 *. g) +. 10.0));
    ]
  in
  let widest =
    List.fold_left (fun b c ->
        if (List.hd c).reading > (List.hd b).reading then c else b)
  in
  let all = List.map at_rate rates in
  match (List.filter (List.for_all holds) all, all) with
  | c :: cs, _ | [], c :: cs -> widest c cs
  | [], [] -> []

let fig6 name doc ~with_batch ~short_rates ~title =
  make name doc ~verdict:fig6_verdict
    (fun s ~seed ->
      let rates =
        size s ~short:short_rates
          ~quick:[ 100_000.; 200_000.; 250_000.; 300_000. ]
          ~full:Fig6.default_rates
      in
      let warmup, measure =
        size s ~short:(50, 100) ~quick:(100, 300) ~full:(200, 800)
      in
      Fig6.run ~rates ~with_batch ~warmup_ns:(ms warmup) ~measure_ns:(ms measure)
        ~seed)
    (Fig6.print ~title)

let fig6a =
  fig6 "fig6a" "Shinjuku / ghOSt-Shinjuku / CFS-Shinjuku p99 vs load (Fig. 6a)"
    ~with_batch:false ~short_rates:[ 100_000.; 300_000. ]
    ~title:"Fig. 6a: p99 vs throughput (RocksDB dispersive load)"

let fig6bc =
  fig6 "fig6bc" "Fig. 6a's systems co-located with a batch app (Fig. 6b/c)"
    ~with_batch:true ~short_rates:[ 100_000.; 250_000. ]
    ~title:"Fig. 6b/6c: RocksDB co-located with a batch app (+ batch CPU share)"

(* Each row's percentiles never decrease: the reading is the largest drop
   from one percentile to the next. *)
let fig7_verdict =
  List.map (fun (r : Fig7.row) ->
      let rec drop = function
        | a :: (b :: _ as rest) -> max (a - b) (drop rest)
        | _ -> 0
      in
      check
        (Printf.sprintf "%s %s largest percentile drop, ns"
           (match r.sched with
           | Fig7.Microquanta -> "microquanta"
           | Ghost_snap -> "ghost")
           (match r.size with Workloads.Snapnet.Small -> "64B" | Large -> "64kB"))
        (float_of_int (drop (List.map snd r.percentiles)))
        (At_most 0.0))

let fig7 name doc ~loaded ~title =
  make name doc ~verdict:fig7_verdict
    (fun s ~seed ->
      let warmup_ns = size s ~short:(ms 50) ~quick:(ms 200) ~full:(ms 200) in
      let duration_ns = size s ~short:(ms 100) ~quick:(sec 1) ~full:(sec 3) in
      Fig7.run ~loaded ~duration_ns ~warmup_ns ~seed)
    (Fig7.print ~title)

let fig7a =
  fig7 "fig7a" "Google Snap RTT percentiles, MicroQuanta vs ghOSt (Fig. 7a)"
    ~loaded:false ~title:"Fig. 7a: Google Snap RTT percentiles (quiet mode)"

let fig7b =
  fig7 "fig7b" "Fig. 7a with 40 antagonist threads (Fig. 7b)" ~loaded:true
    ~title:"Fig. 7b: Google Snap RTT percentiles (loaded mode)"

(* No predicate yet: EXPERIMENTS.md states Fig. 8's verdict in prose. *)
let fig8 =
  make "fig8" "Google Search, CFS vs ghOSt and its ablations (Fig. 8)"
    ~verdict:(fun _ -> [])
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

(* CFS co-runs VMs on SMT siblings; the secure policies never do. *)
let table4 =
  make "table4" "Secure VM core scheduling (Table 4)"
    ~verdict:(function
      | (cfs : Table4.row) :: secure ->
        check "CFS cross-VM SMT samples" (float_of_int cfs.violations) (At_least 1.0)
        :: List.map
             (fun (r : Table4.row) ->
               check (r.label ^ " cross-VM SMT samples")
                 (float_of_int r.violations) (At_most 0.0))
             secure
      | [] -> invalid_arg "table4: no rows")
    (fun s ~seed ->
      Table4.run ~work_ns:(ms (size s ~short:20 ~quick:200 ~full:400)) ~seed)
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
    ~verdict:(function
      | [ (a : Bpf_ablation.row); f ] ->
        [
          check "offered requests, |fastpath - agent-only|"
            (float_of_int (abs (f.offered - a.offered)))
            (At_most 0.0);
          check "fastpath picks" (float_of_int f.bpf_picks) (At_least 1000.0);
          check "wakeup-to-dispatch p99 win" (a.wd_p99_us /. f.wd_p99_us) (Above 2.0);
        ]
      | _ -> invalid_arg "bpf: two rows expected")
    (fun s ~seed ->
      let duration_ns = ms (size s ~short:20 ~quick:150 ~full:500) in
      Bpf_ablation.run ~duration_ns ~seed)
    Bpf_ablation.print

let tickless =
  make "tickless" "Tick-less scheduling for guest workloads (5)"
    ~verdict:(function
      | [ _cfs; (on : Tickless.row); off ] ->
        [ check "p99 ticks on / tick-less" (on.p99_us /. off.p99_us) (Above 1.0) ]
      | _ -> invalid_arg "tickless: three rows expected")
    (fun s ~seed ->
      let duration_ns = ms (size s ~short:20 ~quick:300 ~full:500) in
      Tickless.run ~duration_ns ~seed)
    Tickless.print

let upgrade =
  make "upgrade"
    "In-place agent upgrade under load, and an upgrade the ABI check \
     rejects (3.4)"
    ~verdict:(fun ((r : Upgrade.result), (rej : Upgrade.rejected)) ->
      [
        check "post-recovery p99 ratio" r.recovered_ratio (At_most 1.10);
        check "replacement attached, enclave alive"
          (flag (Upgrade.attached r.report)) (At_least 1.0);
        check "mismatched replacement contained" (flag rej.rejected_ok)
          (At_least 1.0);
      ])
    (fun s ~seed ->
      let measure_ns = ms (size s ~short:30 ~quick:150 ~full:300) in
      let rej_measure_ns, rej_offset =
        size s ~short:(ms 30, ms 10) ~quick:(ms 100, ms 50) ~full:(ms 100, ms 50)
      in
      ( Upgrade.run ~seed ~measure_ns (),
        Upgrade.run_rejected ~seed ~measure_ns:rej_measure_ns
          ~upgrade_offset:rej_offset ))
    (fun (r, rej) ->
      Upgrade.print r;
      Upgrade.print_rejected rej)

let resilience =
  make "resilience" "Agent crash and stuck agent under load: no thread is lost (3.4)"
    ~verdict:
      (List.concat_map (fun (r : Resilience.result) ->
           let s = match r.scenario with Crash -> "crash" | Stuck -> "stuck" in
           [
             check (s ^ " jobs completed") (float_of_int r.completed)
               (At_least (float_of_int r.total_jobs));
             check (s ^ " threads on CFS at destroy") (flag r.all_cfs_at_destroy)
               (At_least 1.0);
           ]))
    (fun _ ~seed ->
      List.map
        (fun scenario -> Resilience.run ~seed ~scenario ())
        [ Resilience.Crash; Resilience.Stuck ])
    (List.iter Resilience.print)

(* No predicate yet: EXPERIMENTS.md states the tail win in prose. *)
let colocation =
  make "colocation"
    "Two-enclave colocation: a load watcher lends batch CPUs to serving \
     mid-surge, vs a static partition"
    ~verdict:(fun _ -> [])
    (fun s ~seed ->
      let warmup, measure =
        size s ~short:(30, 90) ~quick:(100, 300) ~full:(100, 300)
      in
      Colocation.run ~seed ~warmup_ns:(ms warmup) ~measure_ns:(ms measure))
    Colocation.print

let fleet =
  make "fleet"
    "Fleet controller vs static round-robin on a 4-machine cluster with one \
     straggler"
    ~verdict:(fun (r : Fleet.result) ->
      [
        check "static p99 / dynamic p99"
          (r.static_.p99_us /. Float.max 0.1 r.dynamic.p99_us)
          (At_least 3.0);
      ])
    (fun s ~seed ->
      Fleet.run ~seed ~measure_ns:(ms (size s ~short:20 ~quick:60 ~full:200)))
    Fleet.print

let hybrid =
  make "hybrid"
    "60 Hz frames on a P/E hybrid machine: class-blind fifo-percpu vs \
     hybrid-aware EDF"
    ~verdict:(function
      | [ (blind : Hybrid.row); aware ] ->
        [
          check "offered frames and work, |blind - aware|"
            (float_of_int
               (abs (blind.offered - aware.offered)
               + abs (blind.offered_work - aware.offered_work)))
            (At_most 0.0);
          check "frame p99 blind / aware" (blind.frame_p99_us /. aware.frame_p99_us)
            (At_least 2.0);
          check "aware frames completed" (float_of_int aware.completed) (At_least 1.0);
          check "aware batch requests completed" (float_of_int aware.batch_completed)
            (At_least 1.0);
        ]
      | _ -> invalid_arg "hybrid: two rows expected")
    (fun s ~seed ->
      let duration_ns = ms (size s ~short:100 ~quick:600 ~full:1000) in
      Hybrid.run ~duration_ns ~seed)
    Hybrid.print

let adaptive =
  make "adaptive" "Self-tuning adaptive policy vs its frozen knobs on a load step"
    ~verdict:(fun ({ adaptive = a; static_ } : Adaptive.result) ->
      [
        check "retunes" (float_of_int (a.tightens + a.relaxes)) (At_least 1.0);
        check "static p99 / adaptive p99" (static_.p99_us /. a.p99_us) (At_least 1.05);
      ])
    (fun s ~seed ->
      let warmup, measure =
        size s ~short:(20, 60) ~quick:(50, 300) ~full:(100, 300)
      in
      Adaptive.run ~seed ~warmup_ns:(ms warmup) ~measure_ns:(ms measure))
    Adaptive.print

let all =
  [
    E table2; E table3; E fig5; E fig6a; E fig6bc; E fig7a; E fig7b; E fig8;
    E table4; E bpf; E tickless; E upgrade; E resilience; E colocation;
    E fleet; E hybrid; E adaptive;
  ]

let names = List.map (fun (E e) -> e.name) all
