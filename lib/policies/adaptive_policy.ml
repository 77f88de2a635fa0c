(* Self-tuning two-class policy (Agentic-OS direction): the DSL's
   centralized template with a periodic feedback controller on top.

   The policy publishes its own signals through [Obs.Metrics] — a
   wakeup-to-dispatch latency histogram fed from the DSL's commit hook and
   an LC backlog gauge refreshed every pass — and the controller reads
   those same metrics back each period to retune the declared knobs:

   - breach (p99 above target, or backlog piling up): halve the timeslice
     toward [min_slice], stop donating idle CPUs to batch work, and keep
     publishing aggressively to the BPF pick ring;
   - comfortable (p99 under half the target, empty backlog): double the
     timeslice back toward the relaxed setting and resume donation.

   [frozen=true] keeps the initial knobs forever — the static variant the
   load-step experiment compares against. *)

module Abi = Dsl.Abi

type config = {
  period : int;  (* controller period, ns *)
  target_p99 : int;  (* wakeup-to-dispatch p99 target, ns *)
  timeslice : int;  (* initial (relaxed) LC timeslice, ns *)
  min_slice : int;  (* tightest timeslice the controller may set, ns *)
  backlog_hi : int;  (* LC backlog treated as pressure *)
  frozen : bool;  (* disable the controller: static-knob variant *)
}

let default_config =
  {
    period = 1_000_000;
    target_p99 = 100_000;
    timeslice = 250_000;
    min_slice = 25_000;
    backlog_hi = 4;
    frozen = false;
  }

type t = {
  config : config;
  engine : Dsl.Centralized.t;
  woke : (int, int) Hashtbl.t;  (* tid -> wakeup timestamp *)
  wd : Obs.Metrics.histogram;
  wd_p99_gauge : Obs.Metrics.gauge;
  backlog_gauge : Obs.Metrics.gauge;
  mutable window : int list;  (* wd samples since the last controller tick *)
  mutable last_tick : int;
  mutable slice : int;
  mutable tightens : int;
  mutable relaxes : int;
}

let wd_metric = "policy.adaptive.wd_ns"
let wd_p99_metric = "policy.adaptive.wd_p99_ns"
let backlog_metric = "policy.adaptive.backlog"

let stats t =
  let s = Dsl.Centralized.stats t.engine in
  [
    ("be_scheduled", s.Dsl.Centralized.scheduled.(1));
    ("estales", s.Dsl.Centralized.estales);
    ("lc_backlog", Dsl.Centralized.backlog t.engine);
    ("lc_scheduled", s.Dsl.Centralized.scheduled.(0));
    ("relaxes", t.relaxes);
    ("slice_ns", t.slice);
    ("tightens", t.tightens);
  ]

let retunes t = t.tightens + t.relaxes
let slice_ns t = t.slice

(* p99 of the samples seen since the last controller tick — a windowed
   signal that decays when the surge ends, unlike the cumulative
   histogram (whose percentile can never come back down). *)
let window_p99 samples =
  match samples with
  | [] -> 0
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(Array.length a * 99 / 100)

(* Read the policy's own published metrics back — the controller sees
   exactly what a dashboard would, nothing more. *)
let read_signals () =
  let snap = Obs.Metrics.snapshot () in
  let gauge key =
    match List.assoc_opt key snap with
    | Some (Obs.Metrics.Gauge g) -> g
    | _ -> 0
  in
  (gauge wd_p99_metric, gauge backlog_metric)

let control t ctx =
  Obs.Metrics.set t.backlog_gauge (Dsl.Centralized.backlog t.engine);
  let now = Abi.now ctx in
  if now - t.last_tick >= t.config.period then begin
    t.last_tick <- now;
    Obs.Metrics.set t.wd_p99_gauge (window_p99 t.window);
    t.window <- [];
    if not t.config.frozen then begin
      (* The controller's own work is charged like any agent computation. *)
      Abi.charge ctx 50;
      let p99, backlog = read_signals () in
      if p99 > t.config.target_p99 || backlog >= t.config.backlog_hi then begin
        let next = max t.config.min_slice (t.slice / 2) in
        if next <> t.slice then begin
          t.slice <- next;
          Dsl.Centralized.set_timeslice t.engine ctx (Some next)
        end;
        if Dsl.Centralized.donate_max t.engine <> Some 0 then begin
          Dsl.Centralized.set_donate_max t.engine (Some 0);
          t.tightens <- t.tightens + 1
        end
      end
      else if p99 * 2 < t.config.target_p99 && backlog = 0 then begin
        let next = min t.config.timeslice (t.slice * 2) in
        if next <> t.slice then begin
          t.slice <- next;
          Dsl.Centralized.set_timeslice t.engine ctx (Some next)
        end;
        if Dsl.Centralized.donate_max t.engine <> None then begin
          Dsl.Centralized.set_donate_max t.engine None;
          t.relaxes <- t.relaxes + 1
        end
      end
    end
  end

let policy ?(config = default_config) ~is_lc () =
  let engine, pol =
    Dsl.Centralized.make ~name:"adaptive" ~nclasses:2
      ~classify:(fun _ task -> if is_lc task then 0 else 1)
      ~timeslice:config.timeslice ~donate_idle:true ~evict_lower:true
      ~msg_charge:25 ~assign_charge:40 ()
  in
  let t =
    {
      config;
      engine;
      woke = Hashtbl.create 512;
      wd = Obs.Metrics.histogram wd_metric;
      wd_p99_gauge = Obs.Metrics.gauge wd_p99_metric;
      backlog_gauge = Obs.Metrics.gauge backlog_metric;
      window = [];
      last_tick = 0;
      slice = config.timeslice;
      tightens = 0;
      relaxes = 0;
    }
  in
  Dsl.Centralized.set_on_event engine (fun ctx ev ->
      match ev with
      | Dsl.Msg_class.Became_runnable tid ->
        Hashtbl.replace t.woke tid (Abi.now ctx)
      | Dsl.Msg_class.Not_runnable tid | Dsl.Msg_class.Died tid ->
        Hashtbl.remove t.woke tid
      | Dsl.Msg_class.Affinity_changed _ | Dsl.Msg_class.Tick _
      | Dsl.Msg_class.Cpu_available _ | Dsl.Msg_class.Cpu_taken _ -> ());
  Dsl.Centralized.set_on_committed engine (fun ctx ~tid ~cpu:_ ->
      match Hashtbl.find_opt t.woke tid with
      | Some at ->
        Hashtbl.remove t.woke tid;
        let wd = Abi.now ctx - at in
        Obs.Metrics.observe t.wd wd;
        t.window <- wd :: t.window
      | None -> ());
  Dsl.Centralized.set_on_pass engine (fun ctx -> control t ctx);
  (t, pol)
