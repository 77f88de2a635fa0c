(* Eta-expanded: an alias binding would be an indirect closure call at
   every instrumentation site. *)
let[@inline] enabled () = Sink.enabled ()

(* Instruments are registered once at module init; handles are mutable
   cells, so updates below are single stores. *)

let c_dispatches = Metrics.counter "sched.dispatches"
let c_preemptions = Metrics.counter "sched.preemptions"
let c_wakeups = Metrics.counter "sched.wakeups"
let c_blocks = Metrics.counter "sched.blocks"
let c_ticks = Metrics.counter "sched.ticks"
let h_wake_to_dispatch = Metrics.histogram "sched.wakeup_to_dispatch_ns"

let c_produced = Metrics.counter "msg.produced"
let c_consumed = Metrics.counter "msg.consumed"
let c_dropped = Metrics.counter "msg.dropped"
let h_queue_delay = Metrics.histogram "msg.queue_delay_ns"

let c_txn_committed = Metrics.counter "txn.committed"
let c_txn_failed = Metrics.counter "txn.failed"
let h_txn_commit = Metrics.histogram "txn.commit_latency_ns"
let h_txn_fail = Metrics.histogram "txn.fail_latency_ns"

(* txn.failed.<reason>, one counter per failure status ("ESTALE" counts
   into txn.failed.estale), registered on the reason's first failure and
   then found without allocating. *)
let c_txn_failed_by : (string, Metrics.counter) Hashtbl.t = Hashtbl.create 8

let txn_failed_by status =
  match Hashtbl.find_opt c_txn_failed_by status with
  | Some c -> c
  | None ->
    let c = Metrics.counter ("txn.failed." ^ String.lowercase_ascii status) in
    Hashtbl.replace c_txn_failed_by status c;
    c

let c_passes = Metrics.counter "agent.passes"
let h_pass = Metrics.histogram "agent.pass_ns"

let c_enclaves_created = Metrics.counter "enclave.created"
let c_enclaves_destroyed = Metrics.counter "enclave.destroyed"
let c_destroyed_explicit = Metrics.counter "enclave.destroyed.explicit"
let c_destroyed_watchdog = Metrics.counter "enclave.destroyed.watchdog"
let c_destroyed_agent_crash = Metrics.counter "enclave.destroyed.agent_crash"
let c_watchdog = Metrics.counter "enclave.watchdog_fires"
let c_agent_crashes = Metrics.counter "enclave.agent_crashes"
let c_faults = Metrics.counter "faults.injected"

let si = string_of_int

(* Names and arg keys used on hot paths are interned once here, so the
   record calls below are pure int stores. *)

let k_tid = Sink.arg_int (Sink.intern "tid")
let k_tseq = Sink.arg_int (Sink.intern "tseq")
let k_qid = Sink.arg_int (Sink.intern "qid")
let k_cpu = Sink.arg_int (Sink.intern "cpu")
let k_txn = Sink.arg_int (Sink.intern "txn")
let k_kind_s = Sink.arg_str (Sink.intern "kind")
let k_status_s = Sink.arg_str (Sink.intern "status")
let sig_tid = Sink.argsig [| k_tid |]
let sig_cpu = Sink.argsig [| k_cpu |]
let sig_msg = Sink.argsig [| k_tid; k_tseq; k_qid |]
let sig_drop = Sink.argsig [| k_qid; k_kind_s; k_tid |]
let sig_txn = Sink.argsig [| k_txn; k_tid; k_cpu |]
let sig_status = Sink.argsig [| k_status_s |]

let sig_pass_end =
  Sink.argsig [| Sink.arg_int (Sink.intern "msgs"); Sink.arg_int (Sink.intern "txns") |]

let n_txn = Sink.intern "txn"
let n_agent_pass = Sink.intern "agent-pass"
let n_msg_drop = Sink.intern "msg-drop"

(* --- Message kind registration ------------------------------------------------ *)

(* [Msg.kind] names register once at module init (lib/core); per-event code
   then passes a dense [kind_ix] and the derived "msg:K" / "sched:K" span
   names are table lookups instead of per-event [^] concats. *)

let kind_name_ids = ref [||]
let msg_name_ids = ref [||]
let sched_name_ids = ref [||]
let chain_opening = ref [||]

let register_msg_kinds names =
  kind_name_ids := Array.map Sink.intern names;
  msg_name_ids := Array.map (fun n -> Sink.intern ("msg:" ^ n)) names;
  sched_name_ids := Array.map (fun n -> Sink.intern ("sched:" ^ n)) names;
  chain_opening :=
    Array.map (fun n -> n = "THREAD_WAKEUP" || n = "THREAD_CREATED") names

(* --- Kernel ----------------------------------------------------------------- *)

let dispatch ~now ~cpu ~tid ~name ~migrated =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_dispatches;
    (* Close the wakeup→dispatch chain opened at message-produce time. *)
    let id = Sink.take_sched_span s ~tid in
    if id >= 0 then begin
      Metrics.observe h_wake_to_dispatch (now - Sink.sched_span_began s ~tid);
      Sink.span_end_i1 s ~time:now ~asig:sig_cpu ~v0:cpu id
    end;
    Sink.dispatch_i s ~time:now ~cpu ~tid ~name:(Sink.intern name) ~migrated

let preempt ~now ~cpu ~tid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_preemptions;
    Sink.preempt_i s ~time:now ~cpu ~tid

let block ~now ~cpu ~tid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_blocks;
    Sink.block_i s ~time:now ~cpu ~tid

let yield ~now ~cpu ~tid =
  match Sink.current () with
  | None -> ()
  | Some s -> Sink.yield_i s ~time:now ~cpu ~tid

let texit ~now ~cpu ~tid =
  match Sink.current () with
  | None -> ()
  | Some s -> Sink.exit_i s ~time:now ~cpu ~tid

let wake ~now ~tid ~target_cpu =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_wakeups;
    Sink.wake_i s ~time:now ~tid ~target_cpu

let idle ~now ~cpu =
  match Sink.current () with
  | None -> ()
  | Some s -> Sink.idle_i s ~time:now ~cpu

let tick ~now ~cpu =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_ticks;
    Sink.tick_i s ~time:now ~cpu

let sched ~now ev =
  match ev with
  | Sink.Dispatch { cpu; tid; name; migrated } -> dispatch ~now ~cpu ~tid ~name ~migrated
  | Sink.Preempt { cpu; tid } -> preempt ~now ~cpu ~tid
  | Sink.Block { cpu; tid } -> block ~now ~cpu ~tid
  | Sink.Yield { cpu; tid } -> yield ~now ~cpu ~tid
  | Sink.Exit { cpu; tid } -> texit ~now ~cpu ~tid
  | Sink.Wake { tid; target_cpu } -> wake ~now ~tid ~target_cpu
  | Sink.Idle { cpu } -> idle ~now ~cpu
  | Sink.Tick { cpu } -> tick ~now ~cpu

(* --- Message queues ---------------------------------------------------------- *)

let msg_produce ~time ~qid ~kind_ix ~tid ~tseq =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_produced;
    if tid >= 0 && tseq > 0 then begin
      let track = Sink.queue_track_code ~qid in
      (* A wakeup (or birth) starts a scheduling decision: open the chain
         span that the eventual dispatch will close. *)
      let parent =
        let p = Sink.sched_span_id s ~tid in
        if p >= 0 then p
        else if (!chain_opening).(kind_ix) then begin
          let id =
            Sink.span_begin_i1 s ~time ~parent:0 ~name:(!sched_name_ids).(kind_ix)
              ~track ~asig:sig_tid ~v0:tid
          in
          Sink.open_sched_span s ~tid ~id ~began:time;
          id
        end
        else 0
      in
      let id =
        Sink.span_begin_i3 s ~time ~parent ~name:(!msg_name_ids).(kind_ix) ~track
          ~asig:sig_msg ~v0:tid ~v1:tseq ~v2:qid
      in
      (* A sampled-out span (id 0) has no end to match: skip the fifo
         entirely so sampling also skips the join bookkeeping.  The consume
         side's take then misses cheaply. *)
      if id > 0 then Sink.open_msg_span s ~qid ~tid ~tseq ~id
    end

let msg_consume ~time ~qid ~tid ~tseq ~posted =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_consumed;
    Metrics.observe h_queue_delay (time - posted);
    let id = Sink.take_msg_span s ~qid ~tid ~tseq in
    if id >= 0 then Sink.span_end_i s ~time id

let msg_drop ~time ~qid ~kind_ix ~tid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_dropped;
    Sink.instant_i3 s ~time ~name:n_msg_drop ~track:(Sink.queue_track_code ~qid)
      ~asig:sig_drop ~v0:qid ~v1:(!kind_name_ids).(kind_ix) ~v2:tid

(* --- Transactions ------------------------------------------------------------ *)

let txn_create ~now ~txn_id ~tid ~target ~eid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    let parent =
      match Sink.cur_pass s with
      | 0 ->
        let p = Sink.sched_span_id s ~tid in
        if p < 0 then 0 else p
      | pass -> pass
    in
    let track = if eid >= 0 then Sink.enclave_track eid else Sink.global_track in
    let id =
      Sink.span_begin_i3 s ~time:now ~parent ~name:n_txn ~track
        ~asig:sig_txn ~v0:txn_id ~v1:tid ~v2:target
    in
    Sink.open_txn_span s ~txn_id ~id ~began:now

let txn_decided ~now ~txn_id ~tid ~status ~committed =
  match Sink.current () with
  | None -> ()
  | Some s ->
    ignore tid;
    if committed then Metrics.incr c_txn_committed
    else begin
      Metrics.incr c_txn_failed;
      Metrics.incr (txn_failed_by status)
    end;
    let began = Sink.txn_span_began s ~txn_id in
    let id = Sink.take_txn_span s ~txn_id in
    if id >= 0 then begin
      Metrics.observe (if committed then h_txn_commit else h_txn_fail) (now - began);
      Sink.span_end_i1 s ~time:now ~asig:sig_status ~v0:(Sink.intern status) id
    end

(* --- Agents ------------------------------------------------------------------ *)

let agent_pass_begin ~now ~cpu ~eid =
  match Sink.current () with
  | None -> 0
  | Some s ->
    Metrics.incr c_passes;
    let id =
      Sink.span_begin_i1 s ~time:now ~parent:0 ~name:n_agent_pass
        ~track:(Sink.enclave_track eid) ~asig:sig_cpu ~v0:cpu
    in
    Sink.set_cur_pass s id;
    id

let agent_pass_end ~now ~began ~id ~nmsgs ~ntxns =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.observe h_pass (now - began);
    if Sink.cur_pass s = id then Sink.set_cur_pass s 0;
    Sink.span_end_i2 s ~time:now ~asig:sig_pass_end ~v0:nmsgs ~v1:ntxns id

let agent_attached ~now ~eid ~tid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Sink.instant s ~time:now ~name:"agent-attach" ~track:(Sink.Enclave eid)
      ~args:[ ("tid", si tid) ]
      ()

let agent_crash ~now ~eid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_agent_crashes;
    Sink.instant s ~time:now ~name:"agent-crash" ~track:(Sink.Enclave eid) ()

(* --- Enclave lifecycle ------------------------------------------------------- *)

(* Lifecycle hooks fire a handful of times per run, so they stay on the
   structured compat API; the hot paths above are all int writers. *)

let enclave_created ~now ~eid ~ncpus =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_enclaves_created;
    Sink.instant s ~time:now ~name:"enclave-created" ~track:(Sink.Enclave eid)
      ~args:[ ("cpus", si ncpus) ]
      ()

let enclave_destroyed ~now ~eid ~reason =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_enclaves_destroyed;
    (* Per-reason counts: the trace metrics should say *why* enclaves died,
       not just how many (the §3.4 resilience story hinges on the reason). *)
    (match reason with
    | "explicit" -> Metrics.incr c_destroyed_explicit
    | "watchdog" -> Metrics.incr c_destroyed_watchdog
    | "agent-crash" -> Metrics.incr c_destroyed_agent_crash
    | _ -> ());
    Sink.instant s ~time:now ~name:"enclave-destroyed" ~track:(Sink.Enclave eid)
      ~args:[ ("reason", reason) ]
      ()

let c_resizes = Metrics.counter "enclave.resizes"

let enclave_resized ~now ~eid ~cpu ~added =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_resizes;
    Sink.instant s ~time:now
      ~name:(if added then "cpu-added" else "cpu-taken")
      ~track:(Sink.Enclave eid)
      ~args:[ ("cpu", si cpu) ]
      ()

let fault_injected ~now ~eid ~kind =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_faults;
    Sink.instant s ~time:now ~name:("fault:" ^ kind) ~track:(Sink.Enclave eid)
      ~args:[ ("kind", kind) ]
      ()

(* --- BPF fastpath (§3.5) ------------------------------------------------------ *)

let c_bpf_picks = Metrics.counter "bpf.picks"
let c_bpf_misses = Metrics.counter "bpf.misses"
let c_bpf_fallbacks = Metrics.counter "bpf.fallbacks"
let c_bpf_verifier_rejects = Metrics.counter "bpf.verifier_rejects"
let c_bpf_installs = Metrics.counter "bpf.installs"

(* Hook-indexed name tables: the hot writers below stay pure int stores. *)
let n_bpf_hit = [| Sink.intern "bpf-hit:wakeup"; Sink.intern "bpf-hit:tick"; Sink.intern "bpf-hit:pick" |]
let n_bpf_miss = [| Sink.intern "bpf-miss:wakeup"; Sink.intern "bpf-miss:tick"; Sink.intern "bpf-miss:pick" |]
let n_bpf_fallback =
  [| Sink.intern "bpf-fallback:wakeup"; Sink.intern "bpf-fallback:tick"; Sink.intern "bpf-fallback:pick" |]

let sig_bpf = Sink.argsig [| k_cpu; k_tid |]

let bpf_hit ~now ~eid ~hook ~cpu ~tid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_bpf_picks;
    Sink.instant_i2 s ~time:now ~name:n_bpf_hit.(hook)
      ~track:(Sink.enclave_track eid) ~asig:sig_bpf ~v0:cpu ~v1:tid

let bpf_miss ~now ~eid ~hook ~cpu ~tid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_bpf_misses;
    Sink.instant_i2 s ~time:now ~name:n_bpf_miss.(hook)
      ~track:(Sink.enclave_track eid) ~asig:sig_bpf ~v0:cpu ~v1:tid

let bpf_fallback ~now ~eid ~hook ~cpu =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_bpf_fallbacks;
    Sink.instant_i1 s ~time:now ~name:n_bpf_fallback.(hook)
      ~track:(Sink.enclave_track eid) ~asig:sig_cpu ~v0:cpu

(* Install/reject fire a handful of times per run: structured API is fine. *)

let bpf_installed ~now ~eid ~hook ~name =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_bpf_installs;
    Sink.instant s ~time:now ~name:"bpf-install" ~track:(Sink.Enclave eid)
      ~args:[ ("hook", si hook); ("prog", name) ]
      ()

let bpf_verifier_reject ~now ~eid ~name ~reason =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_bpf_verifier_rejects;
    Sink.instant s ~time:now ~name:"bpf-verifier-reject" ~track:(Sink.Enclave eid)
      ~args:[ ("prog", name); ("reason", reason) ]
      ()

(* --- Frames (hybrid scenarios) ------------------------------------------------ *)

let c_frames_completed = Metrics.counter "frames.completed"
let c_frames_missed = Metrics.counter "frames.missed"
let h_frame_time = Metrics.histogram "frames.time_ns"

let frame_done ~now ~stream ~dur ~missed =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_frames_completed;
    if missed then Metrics.incr c_frames_missed;
    Metrics.observe h_frame_time dur;
    Sink.instant s ~time:now
      ~name:(if missed then "frame-missed" else "frame-done")
      ~track:Sink.Global
      ~args:[ ("stream", si stream); ("dur", si dur) ]
      ()

let watchdog_fire ~now ~eid ~tid =
  match Sink.current () with
  | None -> ()
  | Some s ->
    Metrics.incr c_watchdog;
    Sink.instant s ~time:now ~name:"watchdog-fire" ~track:(Sink.Enclave eid)
      ~args:[ ("tid", si tid) ]
      ()
