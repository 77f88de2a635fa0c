(** Instrumentation entry points for the kernel and ghOSt layers.

    Each hook records into the installed {!Sink} (spans, instants, sched
    events) {e and} updates the corresponding {!Metrics} instruments, so a
    single call site in the instrumented module covers both.  Every hook is
    a no-op when no sink is installed; call sites should still guard with
    {!enabled} before building any argument that allocates:

    {[ if Obs.Hooks.enabled () then Obs.Hooks.sched ~now (Dispatch {...}) ]}

    The cross-layer causal chain of one ghOSt scheduling decision is
    stitched here: a THREAD_WAKEUP/THREAD_CREATED produce opens a
    ["sched:..."] span keyed by tid; the message's own queueing span and
    the transaction spans the agent creates for that tid parent under it;
    the chain closes when the kernel dispatches the thread. *)

val enabled : unit -> bool

val register_msg_kinds : string array -> unit
(** Intern the message-kind names once (called from [Msg] at module init);
    per-event hooks below take the dense index into this array instead of a
    string, so the derived ["msg:K"]/["sched:K"] span names are table
    lookups, not per-event concats. *)

(** {1 Kernel (dispatch / preempt / tick)}

    One hook per event type so call sites pass plain ints instead of
    building a {!Sink.sched} variant per event. *)

val dispatch :
  now:int -> cpu:int -> tid:int -> name:string -> migrated:bool -> unit
(** Additionally closes the thread's open wakeup→dispatch chain span and
    observes its latency. *)

val preempt : now:int -> cpu:int -> tid:int -> unit
val block : now:int -> cpu:int -> tid:int -> unit
val yield : now:int -> cpu:int -> tid:int -> unit
val texit : now:int -> cpu:int -> tid:int -> unit
val wake : now:int -> tid:int -> target_cpu:int -> unit
val idle : now:int -> cpu:int -> unit
val tick : now:int -> cpu:int -> unit

val sched : now:int -> Sink.sched -> unit
(** Structured wrapper over the per-type hooks above. *)

(** {1 Message queues (produce / consume / drop)} *)

val msg_produce :
  time:int -> qid:int -> kind_ix:int -> tid:int -> tseq:int -> unit
(** Opens the message's queueing span (and the scheduling chain span for
    wakeup/creation messages).  [tid < 0] (TIMER_TICK) only counts. *)

val msg_consume :
  time:int -> qid:int -> tid:int -> tseq:int -> posted:int -> unit
(** Closes the queueing span; observes [time - posted] as queue delay. *)

val msg_drop : time:int -> qid:int -> kind_ix:int -> tid:int -> unit
(** Instant event on the owning enclave's track, plus the drop counter. *)

(** {1 Transactions (commit / fail latency)} *)

val txn_create : now:int -> txn_id:int -> tid:int -> target:int -> eid:int -> unit
(** Opens the transaction span, parented under the current agent pass (or
    the thread's scheduling chain when no pass is active). *)

val txn_decided :
  now:int -> txn_id:int -> tid:int -> status:string -> committed:bool -> unit
(** Closes the transaction span with its outcome; observes create→decide
    latency into [txn.commit_latency_ns] or [txn.fail_latency_ns].  A
    failure counts into [txn.failed] and into [txn.failed.<status>], the
    status in lower case ([txn.failed.estale], [txn.failed.ebusy], ...). *)

(** {1 Agents} *)

val agent_pass_begin : now:int -> cpu:int -> eid:int -> int
(** Opens a pass span and makes it the current transaction parent.
    Returns the span id (0 when disabled). *)

val agent_pass_end : now:int -> began:int -> id:int -> nmsgs:int -> ntxns:int -> unit

val agent_attached : now:int -> eid:int -> tid:int -> unit
val agent_crash : now:int -> eid:int -> unit

(** {1 Enclave lifecycle} *)

val enclave_created : now:int -> eid:int -> ncpus:int -> unit

val enclave_destroyed : now:int -> eid:int -> reason:string -> unit
(** Also bumps the per-reason counter
    ([enclave.destroyed.explicit|watchdog|agent_crash]) so the metrics —
    and the Perfetto export embedding them — carry destroy-reason counts,
    not just enclave stats. *)

val watchdog_fire : now:int -> eid:int -> tid:int -> unit

val enclave_resized : now:int -> eid:int -> cpu:int -> added:bool -> unit
(** Instant ["cpu-added"]/["cpu-taken"] on the enclave's track plus the
    [enclave.resizes] counter — one per {!System.add_cpu}/[remove_cpu]. *)

(** {1 Fault injection (lib/faults)} *)

val fault_injected : now:int -> eid:int -> kind:string -> unit
(** Instant ["fault:<kind>"] on the enclave's track, so a trace shows the
    injected fault, the watchdog fire and the handoff on one timeline. *)

(** {1 BPF fastpath (§3.5)}

    Hot-path writers ([bpf_hit]/[bpf_miss]/[bpf_fallback]) are zero-alloc
    int-packed instants on the enclave track, named per hook point
    (["bpf-hit:wakeup"] etc.), and bump the [bpf.picks]/[bpf.misses]/
    [bpf.fallbacks] counters.  [hook] is the {!Bpf.Prog.hook_index} of the
    hook that ran (0 = wakeup, 1 = tick, 2 = pick). *)

val bpf_hit : now:int -> eid:int -> hook:int -> cpu:int -> tid:int -> unit
val bpf_miss : now:int -> eid:int -> hook:int -> cpu:int -> tid:int -> unit
val bpf_fallback : now:int -> eid:int -> hook:int -> cpu:int -> unit

(** {1 Frames (hybrid P/E scenarios)} *)

val frame_done : now:int -> stream:int -> dur:int -> missed:bool -> unit
(** One frame completed: instant ["frame-done"]/["frame-missed"] on the
    global track, [dur] observed into the [frames.time_ns] histogram, and
    the [frames.completed]/[frames.missed] counters bumped. *)

val bpf_installed : now:int -> eid:int -> hook:int -> name:string -> unit
(** Structured instant ["bpf-install"]; bumps [bpf.installs]. *)

val bpf_verifier_reject : now:int -> eid:int -> name:string -> reason:string -> unit
(** Structured instant ["bpf-verifier-reject"]; bumps [bpf.verifier_rejects]. *)
