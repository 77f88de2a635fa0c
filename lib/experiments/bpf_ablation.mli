(** BPF fastpath ablation (§3.5): wakeup-to-dispatch latency at high load.

    A Shinjuku agent on a small enclave schedules 10 us requests near
    saturation, with a deliberately slow agent loop so scheduling gaps are
    visible.  In the agent-only configuration a freshly idle CPU waits for
    the agent's next pass before it can serve queued work; with the BPF
    tier installed it pops the pick ring (and wakeups place directly onto
    idle CPUs) without a round-trip.  Both configurations see bit-identical
    offered traffic — [offered] in the rows proves it — so the
    wakeup→dispatch histogram isolates the delegation cost the paper's §5
    expedited path removes. *)

type row = {
  label : string;
  offered : int;  (** Requests generated; equal across configs by construction. *)
  completed : int;
  wd_count : int;  (** Wakeup→dispatch samples in the measured window. *)
  wd_p50_us : float;
  wd_p99_us : float;
  sojourn_p99_us : float;
  sojourn_mean_us : float;
  throughput_kqps : float;
  bpf_picks : int;
  bpf_misses : int;
  bpf_fallbacks : int;
  minor_words : float;
      (** Host minor-heap words allocated over the measured window: a
          deterministic count for a given build, not a simulated cost. *)
}

val run : ?duration_ns:int -> ?rate:float -> ?seed:int -> unit -> row list
(** [agent-only; fastpath] rows under identical offered traffic. *)

val print : row list -> unit

(** {1 No-program identity control} *)

type identity = {
  id_completed : int;
  id_p50_ns : int;
  id_p99_ns : int;
  id_mean_ns : float;
  id_commits : int;
  id_msgs : int;
  id_ctx_switches : int;
}

val run_identity : unit -> identity
(** The pre-BPF reference configuration (centralized FIFO, no program
    installed).  The bench compares the result against baked-in constants
    captured before the fastpath tier landed: with no program installed the
    engine must reproduce them exactly. *)
