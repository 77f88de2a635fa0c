(* The metrics the benchmark reports, as BENCHMARK.json lists them.

   End-to-end metrics are what a user of the simulator sees (host clock) or
   what the modelled ghOSt machine achieves (simulated clock).  Ratios over
   the simulator's own event count are per-layer only: a change that
   removes events (say, idle polls of a spinning agent) makes every run
   faster yet raises words/event, so such a ratio must never gate a
   change. *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  per_event : bool;  (* normalised by the simulator's event count *)
}

let m ?(per_event = false) name unit_ better =
  { name; unit_; higher_is_better = better = `Higher; per_event }

let end_to_end =
  [
    m "sim_s_per_host_s" "ratio" `Higher;
    m "setup_s" "s" `Lower;
    m "peak_heap_mb" "MB" `Lower;
    m "sim_p50_us" "us" `Lower;
    m "sim_p99_us" "us" `Lower;
    m "sim_goodput_kqps" "kq/s" `Higher;
  ]

let share l = m (l ^ ".self_share") "fraction" `Lower

let per_layer =
  [
    share "sim";
    m "sim.events" "count" `Lower;
    m ~per_event:true "sim.events_per_host_s" "1/s" `Higher;
    share "kernel";
    m "kernel.ctx_switches" "1/ms" `Lower;
    m "kernel.ipis" "1/ms" `Lower;
    m "kernel.wakeups" "1/ms" `Lower;
    m "kernel.reschedules" "1/ms" `Lower;
    m "kernel.wd_p50_us" "us" `Lower;
    m "kernel.wd_p99_us" "us" `Lower;
    share "core";
    m "core.msgs_produced" "count" `Lower;
    m "core.msg_queue_delay_p99_us" "us" `Lower;
    m "core.txn_committed" "count" `Higher;
    m "core.txn_failed" "count" `Lower;
    m "core.txn_fail_frac" "fraction" `Lower;
    m "core.txn_commit_p99_us" "us" `Lower;
    share "policies";
    m "policies.passes" "count" `Lower;
    m "policies.host_ns_per_pass" "ns" `Lower;
    m "policies.pass_p99_us" "us" `Lower;
    share "bpf";
    m "bpf.picks" "count" `Higher;
    m "bpf.misses" "count" `Lower;
    m "bpf.fallbacks" "count" `Lower;
    m "bpf.misses_per_pick" "ratio" `Lower;
    share "workloads";
    m "workloads.offered" "count" `Higher;
    m "workloads.completed" "count" `Higher;
    m "workloads.incomplete_frac" "fraction" `Lower;
    share "obs";
    m "obs.trace_overhead" "ratio" `Lower;
    m "obs.ring_dropped" "count" `Lower;
    share "cluster";
    m "cluster.events" "count" `Lower;
    m "cluster.rebalances" "count" `Lower;
    share "scenario";
    m "scenario.start_s" "s" `Lower;
    m "scenario.finish_s" "s" `Lower;
    m ~per_event:true "gc.minor_words_per_event" "words" `Lower;
    m ~per_event:true "gc.promoted_words_per_event" "words" `Lower;
    m "gc.major_collections" "count" `Lower;
    share "stats";
    share "hw";
    share "faults";
    share "other";
    m "sampler.samples" "count" `Higher;
  ]

