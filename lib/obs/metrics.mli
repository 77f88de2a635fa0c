(** Metrics registry: named counters, gauges and histograms.

    Any module may register a metric by name; registration is idempotent
    (the same name returns the same instrument) and handles are plain
    mutable cells, so hot-path updates are a single store.  [snapshot]
    produces a stable, name-sorted view suitable for machine consumption;
    [snapshot_json] serializes it.

    The registry is global and survives across simulated kernels — callers
    that want per-run numbers call {!reset} between runs (values are
    zeroed, registrations and handles stay valid). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get or register the named counter.  Raises [Invalid_argument] if the
    name is already registered as a different kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> int -> unit

val histogram : string -> histogram
(** Log-bucketed ({!Gstats.Histogram}) distribution, e.g. of latencies. *)

val observe : histogram -> int -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type value =
  | Counter of int
  | Gauge of int
  | Histogram of hist_snapshot

val snapshot : unit -> (string * value) list
(** All registered metrics, sorted by name. *)

val snapshot_json : unit -> Json.t
(** Object keyed by metric name; counters/gauges as numbers, histograms as
    [{count, sum, mean, p50, p90, p99, max}] objects. *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)
