(** The metrics registry: get-or-create instruments by (name, labels).
    Each MOL session / EXPLAIN ANALYZE run owns one, isolating its
    actual counters.

    Registration and enumeration are thread-safe (a mutex guards the
    table), so the timeline's background sampler thread can snapshot
    while the statement path registers new instruments.  Instrument
    {e mutation} (Metric.incr etc.) is lock-free; concurrent readers
    may observe slightly stale values, never torn ones. *)

type t

val create : unit -> t

val counter : ?labels:Metric.labels -> t -> string -> Metric.counter
(** Get or create; raises [Invalid_argument] if the name is already
    registered as a different instrument kind (same for the others). *)

val gauge : ?labels:Metric.labels -> t -> string -> Metric.gauge
val histogram : ?labels:Metric.labels -> ?bounds:float array -> t -> string -> Metric.histogram

val find : t -> ?labels:Metric.labels -> string -> Metric.sample option

val counter_value : t -> ?labels:Metric.labels -> string -> int
(** The counter's value, or 0 when absent (or not a counter). *)

val to_list : t -> Metric.sample list
(** All samples in registration order. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit

val expose : t -> string
(** Prometheus text exposition of every registered sample: [# TYPE]
    comments, counters and gauges as single lines, histograms as
    cumulative [_bucket{le=...}] lines plus [_sum] and [_count].
    Dotted metric names are mapped to underscores ([op.latency_us] →
    [op_latency_us]); label values are escaped per the format. *)
