(** Metric instruments: counters, gauges, histograms.  An instrument
    is a mutable cell; recording is a field update.  Naming and export
    live in {!Registry}. *)

type labels = (string * string) list

type counter = private {
  c_name : string;
  c_labels : labels;
  count : int Atomic.t;
      (** atomic so counters shared between (preemptible) threads stay
          exact; read through {!value} *)
}

type gauge = private {
  g_name : string;
  g_labels : labels;
  cell : float Atomic.t;
      (** atomic for the same reason; read through {!get} *)
}

(** Histograms are lock-free: every cell is atomic, so server worker
    threads observe into one shared instrument (request phases, lock
    profiles) without a guarding mutex.  Read the aggregates through
    the accessors below ({!count}, {!sum}, {!bucket_count}, …). *)
type histogram = private {
  h_name : string;
  h_labels : labels;
  bounds : float array;
  counts : int Atomic.t array;
  ex_seq : int Atomic.t array;
      (** per-bucket exemplar: flight-recorder seq of the last span
          that landed in the bucket, [-1] while the bucket has none *)
  ex_val : float Atomic.t array;  (** the exemplar's observed value *)
  h_sum : float Atomic.t;
  h_n : int Atomic.t;
  h_min : float Atomic.t;  (** [infinity] while empty *)
  h_max : float Atomic.t;  (** [neg_infinity] while empty *)
}

type sample = Counter of counter | Gauge of gauge | Histogram of histogram

val counter : ?labels:labels -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : ?labels:labels -> string -> gauge
val set : gauge -> float -> unit
val get : gauge -> float

val add_gauge : gauge -> float -> unit
(** Atomically add a delta; safe from any thread (CAS retry loop). *)

val default_bounds : float array

val latency_bounds_us : float array
(** 1-2-5 ladder from 1 µs to 5 s, the bounds of the per-operator
    [op.latency_us] histograms. *)

val histogram : ?labels:labels -> ?bounds:float array -> string -> histogram

val observe : ?exemplar:int -> histogram -> float -> unit
(** Record an observation — lock-free, safe from any thread.
    [exemplar] is a flight-recorder event seq ({!Recorder.record});
    when [>= 0] the target bucket remembers it (last-writer-wins) and
    {!Registry.expose} renders it as an OpenMetrics exemplar. *)

val count : histogram -> int
(** Observations recorded so far. *)

val sum : histogram -> float

val bucket_count : histogram -> int -> int
(** Count in bucket [i] (non-cumulative); bucket [length bounds] is
    the overflow bucket. *)

val exemplar_seq : histogram -> int -> int
(** Bucket [i]'s exemplar recorder seq, [-1] while the bucket has
    none. *)

val exemplar_value : histogram -> int -> float

val min_raw : histogram -> float
(** Tracked minimum, [infinity] while empty (the raw sentinel — the
    digest persistence round-trips it; display code wants
    {!min_value}). *)

val max_raw : histogram -> float
(** Tracked maximum, [neg_infinity] while empty. *)

val mean : histogram -> float

val min_value : histogram -> float
(** Smallest observation, 0 while empty. *)

val max_value : histogram -> float
(** Largest observation, 0 while empty. *)

val quantile : histogram -> float -> float option
(** Approximate quantile: linear interpolation inside the bucket
    holding the target rank, with the tracked min/max as the outermost
    bucket edges (so a long tail beyond the last bound reports its
    true maximum).  [None] while the histogram is empty. *)

val absorb :
  histogram ->
  counts:int array ->
  sum:float ->
  n:int ->
  min_v:float ->
  max_v:float ->
  unit
(** Merge a persisted snapshot (bucket counts over the same bounds
    ladder, plus sum/n/min/max) into a live histogram.  Exemplars are
    untouched — a merged-in count has no recorder event behind it. *)

val reset : sample -> unit
val name : sample -> string
val labels : sample -> labels
val pp_labels : Format.formatter -> labels -> unit
val pp : Format.formatter -> sample -> unit
