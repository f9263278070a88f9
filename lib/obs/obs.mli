(** The observability context: a metrics registry and the depth of the
    spans open on it.  Threaded through the engine layers; {!noop} is
    the shared disabled context for code that was not handed one.

    Spans are stored only in the global flight-recorder ring
    ({!Recorder}); [MAD_OBS_TRACE], [--trace] and [madql trace] export
    it as a Chrome trace.  [MAD_OBS] configures metrics export: [off]
    (default) or [prom:FILE]. *)

type t

val create : unit -> t

val noop : t
(** Shared disabled context: spans are neither journaled nor timed.
    Counters created against it still count (cheaply) but are never
    exported. *)

val registry : t -> Registry.t

val last_seq : t -> int
(** Flight-recorder seq of the most recently closed span on this
    context, usable as a histogram exemplar; [-1] before any span
    closed or while the ring is disabled (a stale seq must not be
    attached to fresh observations). *)

val last_dur_us : t -> float
(** Duration of the most recently completed {!timed} operation on this
    context, [-1] before any.  Lets a caller that just ran work under
    {!timed} reuse its measurement instead of reading the clock
    again. *)

val is_noop : t -> bool
(** True for the shared {!noop} context (which never times, so
    {!last_dur_us} stays [-1] on it). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the function inside a span: its open and close journal to the
    global {!Recorder} ring, stamped by one {!Monotonic.ticks} pair.
    Exception-safe; an escaping exception flags the close event as an
    error.  When an errored root span (one not nested in another span
    on this context) closes and [MAD_OBS_TRACE] is set, the ring is
    dumped ({!Recorder.dump_on_error}).  On {!noop} the function simply
    runs. *)

val counter : ?labels:Metric.labels -> t -> string -> Metric.counter
val gauge : ?labels:Metric.labels -> t -> string -> Metric.gauge
val histogram : ?labels:Metric.labels -> ?bounds:float array -> t -> string -> Metric.histogram

val timed : t -> string -> (unit -> 'a) -> 'a
(** {!with_span} plus a latency record: the span's duration (the same
    clock pair) lands in the registry's [op.latency_us] histogram
    labeled [op=name], also when the function raises.  The observation
    carries the span's flight-recorder seq as its bucket exemplar, so
    [madql stats] can link a latency bucket to a trace event.  The
    engine's operator instrumentation points use this. *)

val of_env : unit -> t
(** Build a context from the [MAD_OBS] environment variable; unknown
    values warn on stderr and fall back to [off].  [prom:FILE] writes
    the registry's Prometheus text to FILE on exit. *)

val default : unit -> t
(** The lazily-created process-wide context per {!of_env}. *)
