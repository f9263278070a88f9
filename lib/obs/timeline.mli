(** The telemetry timeline: a fixed-interval sampler that snapshots a
    metrics registry (counter values, gauge levels, histogram
    count/sum) plus the [runtime.*] GC/heap gauges into a ring of
    timestamped {e frames}, runs the {!Probe} anomaly detectors over
    frame-to-frame deltas, and folds the firing set into a process
    {e health} verdict.

    The global timeline ticks from [Mad_mql.Session.run] (interval
    gated) and, optionally, from a background thread, both configured
    by the [MAD_OBS_TICK] environment variable:
    {v
    MAD_OBS_TICK=SECS     enable: sample every SECS seconds, driven by
                          statement execution
    MAD_OBS_TICK=SECS:bg  also spawn a background sampler thread, so
                          frames keep arriving while the engine idles
    v}
    Frames persist as [timeline.mad] beside a durable store's WAL, so
    history (and probe baselines) survive restarts.

    Probes maintained by {!tick}:
    - [latency] per digest fingerprint — mean [digest.latency_us]
      per frame window regressing against its EWMA baseline
    - [plan-switch] — [plan.switch] counter delta per frame (a storm
      of replans)
    - [invalidation] — [runtime.db_epoch] delta per frame (snapshot
      invalidation thrash)
    - [heap] — [runtime.heap_words] level growing past its baseline
    - [queue-saturation] — the server's [serve.queue_peak_pct]
      admission-queue high watermark (read-and-rearmed every tick);
      trips on the first window past half capacity so health degrades
      {e before} typed-busy rejections start
    - [lock-contention] — engine-lock wait/hold ratio (%) aggregated
      over the [serve.lock.*_us] class histograms' window deltas
    - [fsync-stall] — the [runtime.wal_fsync_us] mean regressing
      against its baseline

    A probe's ok->firing transition journals a
    {!Recorder.Probe_fired} event and bumps the registry's
    [probe.fired] counter; the aggregate verdict lands in the
    [health.state] gauge (0 ok / 1 degraded / 2 unhealthy). *)

type kind = Counter | Gauge | Hist

type point = {
  p_name : string;
  p_labels : (string * string) list;
  p_kind : kind;
  p_value : float;
      (** counter value / gauge level / histogram observation count *)
  p_sum : float;  (** histogram sum; [0.0] for the other kinds *)
}

type frame = {
  f_seq : int;  (** monotonic frame number *)
  f_unix : float;  (** {!Monotonic.clock} seconds at sample time *)
  f_ticks : int;  (** {!Monotonic.ticks} at sample time *)
  f_points : point array;
}

val flat_key : point -> string
(** ["name{k=v,...}"] — the frame-delta and persistence key. *)

(** {1 Health} *)

type health = Ok | Degraded | Unhealthy

val health_name : health -> string  (** "ok" / "degraded" / "unhealthy" *)

val health_exit : health -> int
(** The CLI exit-code contract: 0 ok, 1 degraded, 2 unhealthy. *)

(** {1 Timelines} *)

type t

val create : ?capacity:int -> ?interval:float -> unit -> t
(** [capacity] frames retained (default 512, minimum 2); [interval]
    seconds between interval-gated ticks (default 1.0). *)

val capacity : t -> int
val interval : t -> float

val frames : t -> frame list
(** Retained frames, oldest first.  Like every reader and export below,
    takes the timeline's lock, so a snapshot is consistent even while
    the background sampler thread ticks. *)

val sampled : t -> int
(** Total frames ever sampled (not the retained count). *)

val last : t -> frame option

val update_runtime : ?epoch:int -> Registry.t -> unit
(** Get-or-create the [runtime.*] gauges in the registry and set them
    from [Gc.quick_stat]: [runtime.heap_words], [runtime.top_heap_words],
    [runtime.minor_words], [runtime.promoted_words],
    [runtime.gc_minor_collections], [runtime.gc_major_collections],
    [runtime.gc_compactions], plus [runtime.db_epoch] when [epoch] is
    given.  [Obs.create] registers them at context creation so they
    ride [Registry.expose] even without a timeline. *)

val tick : ?epoch:int -> t -> Registry.t -> frame
(** Sample now: refresh the runtime gauges (including the
    [runtime.wal_fsync_us] window mean drawn from the flight
    recorder), snapshot the registry into a frame, push it onto the
    ring, run the probes over the delta to the previous frame, and
    publish [health.state].  Thread-safe (a mutex serializes ticks
    from the background thread and the statement path). *)

val maybe_tick : ?epoch:int -> t -> Registry.t -> bool
(** {!tick} if at least [interval] seconds passed since the last
    frame; [true] when a frame was taken. *)

val delta : prev:frame -> frame -> (string * float) list
(** Per-key increase of counters and histogram counts between two
    frames, keyed by {!flat_key}.  A monotonic value that went
    {e backwards} (instrument reset, process restart) contributes its
    current value — the delta is clamped the way Prometheus [rate()]
    handles counter resets, never negative. *)

val probes : t -> Probe.t list
(** All probes, creation order. *)

val health : t -> health
(** 0 firing probes = [Ok], 1 = [Degraded], 2+ = [Unhealthy]. *)

(** {1 The global timeline} *)

val configure :
  ?capacity:int -> ?interval:float -> ?background:bool -> unit -> t
(** Install (or return) the process-global timeline; [background]
    starts the sampler thread.  Explicit configuration wins over
    [MAD_OBS_TICK]. *)

val active : unit -> t option
(** The global timeline, initializing it from [MAD_OBS_TICK] on first
    call; [None] while neither the env var nor {!configure} enabled
    it. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Pause/resume global ticking (the overhead benchmark toggles
    this); {!configure} re-enables. *)

val auto_tick : ?epoch:int -> Registry.t -> unit
(** The statement-path hook ([Session.run]): interval-gated tick of
    the global timeline against [registry]; near-free while the
    timeline is unconfigured or disabled.  Also remembers [registry]
    as the background thread's sampling source. *)

val stop_background : unit -> unit
(** Ask the background sampler thread (if any) to exit.  A later
    [configure ~background:true] spawns a fresh one. *)

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"frames": [...], "health": ..., "probes": [...]}]. *)

val to_csv : t -> string
(** Long-format CSV: [frame,unix,ticks,kind,name,labels,value,sum]. *)

val health_json : t -> Json.t
(** [{"state", "exit", "frames", "probes": [...]}] — the
    [madql health --json] document. *)

val pp_dashboard : Format.formatter -> t -> unit
(** The [madql top] / repl [:top] rendering: health, runtime gauges,
    busiest counter rates over the last frame interval, probe table. *)

(** {1 Persistence ([timeline.mad])} *)

val to_string : t -> string
(** Serialize as [timeline.mad] in the [.mad] word syntax: metric
    names and label keys/values are quoted strings, so any registered
    name/label round-trips through {!merge_string}. *)

val merge_string : warn:(string -> unit) -> t -> string -> bool
(** Merge serialized frames (appended behind any live frames, ring
    semantics apply) and probe baselines into [t] under
    {!Mad_store.Serialize.read_advisory}'s policy: [false] on a bad
    header, malformed records skipped with one warning. *)

val save : t -> string -> unit
(** Write atomically. *)

val load : t -> string -> bool
(** Merge the timeline file at [path] into [t]; [false] when absent
    or ignored. *)
