(** Flight recorder: a fixed-size, overwrite-oldest ring buffer of
    typed engine events, always on at near-zero cost.

    Slots are preallocated records; recording claims a unique sequence
    number with an atomic cursor, so connection threads and the main
    thread record concurrently without locks.  The retained
    window drains on demand to Chrome trace-event JSON loadable in
    Perfetto or [about://tracing] ([madql query --trace FILE], repl
    [:trace], [madql trace], [MAD_OBS_TRACE=FILE], or automatically
    when a root span errors).

    Environment knobs:
    {v
    MAD_OBS_RING=N      ring capacity (rounded up to a power of two;
                        default 8192; 0 disables recording)
    MAD_OBS_TRACE=FILE  dump the Chrome trace to FILE at exit and
                        whenever a root span errors
    v} *)

type kind =
  | Span_begin  (** a span opened; [label] = span name *)
  | Span_end
      (** a span closed; [label] = name, [dur_ns] = duration, [a] =
          the matching begin's seq, [b] = 1 when the span errored *)
  | Wal_append  (** a WAL record hit the OS; [label] = wal tag, [a] = framed bytes *)
  | Wal_fsync  (** [dur_ns] = fsync latency; [label] = wal tag *)
  | Group_commit  (** statement commit; [a] = WAL records so far *)
  | Snapshot_build
      (** a kernel CSR / type index / durable snapshot was built;
          [label] = target, [a]/[b] = rows/cells *)
  | Snapshot_invalidate  (** mutation epoch bump; [a] = new epoch *)
  | Snapshot_delta
      (** a CSR snapshot was delta-repaired instead of rebuilt;
          [label] = atom/link-type target ("*" for the whole
          snapshot), [a] = raw patches applied, [b] = entries
          patched or shared *)
  | Closure_repair
      (** a memoized closure survived a mutation window; [label] =
          link type, [a] = dirty nodes recomputed (0 = re-stamped
          wholesale), [b] = total nodes *)
  | Kernel_run
      (** one kernel derivation; [label] = root type or ["closure"],
          [a] = roots, [b] = plan nodes *)
  | Recovery_replay  (** one WAL record replayed; [a] = recno, [b] = bytes *)
  | Plan_switch
      (** a statement fingerprint changed plans; [label] = fingerprint
          hex, [a]/[b] = old/new plan hash *)
  | Slow_query
      (** a statement crossed the slow-log threshold; [label] =
          fingerprint hex, [a] = elapsed ms *)
  | Probe_fired
      (** a timeline anomaly probe started firing; [label] = probe id
          ("latency:fp" …), [a]/[b] = rounded value/baseline *)
  | Serve_conn
      (** a server connection opened or closed; [label] = peer
          address, [a] = connection id, [b] = 1 open / 0 close *)
  | Serve_request
      (** one served request; [label] = opcode name, [a] = connection
          id, [b] = response status, [dur_ns] = service time *)
  | Serve_phase
      (** one phase of a served request (lock wait, execution, fsync
          wait, …); [label] = phase name, [a] = the request's
          [Serve_request] seq, [b] = connection id, [dur_ns] = phase
          duration — together the phases partition the request's
          service time *)

val kind_name : kind -> string
(** Stable dotted name ("wal.fsync", "kernel.run", …) used as the
    Chrome-trace category. *)

type event = {
  mutable e_seq : int;  (** global sequence number; [-1] = empty/torn *)
  mutable e_kind : kind;
  mutable e_ticks : int;  (** {!Monotonic.ticks} at record time *)
  mutable e_dur_ns : int;  (** duration, 0 for instants *)
  mutable e_thread : int;  (** recording thread id ([Thread.id]) *)
  mutable e_label : string;
  mutable e_a : int;  (** kind-specific payload *)
  mutable e_b : int;
}

type t

val create : int -> t
(** [create capacity] — capacity is rounded up to a power of two,
    minimum 2.  The ring starts enabled. *)

val capacity : t -> int
val recorded : t -> int
(** Total events ever recorded (not the retained count). *)

val record :
  t ->
  kind ->
  ?ticks:int ->
  ?dur_ns:int ->
  ?label:string ->
  ?a:int ->
  ?b:int ->
  unit ->
  int
(** Record one event; returns its sequence number, or [-1] when the
    ring is disabled.  Lock-free and safe from any thread or domain.  [ticks]
    lets a caller that already read {!Monotonic.ticks} donate the
    reading instead of paying a second clock read. *)

val drain : t -> event list
(** Snapshot the retained window, oldest first.  Slots caught
    mid-write by a wrapping concurrent writer are skipped. *)

(** {1 The global ring}

    One process-wide ring, sized by [MAD_OBS_RING], shared by every
    subsystem.  All the engine instrumentation below records here. *)

val global : unit -> t
val enabled : unit -> bool
val set_enabled : bool -> unit
(** Toggle recording (the overhead benchmark uses this). *)

val note : kind -> ?dur_ns:int -> ?label:string -> ?a:int -> ?b:int -> unit -> unit
(** [record] on the global ring, discarding the seq. *)

val span_begin : ticks:int -> string -> int
(** Journal a span open; returns the seq threaded to {!span_end} and
    used as the histogram exemplar, [-1] when disabled.  [ticks] is
    the caller's clock reading (it needs one anyway for the
    duration). *)

val span_end :
  ticks:int -> seq:int -> dur_ns:int -> error:bool -> string -> unit

val dump_on_error : unit -> unit
(** Dump the global ring to [MAD_OBS_TRACE] if set (else no-op);
    called by [Obs.with_span] when a root span errors. *)

(** {1 Chrome trace-event export} *)

val to_chrome : t -> Json.t
(** Drain and render as a Chrome trace-event object
    ([{"traceEvents": [...]}]): one track per recording thread plus
    synthetic [wal] and [planner] tracks, complete ("X") events for
    everything carrying a duration, instants ("i") for the rest.
    Timestamps are microseconds relative to the oldest retained
    event. *)

val dump : t -> string -> unit
(** [dump t path] writes {!to_chrome} to [path] (truncating). *)
