(** The observability context: one metrics registry plus the depth of
    the spans open on it.

    The engine threads a context through its layers (session ->
    executor -> derivation); code that was not handed one records
    against {!noop}, whose counters nobody reads — the instrumentation
    points stay unconditional while the disabled cost stays at a few
    field updates.

    Spans are stored in one place only: the global flight-recorder
    ring ({!Recorder}), exported as a Chrome trace by [MAD_OBS_TRACE],
    [--trace] and [madql trace].  Metrics are configured by the
    [MAD_OBS] environment variable (see {!of_env}):
    {v
    MAD_OBS=           (unset, "", "off", "none")  metrics stay in-process
    MAD_OBS=prom:FILE  Prometheus text written to FILE on exit
    v} *)

type t = {
  registry : Registry.t;
  mutable depth : int;
      (** spans open on this context; an errored span closing at depth
          0 is a root and triggers the flight-recorder dump.
          Deliberately non-atomic: a context belongs to one session on
          one thread. *)
  mutable last_closed : int;
      (** flight-recorder seq of the most recently closed span, [-1]
          before any *)
  mutable last_dur_us : float;
      (** duration of the most recently completed {!timed} operation,
          [-1] before any.  The workload digest reads it instead of
          taking its own clock pair around a statement. *)
}

let create () =
  let t =
    { registry = Registry.create (); depth = 0; last_closed = -1;
      last_dur_us = -1.0 }
  in
  (* register the runtime.* GC/heap gauges up front so they ride
     [Registry.expose] and [madql stats] even without a timeline *)
  Timeline.update_runtime t.registry;
  t

(** The shared disabled context. *)
let noop = create ()

let registry t = t.registry
let last_seq t = if Recorder.enabled () then t.last_closed else -1
let last_dur_us t = t.last_dur_us
let is_noop t = t == noop

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

(* The one span body: a single [Monotonic.ticks] pair stamps the
   recorder's begin/end events and, for {!timed}, the [h] observation
   (with the span's seq as its exemplar — [-1] while the ring is off,
   so no stale seq is attached). *)
let span t name h f =
  let t0 = Monotonic.ticks () in
  let seq = Recorder.span_begin ~ticks:t0 name in
  t.depth <- t.depth + 1;
  let finish ~error =
    let t1 = Monotonic.ticks () in
    Recorder.span_end ~ticks:t1 ~seq ~dur_ns:(t1 - t0) ~error name;
    t.last_closed <- seq;
    t.depth <- t.depth - 1;
    (match h with
     | Some h ->
       let dur = float_of_int (t1 - t0) /. 1e3 in
       t.last_dur_us <- dur;
       Metric.observe ~exemplar:seq h dur
     | None -> ());
    (* an errored root is exactly when a post-mortem wants the flight
       recorder: dump to MAD_OBS_TRACE if configured *)
    if error && t.depth = 0 then Recorder.dump_on_error ()
  in
  match f () with
  | v ->
    finish ~error:false;
    v
  | exception e ->
    finish ~error:true;
    raise e

let with_span t name f = if t == noop then f () else span t name None f

let timed t name f =
  if t == noop then f ()
  else
    span t name
      (Some
         (Registry.histogram
            ~labels:[ ("op", name) ]
            ~bounds:Metric.latency_bounds_us t.registry "op.latency_us"))
      f

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let counter ?labels t name = Registry.counter ?labels t.registry name
let gauge ?labels t name = Registry.gauge ?labels t.registry name
let histogram ?labels ?bounds t name = Registry.histogram ?labels ?bounds t.registry name

(* ------------------------------------------------------------------ *)
(* Environment configuration                                            *)

let of_env () =
  match Option.map String.trim (Sys.getenv_opt "MAD_OBS") with
  | None | Some ("" | "off" | "none" | "0") -> create ()
  | Some spec
    when String.starts_with ~prefix:"prom:" spec && String.length spec > 5 ->
    (* the registry is flushed as Prometheus text when the process
       exits *)
    let path = String.sub spec 5 (String.length spec - 5) in
    let t = create () in
    at_exit (fun () ->
        try
          let oc = open_out path in
          output_string oc (Registry.expose t.registry);
          close_out oc
        with Sys_error e ->
          Printf.eprintf "mad_obs: could not write %s: %s\n%!" path e);
    t
  | Some other ->
    Printf.eprintf
      "mad_obs: unknown MAD_OBS value %S (expected off or prom:FILE; spans \
       are exported with MAD_OBS_TRACE=FILE)\n%!"
      other;
    create ()

(* thread-safe: the first [default] call can come from any thread *)
let default = Once.make of_env
let default () = Once.force default
