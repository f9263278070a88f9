(** The flight recorder: a fixed-size, overwrite-oldest ring of typed
    engine events, always on at near-zero cost.

    Design: every slot is a preallocated mutable record; recording
    claims a unique sequence number with [Atomic.fetch_and_add] and
    writes the slot [seq land mask] — connection threads, the background
    sampler and the main thread record concurrently without locks, and a
    ring at least as large as the burst loses nothing (each event gets
    its own slot).  Under wraparound the writer marks the slot torn
    ([e_seq <- -1]) before filling it and stamps the final [e_seq] last,
    so {!drain} can skip slots caught mid-write instead of emitting a
    franken-event.

    The journal is diagnostic, not transactional: a reader racing a
    wrapping writer may drop the oldest few events.  That is the
    flight-recorder trade — bounded memory, no backpressure on the
    engine — and it is why every exported event is self-contained
    (span ends carry their duration rather than pairing with a begin
    that may have been overwritten). *)

type kind =
  | Span_begin
  | Span_end
  | Wal_append
  | Wal_fsync
  | Group_commit
  | Snapshot_build
  | Snapshot_invalidate
  | Snapshot_delta
  | Closure_repair
  | Kernel_run
  | Recovery_replay
  | Plan_switch
  | Slow_query
  | Probe_fired
  | Serve_conn
  | Serve_request
  | Serve_phase

let kind_name = function
  | Span_begin -> "span.begin"
  | Span_end -> "span.end"
  | Wal_append -> "wal.append"
  | Wal_fsync -> "wal.fsync"
  | Group_commit -> "wal.group_commit"
  | Snapshot_build -> "snapshot.build"
  | Snapshot_invalidate -> "snapshot.invalidate"
  | Snapshot_delta -> "snapshot.delta"
  | Closure_repair -> "closure.repair"
  | Kernel_run -> "kernel.run"
  | Recovery_replay -> "recovery.replay"
  | Plan_switch -> "plan.switch"
  | Slow_query -> "slow.query"
  | Probe_fired -> "probe.fired"
  | Serve_conn -> "serve.conn"
  | Serve_request -> "serve.request"
  | Serve_phase -> "serve.phase"

type event = {
  mutable e_seq : int;  (** global sequence number; [-1] = empty/torn *)
  mutable e_kind : kind;
  mutable e_ticks : int;  (** {!Monotonic.ticks} at record time *)
  mutable e_dur_ns : int;  (** duration, 0 for instants *)
  mutable e_thread : int;  (** recording thread id ([Thread.id]) *)
  mutable e_label : string;  (** span name / WAL tag / snapshot target *)
  mutable e_a : int;  (** kind-specific payload (bytes, roots, recno…) *)
  mutable e_b : int;  (** second payload (nodes, hi, error flag…) *)
}

type t = {
  events : event array;
  mask : int;  (** [Array.length events - 1]; the length is a power of two *)
  cursor : int Atomic.t;  (** total events ever recorded = next seq *)
  on : bool Atomic.t;
}

let empty_event () =
  {
    e_seq = -1;
    e_kind = Span_begin;
    e_ticks = 0;
    e_dur_ns = 0;
    e_thread = 0;
    e_label = "";
    e_a = 0;
    e_b = 0;
  }

let copy_event ev =
  {
    e_seq = ev.e_seq;
    e_kind = ev.e_kind;
    e_ticks = ev.e_ticks;
    e_dur_ns = ev.e_dur_ns;
    e_thread = ev.e_thread;
    e_label = ev.e_label;
    e_a = ev.e_a;
    e_b = ev.e_b;
  }

let create capacity =
  let capacity = max 2 capacity in
  let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
  let size = pow2 2 in
  {
    events = Array.init size (fun _ -> empty_event ());
    mask = size - 1;
    cursor = Atomic.make 0;
    on = Atomic.make true;
  }

let capacity t = Array.length t.events
let recorded t = Atomic.get t.cursor

let record t kind ?ticks ?(dur_ns = 0) ?(label = "") ?(a = 0) ?(b = 0) () =
  if not (Atomic.get t.on) then -1
  else begin
    let thread = Thread.id (Thread.self ()) in
    let seq = Atomic.fetch_and_add t.cursor 1 in
    let ev = t.events.(seq land t.mask) in
    ev.e_seq <- -1;
    ev.e_kind <- kind;
    ev.e_ticks <-
      (match ticks with Some tk -> tk | None -> Monotonic.ticks ());
    ev.e_dur_ns <- dur_ns;
    ev.e_thread <- thread;
    ev.e_label <- label;
    ev.e_a <- a;
    ev.e_b <- b;
    ev.e_seq <- seq;
    seq
  end

(** Snapshot the retained window, oldest first.  Slots being rewritten
    while we read (the wraparound race) are skipped: a copy counts only
    if the slot still holds the same [e_seq] after it was taken, since
    a writer marks the slot torn before touching any other field. *)
let drain t =
  let total = Atomic.get t.cursor in
  let lo = max 0 (total - Array.length t.events) in
  let out = ref [] in
  for seq = total - 1 downto lo do
    let ev = t.events.(seq land t.mask) in
    if ev.e_seq = seq then begin
      let c = copy_event ev in
      if ev.e_seq = seq then out := c :: !out
    end
  done;
  !out

(* ------------------------------------------------------------------ *)
(* The global ring                                                      *)

let default_capacity = 8192

let env_capacity () =
  match Option.map String.trim (Sys.getenv_opt "MAD_OBS_RING") with
  | None | Some "" -> Some default_capacity
  | Some s -> begin
    match int_of_string_opt s with
    | Some 0 -> None  (* MAD_OBS_RING=0 disables recording *)
    | Some n when n > 0 -> Some n
    | Some _ | None ->
      Printf.eprintf
        "mad_obs: ignoring invalid MAD_OBS_RING=%S (expected a size, 0=off)\n%!"
        s;
      Some default_capacity
  end

let trace_file () =
  match Option.map String.trim (Sys.getenv_opt "MAD_OBS_TRACE") with
  | None | Some "" -> None
  | some -> some

(* forward reference: [dump] is defined below, after the Chrome export *)
let dump_ref = ref (fun (_ : t) (_ : string) -> ())

(* the first recorder use can come from any thread — several server
   workers accepting their first connections at once — so the ring
   initializes through [Once], not a lazy (forcing one that another
   thread is forcing raises [Lazy.Undefined]) *)
let global_ring =
  Once.make (fun () ->
    let t =
       match env_capacity () with
       | Some n -> create n
       | None ->
         let t = create 2 in
         Atomic.set t.on false;
         t
     in
     (match trace_file () with
      | Some path ->
        at_exit (fun () ->
            if recorded t > 0 then
              try !dump_ref t path
              with Sys_error e ->
                Printf.eprintf "mad_obs: could not write %s: %s\n%!" path e)
      | None -> ());
     t)

let global () = Once.force global_ring
let enabled () = Atomic.get (global ()).on
let set_enabled b = Atomic.set (global ()).on b

let note kind ?dur_ns ?label ?a ?b () =
  ignore (record (global ()) kind ?dur_ns ?label ?a ?b ())

(* the caller passes its own clock reading so a journaled span costs
   two [Monotonic.ticks] reads in total, not four *)
let span_begin ~ticks name = record (global ()) Span_begin ~ticks ~label:name ()

let span_end ~ticks ~seq ~dur_ns ~error name =
  ignore
    (record (global ()) Span_end ~ticks ~dur_ns ~label:name ~a:seq
       ~b:(if error then 1 else 0)
       ())

(** Dump the global ring to [MAD_OBS_TRACE] (no-op when unset) — the
    error-autodump hook [Obs.with_span] fires when a root span fails. *)
let dump_on_error () =
  match trace_file () with
  | Some path -> begin
    try !dump_ref (global ()) path
    with Sys_error e ->
      Printf.eprintf "mad_obs: could not write %s: %s\n%!" path e
  end
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (Perfetto / about://tracing)               *)

(* synthetic track ids: thread ids count up from 0 as threads are
   created, so parking the WAL and planner tracks far above cannot
   collide *)
let wal_tid = 1 lsl 20
let planner_tid = wal_tid + 1

let tid_of ev =
  match ev.e_kind with
  | Wal_append | Wal_fsync | Group_commit | Recovery_replay -> wal_tid
  | Plan_switch -> planner_tid
  | _ -> ev.e_thread

let track_name tid =
  if tid = wal_tid then "wal"
  else if tid = planner_tid then "planner"
  else Printf.sprintf "thread %d" tid

(* "X" = complete event (ts + dur); everything else is an instant *)
let is_complete ev =
  match ev.e_kind with
  | Span_end | Wal_fsync | Group_commit | Snapshot_build | Snapshot_delta
  | Closure_repair | Kernel_run ->
    true
  | Serve_request | Serve_phase -> true
  | Span_begin | Wal_append | Snapshot_invalidate
  | Recovery_replay | Plan_switch | Slow_query | Probe_fired | Serve_conn ->
    false

let start_ticks ev = if is_complete ev then ev.e_ticks - ev.e_dur_ns else ev.e_ticks

let display_name ev =
  match ev.e_kind with
  | (Span_begin | Span_end) when ev.e_label <> "" -> ev.e_label
  | k -> kind_name k

let args_of ev =
  let num n = Json.Num (float_of_int n) in
  let common = [ ("seq", num ev.e_seq) ] in
  let specific =
    match ev.e_kind with
    | Span_begin -> []
    | Span_end -> if ev.e_b <> 0 then [ ("error", Json.Bool true) ] else []
    | Wal_append -> [ ("wal", Json.Str ev.e_label); ("bytes", num ev.e_a) ]
    | Wal_fsync -> [ ("wal", Json.Str ev.e_label) ]
    | Group_commit -> [ ("wal_records", num ev.e_a) ]
    | Snapshot_build ->
      [ ("target", Json.Str ev.e_label); ("rows", num ev.e_a);
        ("cells", num ev.e_b) ]
    | Snapshot_invalidate -> [ ("epoch", num ev.e_a) ]
    | Snapshot_delta ->
      [ ("target", Json.Str ev.e_label); ("patches", num ev.e_a);
        ("entries", num ev.e_b) ]
    | Closure_repair ->
      [ ("link", Json.Str ev.e_label); ("dirty", num ev.e_a);
        ("nodes", num ev.e_b) ]
    | Kernel_run ->
      [ ("target", Json.Str ev.e_label); ("roots", num ev.e_a);
        ("nodes", num ev.e_b) ]
    | Recovery_replay -> [ ("recno", num ev.e_a); ("bytes", num ev.e_b) ]
    | Plan_switch ->
      [ ("fingerprint", Json.Str ev.e_label);
        ("old_plan", Json.Str (Printf.sprintf "%x" ev.e_a));
        ("new_plan", Json.Str (Printf.sprintf "%x" ev.e_b)) ]
    | Slow_query ->
      [ ("fingerprint", Json.Str ev.e_label);
        ("ms", Json.Num (float_of_int ev.e_a)) ]
    | Probe_fired ->
      [ ("probe", Json.Str ev.e_label); ("value", num ev.e_a);
        ("baseline", num ev.e_b) ]
    | Serve_conn ->
      [ ("peer", Json.Str ev.e_label); ("conn", num ev.e_a);
        ("opened", Json.Bool (ev.e_b = 1)) ]
    | Serve_request ->
      [ ("op", Json.Str ev.e_label); ("conn", num ev.e_a);
        ("status", num ev.e_b) ]
    | Serve_phase ->
      [ ("phase", Json.Str ev.e_label); ("request", num ev.e_a);
        ("conn", num ev.e_b) ]
  in
  Json.Obj (common @ specific)

let to_chrome t =
  let events = drain t in
  let base =
    List.fold_left (fun acc ev -> min acc (start_ticks ev)) max_int events
  in
  let base = if base = max_int then 0 else base in
  let us ticks = float_of_int (max 0 (ticks - base)) /. 1e3 in
  let trace_event ev =
    let fields =
      [
        ("name", Json.Str (display_name ev));
        ("cat", Json.Str (kind_name ev.e_kind));
        ("ph", Json.Str (if is_complete ev then "X" else "i"));
        ("ts", Json.Num (us (start_ticks ev)));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int (tid_of ev)));
        ("args", args_of ev);
      ]
    in
    let fields =
      if is_complete ev then
        fields @ [ ("dur", Json.Num (float_of_int ev.e_dur_ns /. 1e3)) ]
      else fields @ [ ("s", Json.Str "t") ]
    in
    Json.Obj fields
  in
  let tids =
    List.sort_uniq compare (List.map tid_of events)
  in
  let metadata tid =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int tid));
        ("args", Json.Obj [ ("name", Json.Str (track_name tid)) ]);
      ]
  in
  let process_meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.0);
        ("args", Json.Obj [ ("name", Json.Str "mad engine") ]);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((process_meta :: List.map metadata tids)
          @ List.map trace_event events) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let dump t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    (fun () ->
      output_string oc (Json.to_string (to_chrome t));
      output_char oc '\n')

let () = dump_ref := dump
