(** The durability engine: snapshot + write-ahead log + recovery.

    A data directory holds:
    {v
    DIR/snapshot.mad   latest snapshot (Serialize dump)
    DIR/wal.log        checksummed log of DML since that snapshot
    DIR/stats.mad      learned optimizer catalog (advisory, PRIMA)
    DIR/digest.mad     workload digest (advisory)
    DIR/timeline.mad   telemetry timeline (advisory)
    v}
    Every store mutation of an opened database is appended to the WAL
    as one logical record {e after} it succeeds in memory (the journal
    hook of {!Database.set_journal}); a snapshot rewrites
    [snapshot.mad] atomically ({!Serialize.write_atomically}) and
    truncates the log.  {!open_dir} is the recovery path: load the
    snapshot, replay the WAL, tolerate a torn final record, and
    re-verify the MAD model's structural invariants ({!Integrity})
    before handing the database back — a recovered database is a
    member of the database domain or the open fails.

    Metrics land in the observability context: [wal.append_bytes] and
    [wal.fsync_us] (from the log writer), [recovery.replayed_records]
    (from recovery). *)

open Mad_store

let snapshot_basename = "snapshot.mad"
let wal_basename = "wal.log"
let stats_basename = "stats.mad"
let digest_basename = "digest.mad"
let timeline_basename = "timeline.mad"

let snapshot_path dir = Filename.concat dir snapshot_basename
let wal_path dir = Filename.concat dir wal_basename
let stats_path_of_dir dir = Filename.concat dir stats_basename
let digest_path_of_dir dir = Filename.concat dir digest_basename
let timeline_path_of_dir dir = Filename.concat dir timeline_basename

(** Does the directory hold durable state already? *)
let exists dir =
  Sys.file_exists (snapshot_path dir) || Sys.file_exists (wal_path dir)

type recovery = {
  snapshot_loaded : bool;
  replayed_records : int;
  torn_tail_bytes : int;  (** 0 = the log ended on a record boundary *)
}

let pp_recovery ppf r =
  Fmt.pf ppf "snapshot %s, %d record(s) replayed%s"
    (if r.snapshot_loaded then "loaded" else "absent")
    r.replayed_records
    (if r.torn_tail_bytes > 0 then
       Printf.sprintf ", torn tail (%d byte(s) dropped)" r.torn_tail_bytes
     else "")

type t = {
  dir : string;
  db : Database.t;
  obs : Mad_obs.Obs.t;
  sync : bool;
  snapshot_every : int option;
  faults : Faults.t option;
  mutable wal : Wal.writer;
  mutable wal_records : int;  (** records in the log since the snapshot *)
  mutable closed : bool;
  recovery : recovery;
}

let db t = t.db
let dir t = t.dir
let recovery t = t.recovery
let stats_path t = stats_path_of_dir t.dir
let digest_path t = digest_path_of_dir t.dir
let timeline_path t = timeline_path_of_dir t.dir
let wal_records t = t.wal_records

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- recovery ------------------------------------------------------- *)

let replay_wal db dirname =
  let payloads, tail = Wal.read (wal_path dirname) in
  List.iteri
    (fun i payload ->
      let recno = i + 1 in
      (try Logrec.apply db (Logrec.decode ~recno payload)
       with Err.Mad_error msg -> Err.failf "%s: %s" wal_basename msg);
      (* a recovery timeline in the flight recorder: one instant per
         replayed record, so a stalled replay shows where it stopped *)
      Mad_obs.Recorder.note Recovery_replay ~label:wal_basename ~a:recno
        ~b:(String.length payload) ())
    payloads;
  let torn =
    match tail with Wal.Clean -> 0 | Wal.Torn { bytes_dropped } -> bytes_dropped
  in
  (payloads, torn)

let verify dirname db =
  match Integrity.check db with
  | [] -> ()
  | v :: _ ->
    Err.failf "recovery of %s left an invalid database: %a" dirname
      Integrity.pp_violation v

(* roll the log over: close the writer, truncate the file, reopen *)
let restart_wal t =
  Wal.close t.wal;
  t.wal <-
    Wal.create ?faults:t.faults ~obs:t.obs ~sync:t.sync ~truncate:true
      (wal_path t.dir);
  t.wal_records <- 0

let check_open t = if t.closed then Err.failf "durable store %s is closed" t.dir

(** Force a snapshot now: rewrite [snapshot.mad] atomically from the
    live database and truncate the log. *)
let snapshot t =
  check_open t;
  let t0 = Mad_obs.Monotonic.ticks () in
  let records = t.wal_records in
  Serialize.write_atomically (snapshot_path t.dir) (Serialize.dump t.db);
  restart_wal t;
  Mad_obs.Recorder.note Snapshot_build
    ~dur_ns:(Mad_obs.Monotonic.ticks () - t0)
    ~label:snapshot_basename ~a:records ()

(** Open (or create) the data directory and recover its database.

    Recovery: load [snapshot.mad] if present (else start from a copy
    of [seed], else empty), replay every durable [wal.log] record — a
    torn final record is dropped, not fatal — and re-verify
    {!Integrity} over the result.  A fresh directory is seeded with an
    initial snapshot, so the seed state is durable before the first
    append.  The returned handle journals every subsequent mutation to
    the log; [sync] fsyncs each append (default: the caller groups
    syncs via {!commit}), and [snapshot_every] rolls a snapshot
    automatically once the log holds that many records. *)
let open_dir ?(obs = Mad_obs.Obs.noop) ?(sync = false) ?snapshot_every ?faults
    ?seed dirname =
  (* a bad --data argument must surface as a typed, file-named error
     (the CLI maps [Mad_error] to its documented exit code), not as a
     raw [Unix_error]/[Sys_error] backtrace from deep inside setup *)
  (try mkdirs dirname
   with Unix.Unix_error (e, _, arg) ->
     Err.failf "data directory %s: cannot create%s: %s" dirname
       (if String.equal arg dirname || String.equal arg "" then ""
        else Printf.sprintf " (%s)" arg)
       (Unix.error_message e));
  if not (try Sys.is_directory dirname with Sys_error _ -> false) then
    Err.failf "data directory %s is not a directory" dirname;
  (try Unix.access dirname [ Unix.W_OK; Unix.X_OK ]
   with Unix.Unix_error (e, _, _) ->
     Err.failf "data directory %s is not writable: %s" dirname
       (Unix.error_message e));
  let snap = snapshot_path dirname in
  let fresh = not (exists dirname) in
  let db, snapshot_loaded =
    if Sys.file_exists snap then (Serialize.load_file snap, true)
    else
      match seed with
      | Some d when fresh -> (Database.copy d, false)
      | Some _ | None -> (Database.create (), false)
  in
  if fresh then Serialize.write_atomically snap (Serialize.dump db);
  let payloads, torn = replay_wal db dirname in
  let replayed = List.length payloads in
  verify dirname db;
  Mad_obs.Metric.add
    (Mad_obs.Obs.counter obs "recovery.replayed_records")
    replayed;
  let t =
    {
      dir = dirname;
      db;
      obs;
      sync;
      snapshot_every;
      faults;
      wal = Wal.create ?faults ~obs ~sync ~truncate:false (wal_path dirname);
      wal_records = replayed;
      closed = false;
      recovery =
        { snapshot_loaded; replayed_records = replayed; torn_tail_bytes = torn };
    }
  in
  (* a torn tail means the file ends in garbage: rewrite the log as
     the durable prefix so new records are not appended after it *)
  if torn > 0 then begin
    restart_wal t;
    List.iter (Wal.append t.wal) payloads;
    Wal.fsync t.wal;
    t.wal_records <- replayed
  end;
  let journal op =
    Wal.append t.wal (Logrec.encode op);
    t.wal_records <- t.wal_records + 1;
    (* rolling a snapshot only reads the database (dump + truncate),
       so the journal cannot re-enter from here *)
    match t.snapshot_every with
    | Some k when t.wal_records >= k -> snapshot t
    | Some _ | None -> ()
  in
  Database.set_journal db (Some journal);
  t

(** Open [dirname] if it holds durable state; otherwise seed it from
    [seed ()] (forced only when needed). *)
let open_or_seed ?obs ?sync ?snapshot_every ?faults ~seed dirname =
  if exists dirname then open_dir ?obs ?sync ?snapshot_every ?faults dirname
  else open_dir ?obs ?sync ?snapshot_every ?faults ~seed:(seed ()) dirname

(* --- steady-state operations ---------------------------------------- *)

(** Group commit: flush and fsync the log.  The REPL calls this after
    every manipulation statement (statement-level durability without
    paying an fsync per record). *)
let commit t =
  check_open t;
  let t0 = Mad_obs.Monotonic.ticks () in
  Wal.fsync t.wal;
  Mad_obs.Recorder.note Group_commit
    ~dur_ns:(Mad_obs.Monotonic.ticks () - t0)
    ~a:t.wal_records ()

(** The raw durability boundary: flush and fsync the log without the
    [Group_commit] journal entry — the cross-session {!Coordinator}
    notes its own batch event around this. *)
let sync t =
  check_open t;
  Wal.fsync t.wal

(** Detach the journal and close the log.  [snapshot] (default false)
    rolls a final snapshot first, leaving an empty log behind. *)
let close ?snapshot:(with_snapshot = false) t =
  if not t.closed then begin
    if with_snapshot then snapshot t;
    Database.set_journal t.db None;
    (try Wal.fsync t.wal with Unix.Unix_error _ -> ());
    Wal.close t.wal;
    t.closed <- true
  end
