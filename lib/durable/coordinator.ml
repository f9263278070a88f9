(** Cross-session group commit — see the interface for the contract.

    Leader-based batching: committers publish the WAL position their
    statement reached, then wait for [synced] to cover it.  If no
    fsync is in flight the committer elects itself leader, snapshots
    the highest published position, fsyncs {e outside} the lock, and
    wakes everyone.  Statements that append while the leader's fsync
    is in flight queue up and are covered by the next batch — that is
    where the amortization comes from: the slower the disk, the bigger
    the batch. *)

type t = {
  m : Mutex.t;
  cv : Condition.t;  (** signalled when [synced] advances or the leader fails *)
  sync : unit -> unit;
  mutable appended : int;  (** highest WAL position published by a committer *)
  mutable synced : int;  (** highest position covered by a completed fsync *)
  mutable syncing : bool;  (** a leader's fsync is in flight *)
  mutable entered : int;  (** commits that entered {!wait_durable} *)
  mutable batch_base : int;  (** [entered] when the current/last batch formed *)
  commits : Mad_obs.Metric.counter;
  fsyncs : Mad_obs.Metric.counter;
  batch : Mad_obs.Metric.histogram;
  wait_us : Mad_obs.Metric.histogram;
  waiters : Mad_obs.Metric.gauge;
      (** committers currently blocked in {!wait_durable} *)
}

let create ?(obs = Mad_obs.Obs.noop) ?(prefix = "wal.group") ~sync () =
  {
    m = Mutex.create ();
    cv = Condition.create ();
    sync;
    appended = 0;
    synced = 0;
    syncing = false;
    entered = 0;
    batch_base = 0;
    commits = Mad_obs.Obs.counter obs (prefix ^ ".commits");
    fsyncs = Mad_obs.Obs.counter obs (prefix ^ ".fsyncs");
    batch =
      Mad_obs.Obs.histogram obs (prefix ^ ".batch")
        ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |];
    wait_us =
      Mad_obs.Obs.histogram ~bounds:Mad_obs.Metric.latency_bounds_us obs
        (prefix ^ ".wait_us");
    waiters = Mad_obs.Obs.gauge obs (prefix ^ ".waiters");
  }

let for_durable ?obs ?prefix h =
  create ?obs ?prefix ~sync:(fun () -> Durable.sync h) ()

let commits t = Mad_obs.Metric.value t.commits
let fsyncs t = Mad_obs.Metric.value t.fsyncs

let wait_durable t pos =
  let t0 = !Mad_obs.Monotonic.clock () in
  Mad_obs.Metric.add_gauge t.waiters 1.0;
  Mutex.lock t.m;
  t.entered <- t.entered + 1;
  Mad_obs.Metric.incr t.commits;
  if pos > t.appended then t.appended <- pos;
  let rec wait () =
    if t.synced >= pos then ()
    else if t.syncing then begin
      Condition.wait t.cv t.m;
      wait ()
    end
    else begin
      (* leader: fsync the batch published so far on everyone's behalf *)
      t.syncing <- true;
      let target = t.appended in
      let batch_n = t.entered - t.batch_base in
      t.batch_base <- t.entered;
      Mutex.unlock t.m;
      let result = try Ok (t.sync ()) with e -> Error e in
      Mutex.lock t.m;
      t.syncing <- false;
      match result with
      | Ok () ->
        t.synced <- max t.synced target;
        Mad_obs.Metric.incr t.fsyncs;
        Mad_obs.Metric.observe t.batch (float_of_int batch_n);
        Mad_obs.Recorder.note Group_commit ~a:target ~b:batch_n ();
        Condition.broadcast t.cv;
        wait ()
      | Error e ->
        (* wake the waiters so one of them retries as the new leader;
           the failed leader's caller sees the exception *)
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        raise e
    end
  in
  (match wait () with
   | () -> ()
   | exception e ->
     Mad_obs.Metric.add_gauge t.waiters (-1.0);
     raise e);
  Mutex.unlock t.m;
  Mad_obs.Metric.add_gauge t.waiters (-1.0);
  (* histograms are atomic now: observing outside the lock is safe *)
  Mad_obs.Metric.observe t.wait_us ((!Mad_obs.Monotonic.clock () -. t0) *. 1e6)
