(** The MQL network service — see the interface for the contract.

    Threading layout: the server is one OCaml domain.  One accept
    thread multiplexes the listener with a 0.25 s [select] slice (so a
    stop request is noticed promptly); [workers] threads each pop one
    admitted connection at a time from a bounded queue and serve it
    for its lifetime.  Blocking socket IO, fsyncs and lock waits
    release the runtime lock, so threads overlap everything but
    statement execution — which the engine lock serializes anyway.
    Sockets carry a 0.25 s [SO_RCVTIMEO], and every blocking read polls
    the stop flag and its idle/read deadline between slices ({!Wire}'s
    [keep_waiting]).

    Statement execution is serialized under [engine] (the store and
    the kernel snapshots beneath it are single-writer); everything
    slow around it — socket IO, response rendering, and above all the
    group-commit fsync wait — happens outside that lock.  That is the
    whole trick of the cross-session group commit: while the leader's
    fsync is in flight, other writers are inside the engine appending
    WAL records, and the next fsync acknowledges them all at once. *)

open Mad_store

type config = {
  host : string;
  port : int;
  workers : int;
  max_pending : int;
  idle_timeout : float;
  read_timeout : float;
  max_frame : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    max_pending = 16;
    idle_timeout = 300.0;
    read_timeout = 30.0;
    max_frame = Wire.default_max_frame;
  }

type t = {
  cfg : config;
  db : Database.t;
  durable : Mad_durable.Durable.t option;
  coord : Mad_durable.Coordinator.t option;
  obs : Mad_obs.Obs.t;
  listener : Unix.file_descr;
  port : int;
  stop : bool Atomic.t;
  engine : Mutex.t;  (** serializes statement execution on [db] *)
  qm : Mutex.t;
  qcv : Condition.t;
  q : (Unix.file_descr * string * int) Queue.t;
      (** admitted, not yet served; the int is {!Mad_obs.Monotonic}
          ticks at admission, the start of the queue-wait phase *)
  conn_seq : int Atomic.t;
  mutable accepter : Thread.t option;
  mutable threads : Thread.t list;
  mutable joined : bool;
  c_conns : Mad_obs.Metric.counter;
  c_busy : Mad_obs.Metric.counter;
  c_errors : Mad_obs.Metric.counter;
  c_bytes_in : Mad_obs.Metric.counter;
  c_bytes_out : Mad_obs.Metric.counter;
  g_active : Mad_obs.Metric.gauge;
  h_request_us : Mad_obs.Metric.histogram;
  (* request phases — one histogram point per phase; together (queue
     excepted, which is per-connection) they partition request_us *)
  h_ph_lock : Mad_obs.Metric.histogram;
  h_ph_exec : Mad_obs.Metric.histogram;
  h_ph_wal : Mad_obs.Metric.histogram;
  h_ph_fsync : Mad_obs.Metric.histogram;
  h_ph_write : Mad_obs.Metric.histogram;
  h_ph_other : Mad_obs.Metric.histogram;
  h_ph_queue : Mad_obs.Metric.histogram;
  (* engine-lock profile, labeled by statement class *)
  h_lock_wait : (string, Mad_obs.Metric.histogram) Hashtbl.t;
  h_lock_hold : (string, Mad_obs.Metric.histogram) Hashtbl.t;
  c_contended : Mad_obs.Metric.counter;
  g_lock_waiters : Mad_obs.Metric.gauge;
  g_queue_peak : Mad_obs.Metric.gauge;
      (** queue-depth high watermark as a %% of [max_pending], latched
          on admission; the timeline tick reads and resets it *)
}

let port t = t.port
let config t = t.cfg
let obs t = t.obs
let db t = t.db
let coordinator t = t.coord
let connections t = Mad_obs.Metric.value t.c_conns
let request_stop t = Atomic.set t.stop true
let stopped t = Atomic.get t.stop

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      Err.failf "serve: cannot resolve host %s" host)

let peer_name = function
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX s -> s

(* --- admission ------------------------------------------------------ *)

(* Over capacity: answer the handshake with the typed busy verdict and
   close.  Reading the client's hello first (one receive slice,
   best-effort) matters — closing a socket with unread inbound data
   sends RST, which could destroy the busy reply in flight. *)
let reject_busy t fd =
  Mad_obs.Metric.incr t.c_busy;
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
     ignore (Wire.read_client_hello ~keep_waiting:(fun ~started:_ -> false) fd);
     Wire.write_server_hello fd ~version:Wire.version Wire.H_busy
   with Unix.Unix_error _ -> ());
  close_quietly fd

(* latch the queue-depth high watermark (in % of capacity) under [qm];
   the saturation probe reads it at the next timeline tick and resets
   it, making the gauge peak-since-last-tick *)
let latch_queue_peak t depth =
  let pct =
    100.0
    *. float_of_int (min depth t.cfg.max_pending)
    /. float_of_int t.cfg.max_pending
  in
  if pct > Mad_obs.Metric.get t.g_queue_peak then
    Mad_obs.Metric.set t.g_queue_peak pct

let admit t fd peer =
  if Atomic.get t.stop then close_quietly fd
  else begin
    Mutex.lock t.qm;
    let depth = Queue.length t.q in
    let full = depth >= t.cfg.max_pending in
    if not full then begin
      Queue.add (fd, peer_name peer, Mad_obs.Monotonic.ticks ()) t.q;
      Condition.signal t.qcv
    end;
    latch_queue_peak t (depth + 1);
    Mutex.unlock t.qm;
    if full then reject_busy t fd
  end

let rec accept_ready t =
  match Unix.accept ~cloexec:true t.listener with
  | fd, peer ->
    admit t fd peer;
    if not (Atomic.get t.stop) then accept_ready t
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
    (* the listener was closed under us: stop was requested *)
    Atomic.set t.stop true

let accept_loop t =
  let rec go () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.listener ] [] [] 0.25 with
       | [], _, _ -> ()
       | _ -> accept_ready t
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
         Atomic.set t.stop true);
      go ()
    end
  in
  go ()

(* --- per-connection serving ----------------------------------------- *)

(* a terse acknowledgement for Exec (DML-friendly: no tree rendering
   on the wire, the client wants the effect summary) *)
let summarize = function
  | Mad_mql.Session.Dml s -> s
  | Mad_mql.Session.Inserted _ -> "inserted 1 atom"
  | Mad_mql.Session.Defined _ -> "defined"
  | Mad_mql.Session.Explained s -> s
  | Mad_mql.Session.Result _ -> "ok"

type conn_state = {
  session : Mad_mql.Session.t;
  mutable last_epoch : int;  (** db epoch as of this session's last look *)
  mutable appended : int;  (** WAL position published by the commit hook *)
  mutable acked : int;  (** highest position the coordinator confirmed *)
  reply : Buffer.t;  (** the response frame under construction *)
}

let lock_hist tbl cls =
  match Hashtbl.find_opt tbl cls with
  | Some h -> h
  | None -> Hashtbl.find tbl "other"

(* Run one statement-bearing request under the engine lock, rendering
   its reply into [st.reply] behind the reserved header; the fsync
   wait for any commit it performed happens OUTSIDE the lock, in the
   group-commit coordinator.  A Query's result is rendered only up to
   the connection's frame cap: past it the reply becomes the typed
   cap error.  Returns the status plus the request's
   engine-side phases as [(name, dur_ns, end_ticks)] — lock wait,
   execution, WAL flush (the commit hooks' share of the under-lock
   time) and fsync wait.  Lock wait and hold times also feed the
   per-statement-class contention histograms; an acquisition that
   found the mutex taken counts as contended. *)
let eval_locked t st req =
  let cls =
    Mad_mql.Fingerprint.class_of_source
      (match req with
       | Wire.Query s | Wire.Exec s | Wire.Explain s -> s
       | Wire.Stats | Wire.Health | Wire.Ping | Wire.Quit -> assert false)
  in
  let t_lock0 = Mad_obs.Monotonic.ticks () in
  if not (Mutex.try_lock t.engine) then begin
    Mad_obs.Metric.incr t.c_contended;
    Mad_obs.Metric.add_gauge t.g_lock_waiters 1.0;
    Mutex.lock t.engine;
    Mad_obs.Metric.add_gauge t.g_lock_waiters (-1.0)
  end;
  let t_lock1 = Mad_obs.Monotonic.ticks () in
  let lock_ns = t_lock1 - t_lock0 in
  Mad_obs.Metric.observe (lock_hist t.h_lock_wait cls)
    (float_of_int lock_ns /. 1e3);
  let r =
    Fun.protect
      ~finally:(fun () ->
        Mad_obs.Metric.observe (lock_hist t.h_lock_hold cls)
          (float_of_int (Mad_obs.Monotonic.ticks () - t_lock1) /. 1e3);
        Mutex.unlock t.engine)
      (fun () ->
        let status =
          try
            (* another connection may have mutated the store since this
               session last looked: re-derive its catalog first *)
            let e = Database.epoch t.db in
            if st.last_epoch <> e then Mad_mql.Session.refresh st.session;
            let b = st.reply in
            (match req with
             | Wire.Query s ->
               let limit = Buffer.length b + t.cfg.max_frame in
               Mad_mql.Session.render_into ~limit st.session b (Mad_mql.Session.run st.session s)
             | Wire.Exec s -> Buffer.add_string b (summarize (Mad_mql.Session.run st.session s))
             | Wire.Explain s -> Buffer.add_string b (Mad_mql.Session.explain st.session s)
             | Wire.Stats | Wire.Health | Wire.Ping | Wire.Quit -> assert false);
            Wire.Ok
          with
          | Err.Mad_error msg ->
            Wire.reply_error st.reply msg;
            Wire.Error
          | Mad.Render.Too_large ->
            Wire.reply_error st.reply (Wire.reply_cap_error t.cfg.max_frame);
            Wire.Error
        in
        st.last_epoch <- Database.epoch t.db;
        status)
  in
  let t_exec1 = Mad_obs.Monotonic.ticks () in
  (* the commit hooks (WAL flush + publication) ran inside the session
     under the lock; their share of the under-lock time is the "wal"
     phase, the rest is "exec" *)
  let wal_ns =
    int_of_float (Mad_mql.Session.take_last_commit_us st.session *. 1e3)
  in
  let wal_ns = min wal_ns (max 0 (t_exec1 - t_lock1)) in
  let exec_ns = max 0 (t_exec1 - t_lock1 - wal_ns) in
  (match t.coord with
   | Some c when st.appended > st.acked ->
     Mad_durable.Coordinator.wait_durable c st.appended;
     st.acked <- st.appended
   | Some _ | None -> ());
  let t_fsync1 = Mad_obs.Monotonic.ticks () in
  let phases =
    [
      ("lock", lock_ns, t_lock1);
      ("exec", exec_ns, t_exec1);
      ("wal", wal_ns, t_exec1);
      ("fsync", t_fsync1 - t_exec1, t_fsync1);
    ]
  in
  (r, phases)

(* answer one request into [st.reply]: its status and engine phases *)
let handle_request t st req =
  match req with
  | Wire.Ping -> (Wire.Pong, [])
  | Wire.Quit -> (Wire.Bye, [])
  | Wire.Stats ->
    let registry = Mad_obs.Obs.registry t.obs in
    Mad_obs.Timeline.update_runtime ~epoch:(Database.epoch t.db) registry;
    Buffer.add_string st.reply (Mad_obs.Registry.expose registry);
    (Wire.Ok, [])
  | Wire.Health ->
    let tl = Mad_obs.Timeline.configure () in
    ignore
      (Mad_obs.Timeline.tick ~epoch:(Database.epoch t.db) tl
         (Mad_obs.Obs.registry t.obs));
    Buffer.add_string st.reply (Mad_obs.Json.to_string (Mad_obs.Timeline.health_json tl));
    (Wire.Ok, [])
  | Wire.Query _ | Wire.Exec _ | Wire.Explain _ -> eval_locked t st req

(* the request/response loop of one established connection; returns
   when the peer quits, times out, violates the protocol or the
   server stops *)
let session_loop t st cid fd =
  let respond req status phases =
    let status, frame = Wire.reply_finish ~max_len:t.cfg.max_frame st.reply status phases in
    Mad_obs.Metric.add t.c_bytes_out (Bytes.length frame);
    Mad_obs.Metric.incr
      (Mad_obs.Obs.counter
         ~labels:[ ("op", Wire.req_name req) ]
         t.obs "serve.requests");
    if status = Wire.Error then Mad_obs.Metric.incr t.c_errors;
    Wire.write_all fd (Bytes.unsafe_to_string frame)
  in
  let rec loop () =
    if Atomic.get t.stop then Wire.write_resp fd Wire.Bye ""
    else begin
      let idle_from = Unix.gettimeofday () in
      let started_at = ref None in
      let keep_waiting ~started =
        let now = Unix.gettimeofday () in
        if started then begin
          (* mid-frame: the sender must finish within read_timeout of
             its first byte, stop request or not (we drain in-flight
             requests on shutdown, not half-read ones forever) *)
          let t0 =
            match !started_at with
            | Some v -> v
            | None ->
              started_at := Some now;
              now
          in
          now -. t0 < t.cfg.read_timeout
        end
        else if Atomic.get t.stop then false
        else now -. idle_from < t.cfg.idle_timeout
      in
      match Wire.read_req ~max_len:t.cfg.max_frame ~keep_waiting fd with
      | Wire.Closed -> ()
      | Wire.Truncated | Wire.Bad_magic ->
        (* the stream cannot be resynchronized past a framing
           violation: answer if we still can, then hang up *)
        Mad_obs.Metric.incr t.c_errors;
        (try Wire.write_resp fd Wire.Error "protocol error"
         with Unix.Unix_error _ -> ())
      | Wire.Oversized n ->
        Mad_obs.Metric.incr t.c_errors;
        (try
           Wire.write_resp fd Wire.Error
             (Printf.sprintf "frame of %d bytes exceeds the %d byte cap" n
                t.cfg.max_frame)
         with Unix.Unix_error _ -> ())
      | Wire.Timeout ->
        (* idle expiry or stop request: a polite goodbye either way *)
        (try Wire.write_resp fd Wire.Bye "" with Unix.Unix_error _ -> ())
      | Wire.Msg (req, meta) ->
        Mad_obs.Metric.add t.c_bytes_in (Wire.req_bytes req);
        let t0 = Mad_obs.Monotonic.ticks () in
        let want_phases = match meta with Some m -> m.Wire.want_phases | None -> false in
        Wire.reply_start st.reply ~phases:want_phases;
        let status, eng_phases = handle_request t st req in
        let t1 = Mad_obs.Monotonic.ticks () in
        let eng name =
          match List.find_opt (fun (k, _, _) -> k = name) eng_phases with
          | Some (_, d, e) -> (d, e)
          | None -> (0, t1)
        in
        let lock_ns, lock_end = eng "lock" in
        let exec_ns, exec_end = eng "exec" in
        let wal_ns, wal_end = eng "wal" in
        let fsync_ns, fsync_end = eng "fsync" in
        (* phase-annotated response when a v2 client asked for it; the
           "write" phase cannot describe itself, so the wire breakdown
           closes with the residual up to response assembly *)
        let phases =
          if not want_phases then None
          else
            let us ns = float_of_int ns /. 1e3 in
            let accounted = lock_ns + exec_ns + wal_ns + fsync_ns in
            Some
              [
                ("lock", us lock_ns);
                ("exec", us exec_ns);
                ("wal", us wal_ns);
                ("fsync", us fsync_ns);
                ("other", us (max 0 (t1 - t0 - accounted)));
              ]
        in
        respond req status phases;
        let t_end = Mad_obs.Monotonic.ticks () in
        let dur_ns = t_end - t0 in
        let write_ns = t_end - t1 in
        let other_ns =
          max 0
            (dur_ns - (lock_ns + exec_ns + wal_ns + fsync_ns + write_ns))
        in
        let ring = Mad_obs.Recorder.global () in
        let seq =
          Mad_obs.Recorder.record ring Serve_request ~ticks:t_end ~dur_ns
            ~label:(Wire.req_name req) ~a:cid ~b:(Wire.status_code status)
            ()
        in
        (* the client's span seq (v2 trace propagation) links the two
           rings: journal it so a merged trace can pair the slices *)
        (match meta with
         | Some m when m.Wire.span > 0 && seq >= 0 ->
           ignore
             (Mad_obs.Recorder.record ring Serve_phase ~ticks:t0 ~dur_ns:0
                ~label:"client-span" ~a:seq ~b:m.Wire.span ())
         | _ -> ());
        let exemplar = if seq >= 0 then Some seq else None in
        Mad_obs.Metric.observe ?exemplar t.h_request_us
          (float_of_int dur_ns /. 1e3);
        (* every phase observes on every request — zeros included — so
           the phase histograms partition request_us in sum AND count *)
        let obs_phase h ns =
          Mad_obs.Metric.observe ?exemplar h (float_of_int ns /. 1e3)
        in
        obs_phase t.h_ph_lock lock_ns;
        obs_phase t.h_ph_exec exec_ns;
        obs_phase t.h_ph_wal wal_ns;
        obs_phase t.h_ph_fsync fsync_ns;
        obs_phase t.h_ph_write write_ns;
        obs_phase t.h_ph_other other_ns;
        (* ring slices only for phases that actually took time *)
        let note_phase name ns end_ticks =
          if ns > 0 && seq >= 0 then
            ignore
              (Mad_obs.Recorder.record ring Serve_phase ~ticks:end_ticks
                 ~dur_ns:ns ~label:name ~a:seq ~b:cid ())
        in
        note_phase "lock" lock_ns lock_end;
        note_phase "exec" exec_ns exec_end;
        note_phase "wal" wal_ns wal_end;
        note_phase "fsync" fsync_ns fsync_end;
        note_phase "write" write_ns t_end;
        note_phase "other" other_ns t_end;
        Mad_obs.Timeline.auto_tick ~epoch:(Database.epoch t.db)
          (Mad_obs.Obs.registry t.obs);
        if req <> Wire.Quit then loop ()
    end
  in
  loop ()

let serve_conn t fd peer =
  let cid = Atomic.fetch_and_add t.conn_seq 1 in
  Mad_obs.Metric.incr t.c_conns;
  Mad_obs.Metric.add_gauge t.g_active 1.0;
  Mad_obs.Recorder.note Serve_conn ~label:peer ~a:cid ~b:1 ();
  Fun.protect
    ~finally:(fun () ->
      Mad_obs.Metric.add_gauge t.g_active (-1.0);
      Mad_obs.Recorder.note Serve_conn ~label:peer ~a:cid ~b:0 ();
      close_quietly fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let t0 = Unix.gettimeofday () in
      let keep_waiting ~started:_ =
        (not (Atomic.get t.stop))
        && Unix.gettimeofday () -. t0 < t.cfg.read_timeout
      in
      match Wire.read_client_hello ~keep_waiting fd with
      | Wire.Msg v when v = Wire.version ->
        Wire.write_server_hello fd ~version:Wire.version Wire.H_ok;
        (* the connection's private session: its own observability
           context (metrics registry), digest, adaptive-catalog slot *)
        let session =
          Mad_mql.Session.create ~obs:(Mad_obs.Obs.create ()) t.db
        in
        ignore (Mad_mql.Session.enable_digest session);
        let st =
          { session; last_epoch = -1; appended = 0; acked = 0; reply = Buffer.create 4096 }
        in
        (match t.durable with
         | Some h ->
           (* runs inside [eval_locked]'s engine section, right after
              the statement's WAL appends: publish, ack later *)
           ignore
             (Mad_mql.Session.add_on_commit session (fun () ->
                  st.appended <- Mad_durable.Durable.wal_records h))
         | None -> ());
        session_loop t st cid fd
      | Wire.Msg _ ->
        Mad_obs.Metric.incr t.c_errors;
        Wire.write_server_hello fd ~version:Wire.version Wire.H_version
      | Wire.Closed | Wire.Truncated | Wire.Oversized _ | Wire.Bad_magic
      | Wire.Timeout ->
        ())

(* pop the next admitted connection, blocking until one arrives or the
   server stops *)
let take t =
  Mutex.lock t.qm;
  let rec go () =
    if Atomic.get t.stop then None
    else
      match Queue.take_opt t.q with
      | Some c -> Some c
      | None ->
        Condition.wait t.qcv t.qm;
        go ()
  in
  let r = go () in
  Mutex.unlock t.qm;
  r

let worker_loop t =
  let rec go () =
    match take t with
    | None -> ()
    | Some (fd, peer, admitted) ->
      (* the connection's admission wait ends here — a worker picked
         it up.  Observed separately from the request phases: it is a
         property of the connection, not of any one request. *)
      Mad_obs.Metric.observe t.h_ph_queue
        (float_of_int (Mad_obs.Monotonic.ticks () - admitted) /. 1e3);
      (* a connection failure must not take its worker down with it *)
      (try serve_conn t fd peer
       with
       | Unix.Unix_error _ -> close_quietly fd
       | e ->
         close_quietly fd;
         Mad_obs.Metric.incr t.c_errors;
         ignore (Printexc.to_string e));
      go ()
  in
  go ()

(* --- lifecycle ------------------------------------------------------ *)

let phase_hist obs phase =
  Mad_obs.Obs.histogram
    ~labels:[ ("phase", phase) ]
    ~bounds:Mad_obs.Metric.latency_bounds_us obs "serve.phase_us"

(* one histogram point per statement class, pre-registered so an idle
   server's exposition already carries the full label set (and the
   contention probe's baseline can be taught at idle) *)
let lock_hists obs name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun cls ->
      Hashtbl.replace tbl cls
        (Mad_obs.Obs.histogram
           ~labels:[ ("class", cls) ]
           ~bounds:Mad_obs.Metric.latency_bounds_us obs name))
    Mad_mql.Fingerprint.classes;
  tbl

let start ?obs ?(config = default_config) ?durable database =
  let obs = match obs with Some o -> o | None -> Mad_obs.Obs.create () in
  (* a peer vanishing mid-write must surface as EPIPE on that one
     socket, not as a process-wide SIGPIPE death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = resolve config.host in
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (Unix.ADDR_INET (addr, config.port));
     Unix.listen listener 64;
     Unix.set_nonblock listener
   with Unix.Unix_error (e, _, _) ->
     close_quietly listener;
     Err.failf "serve: cannot bind %s:%d: %s" config.host config.port
       (Unix.error_message e));
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let coord =
    Option.map
      (fun h -> Mad_durable.Coordinator.for_durable ~obs ~prefix:"serve.group" h)
      durable
  in
  let t =
    {
      cfg = { config with workers = max 1 config.workers };
      db = database;
      durable;
      coord;
      obs;
      listener;
      port = bound_port;
      stop = Atomic.make false;
      engine = Mutex.create ();
      qm = Mutex.create ();
      qcv = Condition.create ();
      q = Queue.create ();
      conn_seq = Atomic.make 1;
      accepter = None;
      threads = [];
      joined = false;
      c_conns = Mad_obs.Obs.counter obs "serve.connections";
      c_busy = Mad_obs.Obs.counter obs "serve.busy";
      c_errors = Mad_obs.Obs.counter obs "serve.errors";
      c_bytes_in = Mad_obs.Obs.counter obs "serve.bytes_in";
      c_bytes_out = Mad_obs.Obs.counter obs "serve.bytes_out";
      g_active = Mad_obs.Obs.gauge obs "serve.active";
      h_request_us =
        Mad_obs.Obs.histogram ~bounds:Mad_obs.Metric.latency_bounds_us obs
          "serve.request_us";
      h_ph_lock = phase_hist obs "lock";
      h_ph_exec = phase_hist obs "exec";
      h_ph_wal = phase_hist obs "wal";
      h_ph_fsync = phase_hist obs "fsync";
      h_ph_write = phase_hist obs "write";
      h_ph_other = phase_hist obs "other";
      h_ph_queue = phase_hist obs "queue";
      h_lock_wait = lock_hists obs "serve.lock.wait_us";
      h_lock_hold = lock_hists obs "serve.lock.hold_us";
      c_contended = Mad_obs.Obs.counter obs "serve.lock.contended";
      g_lock_waiters = Mad_obs.Obs.gauge obs "serve.lock.waiters";
      g_queue_peak = Mad_obs.Obs.gauge obs "serve.queue_peak_pct";
    }
  in
  t.accepter <- Some (Thread.create accept_loop t);
  t.threads <- List.init t.cfg.workers (fun _ -> Thread.create worker_loop t);
  t

let stop t =
  request_stop t;
  if not t.joined then begin
    t.joined <- true;
    (* closing the listener kicks the accept thread out of select *)
    close_quietly t.listener;
    Mutex.lock t.qm;
    Condition.broadcast t.qcv;
    Mutex.unlock t.qm;
    Option.iter Thread.join t.accepter;
    List.iter Thread.join t.threads;
    t.threads <- [];
    (* admitted but never served: hang up *)
    Mutex.lock t.qm;
    Queue.iter (fun (fd, _, _) -> close_quietly fd) t.q;
    Queue.clear t.q;
    Mutex.unlock t.qm
  end
