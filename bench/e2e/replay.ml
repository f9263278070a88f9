(* The in-process replay of a traced run.

   The statements the server received — the readers' catalogue
   definitions, the answer-oracle sample, the warm-up and the whole
   window — run again, in send order, against a fresh load of the same
   dump, with one session per connection as the server keeps them.  A
   session is refreshed before a statement exactly when the server
   would refresh it: when another session moved the database epoch
   since its own last statement.  Each layer is timed through public
   entry points only — parse, refresh, the kernel snapshot, evaluation,
   rendering — and the engine's own counters are read by name from the
   registries around each statement. *)

module Session = Mad_mql.Session
module Registry = Mad_obs.Registry

type step = {
  seq : int;  (** the statement's position in the served stream: its trace id *)
  conn : int;
  tmpl : string;
  text : string;
  timed : bool;  (** in the traced half of the window *)
}

type timing = {
  step : step;
  parse_ns : int;
  refresh_ns : int;
  rederived : int;  (** catalogued types the refresh re-derived *)
  snapshot_ns : int;
  eval_ns : int;
  render_ns : int;
  epoch_moves : int;
  returned : int;  (** molecules in the result *)
}

let total_ns t = t.parse_ns + t.refresh_ns + t.snapshot_ns + t.eval_ns + t.render_ns

(* Engine counters summed over the timed steps. *)
type counters = {
  atoms_visited : int;
  roots : int;
  recorder_events : int;
  define_us : float;
  restrict_us : float;
  project_us : float;
  delta_applied : int;
  rebuilds : int;
}

let zero =
  {
    atoms_visited = 0;
    roots = 0;
    recorder_events = 0;
    define_us = 0.0;
    restrict_us = 0.0;
    project_us = 0.0;
    delta_applied = 0;
    rebuilds = 0;
  }

let op_us reg op =
  match
    Registry.find reg ~labels:[ ("op", "molecule_algebra." ^ op) ] "op.latency_us"
  with
  | Some (Mad_obs.Metric.Histogram h) -> Mad_obs.Metric.sum h
  | Some _ | None -> 0.0

(* The counters now: the session's registry holds its derivation and
   operator accounting, the process-wide one the snapshot cache's. *)
let read_counters session =
  let reg = Mad_obs.Obs.registry session.Session.obs in
  let global = Mad_obs.Obs.registry (Mad_obs.Obs.default ()) in
  {
    atoms_visited = Registry.counter_value reg "derive.atoms_visited";
    roots = Registry.counter_value reg "kernel.roots";
    recorder_events = Mad_obs.Recorder.recorded (Mad_obs.Recorder.global ());
    define_us = op_us reg "define";
    restrict_us = op_us reg "restrict";
    project_us = op_us reg "project";
    delta_applied = Registry.counter_value global "snapshot.delta_applied";
    rebuilds = Registry.counter_value global "snapshot.rebuild";
  }

let add acc ~before ~after =
  {
    atoms_visited = acc.atoms_visited + after.atoms_visited - before.atoms_visited;
    roots = acc.roots + after.roots - before.roots;
    recorder_events = acc.recorder_events + after.recorder_events - before.recorder_events;
    define_us = acc.define_us +. after.define_us -. before.define_us;
    restrict_us = acc.restrict_us +. after.restrict_us -. before.restrict_us;
    project_us = acc.project_us +. after.project_us -. before.project_us;
    delta_applied = acc.delta_applied + after.delta_applied - before.delta_applied;
    rebuilds = acc.rebuilds + after.rebuilds - before.rebuilds;
  }

(* Render the outcome as the server does for a Query; the number of
   molecules it holds. *)
let render db = function
  | Session.Result (Mad_mql.Translate.Molecules mt) ->
    ignore (Format.asprintf "%a" (Mad.Render.pp_molecule_type db) mt);
    List.length (Mad.Molecule_type.occ mt)
  | Session.Result (Mad_mql.Translate.Recursive r) ->
    ignore (Format.asprintf "%a" Mad_recursive.Recursive.pp (db, r));
    List.length r.Mad_recursive.Recursive.occ
  | Session.Result (Mad_mql.Translate.Cycles c) ->
    ignore (Format.asprintf "%a" Mad_recursive.Recursive.pp_cycle (db, c));
    List.length c.Mad_recursive.Recursive.cocc
  | Session.Defined _ | Session.Inserted _ | Session.Dml _ | Session.Explained _ -> 0

let span ~step ~parent name t0 t1 =
  if t1 > t0 then
    ignore
      (Spans.add ~name ~track:2 ~conn:step.conn ~trace_id:step.seq ~parent ~t0_ns:t0
         ~dur_ns:(t1 - t0) ())

(* Run [f] while [n] other domains sit blocked.  Every minor collection
   stops all domains of a process, so each idle domain adds
   synchronisation to every collection; the served statements pay that
   for the server's main, accept and idle worker domains, and the
   replay must pay it too for its timings to add up to the server's. *)
let with_idle_domains n f =
  let m = Mutex.create () and cv = Condition.create () and stop = ref false in
  let idle () =
    Mutex.lock m;
    while not !stop do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let ds = List.init n (fun _ -> Domain.spawn idle) in
  Fun.protect f ~finally:(fun () ->
      Mutex.lock m;
      stop := true;
      Condition.broadcast cv;
      Mutex.unlock m;
      List.iter Domain.join ds)

(* Replay [steps] (in send order) on [dump] beside [idle] blocked
   domains; [defines] run first on every reader connection ([readers]
   lists their indices), and [catalogue] names the types they define.
   Returns the timed steps' layer timings and the engine counters
   summed over them. *)
let run ~dump ~conns ~idle ~readers ~defines ~catalogue steps =
  with_idle_domains idle @@ fun () ->
  let db = Mad_store.Serialize.load_file dump in
  let sessions =
    Array.init conns (fun _ ->
        let s = Session.create ~obs:(Mad_obs.Obs.create ()) db in
        ignore (Session.enable_digest s);
        s)
  in
  let last_epoch = Array.make conns (-1) in
  List.iter
    (fun i ->
      List.iter (fun d -> ignore (Session.run_to_string sessions.(i) d)) defines;
      last_epoch.(i) <- Mad_store.Database.epoch db)
    readers;
  let snap_epoch = ref (-1) in
  let counters = ref zero in
  let timings =
    List.filter_map
      (fun step ->
        let s = sessions.(step.conn) in
        let before = if step.timed then Some (read_counters s) else None in
        let e0 = Mad_store.Database.epoch db in
        let t0 = Report.now_ns () in
        let stmt = Session.parse s step.text in
        let t1 = Report.now_ns () in
        let rederived =
          if last_epoch.(step.conn) = e0 then 0
          else begin
            let old = List.map (Session.lookup s) catalogue in
            Session.refresh s;
            List.fold_left2
              (fun k o n -> if o != n then k + 1 else k)
              0 old
              (List.map (Session.lookup s) catalogue)
          end
        in
        let t2 = Report.now_ns () in
        if !snap_epoch <> e0 then begin
          ignore (Mad_kernel.Snapshot.of_db db);
          snap_epoch := e0
        end;
        let t3 = Report.now_ns () in
        let outcome = Session.eval_stmt s stmt in
        let t4 = Report.now_ns () in
        let returned = render db outcome in
        let t5 = Report.now_ns () in
        let e1 = Mad_store.Database.epoch db in
        last_epoch.(step.conn) <- e1;
        match before with
        | None -> None
        | Some before ->
          counters := add !counters ~before ~after:(read_counters s);
          let root =
            Spans.add ~name:("replay " ^ step.tmpl) ~track:2 ~conn:step.conn
              ~trace_id:step.seq ~t0_ns:t0 ~dur_ns:(t5 - t0) ()
          in
          span ~step ~parent:root "Session.parse" t0 t1;
          span ~step ~parent:root "Session.refresh" t1 t2;
          span ~step ~parent:root "Snapshot.of_db" t2 t3;
          span ~step ~parent:root "Session.eval_stmt" t3 t4;
          span ~step ~parent:root "render" t4 t5;
          Some
            {
              step;
              parse_ns = t1 - t0;
              refresh_ns = t2 - t1;
              rederived;
              snapshot_ns = t3 - t2;
              eval_ns = t4 - t3;
              render_ns = t5 - t4;
              epoch_moves = e1 - e0;
              returned;
            })
      steps
  in
  (timings, !counters)
