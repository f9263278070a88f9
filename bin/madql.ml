(* madql — the MOL command-line processor.

   Subcommands:
     repl     interactive MOL session against a built-in database
     query    evaluate one MOL statement
     explain  show the algebra plan and PRIMA's optimized plan
     schema   print the schema (MAD diagram) or the formal Fig. 4 view
     dot      emit Graphviz for the schema or the atom networks
     digest   run statements and report the workload digest
     trace    run statements and dump the flight recorder (Chrome trace)
     timeline run statements, sampling telemetry frames; export JSON/CSV
     health   run statements and report the health verdict (exit 0/1/2)
     top      live terminal view: health, runtime gauges, counter rates
     recovery run the crash-recovery fault-injection suite
     serve    TCP server multiplexing MOL sessions (group commit)
     connect  client for a running serve endpoint

   repl, query, explain and script take --data DIR to run against a
   durable store (snapshot + write-ahead log) instead of a transient
   in-memory database.  query takes --trace FILE (and the repl
   :trace) to dump the engine's flight-recorder ring as Chrome
   trace-event JSON, loadable in Perfetto. *)

open Mad_store
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Built-in databases                                                   *)

let load_db = function
  | "brazil" -> Workloads.Geo_brazil.db (Workloads.Geo_brazil.build ())
  | "geo" -> (Workloads.Geo_gen.build Workloads.Geo_gen.default).Workloads.Geo_grid.db
  | "bom" -> (Workloads.Bom_gen.build Workloads.Bom_gen.default).Workloads.Bom_gen.db
  | "office" -> Workloads.Office_gen.build Workloads.Office_gen.default
  | path when Sys.file_exists path -> Serialize.load_file path
  | other ->
    Err.failf
      "unknown database %s (expected brazil, geo, bom, office or a .mad file)"
      other

let db_arg =
  let doc =
    "Database: brazil (Fig. 1), geo (synthetic cartography), bom (bill of \
     material), office (documents), or the path of a .mad dump."
  in
  Arg.(value & opt string "brazil" & info [ "d"; "db" ] ~docv:"DB" ~doc)

let handle f =
  match f () with
  | () -> 0
  | exception Err.Mad_error msg ->
    Format.eprintf "error: %s@." msg;
    1

(* ------------------------------------------------------------------ *)
(* Durable sessions                                                     *)

let data_arg =
  let doc =
    "Durable data directory: open (or create, seeded from $(b,--db)) a \
     snapshot + write-ahead-log store.  Manipulation statements are \
     journaled and group-committed at each statement boundary, and the \
     learned statistics catalog persists beside the log as stats.mad."
  in
  Arg.(value & opt (some string) None & info [ "data" ] ~docv:"DIR" ~doc)

let slow_arg =
  let doc =
    "Slow-query threshold in milliseconds: any statement at least this \
     slow appends a JSON line (full statement, plan, EXPLAIN ANALYZE \
     tree, flight-recorder window) to the slow-query log.  The log path \
     defaults to slow-query.log; MAD_SLOW_LOG=MS:FILE sets both at once."
  in
  Arg.(value & opt (some float) None & info [ "slow-log" ] ~docv:"MS" ~doc)

(* [None] leaves the MAD_SLOW_LOG configuration alone *)
let apply_slow = function
  | None -> ()
  | Some ms -> Mad_obs.Digest.set_slow_log (Some ms)

(* The side state a durable store keeps beside its log: a session's
   learned catalog (stats.mad) and workload digest (digest.mad), and the
   live timeline's frames and probe baselines (timeline.mad).  Every
   [--data] entry point loads and saves it through this one pair.  The
   timeline persists only when it is live at load time, so one that
   starts later cannot overwrite the frames it never loaded. *)
type side = {
  h : Mad_durable.Durable.t;
  session : Mad_mql.Session.t option;
  timeline : Mad_obs.Timeline.t option;
}

let load_side h session =
  let module D = Mad_durable.Durable in
  Option.iter
    (fun (s : Mad_mql.Session.t) ->
      ignore (Mad_mql.Session.load_catalog s (D.stats_path h));
      Option.iter
        (fun dg -> ignore (Mad_obs.Digest.load dg (D.digest_path h)))
        s.digest)
    session;
  let timeline = Mad_obs.Timeline.active () in
  Option.iter
    (fun tl -> ignore (Mad_obs.Timeline.load tl (D.timeline_path h)))
    timeline;
  { h; session; timeline }

let save_side side =
  let module D = Mad_durable.Durable in
  Option.iter
    (fun (s : Mad_mql.Session.t) ->
      ignore (Mad_mql.Session.save_catalog s (D.stats_path side.h));
      Option.iter
        (fun dg -> Mad_obs.Digest.save dg (D.digest_path side.h))
        s.digest)
    side.session;
  Option.iter
    (fun tl -> Mad_obs.Timeline.save tl (D.timeline_path side.h))
    side.timeline

(** Run [f session side] against either a transient session over a
    built-in database or, with [--data], a durable one: recovery on
    open, statement-level group commit, and the side state loaded from
    (and saved back to) the directory.  Every CLI session records a
    workload digest ([madql digest], repl [:digest]). *)
let with_session ?obs db_name data f =
  match data with
  | None ->
    let session = Mad_mql.Session.create ?obs (load_db db_name) in
    ignore (Mad_mql.Session.enable_digest session);
    f session None
  | Some dirname ->
    let h =
      Mad_durable.Durable.open_or_seed ?obs ~snapshot_every:1000
        ~seed:(fun () -> load_db db_name)
        dirname
    in
    Fun.protect
      ~finally:(fun () -> Mad_durable.Durable.close h)
      (fun () ->
        let session = Mad_mql.Session.create ?obs (Mad_durable.Durable.db h) in
        ignore (Mad_mql.Session.enable_digest session);
        ignore
          (Mad_mql.Session.add_on_commit session (fun () ->
               Mad_durable.Durable.commit h));
        let side = load_side h (Some session) in
        Fun.protect
          ~finally:(fun () -> save_side side)
          (fun () -> f session (Some side)))

(* ------------------------------------------------------------------ *)
(* Flight recorder dumps                                                *)

let write_trace path =
  Mad_obs.Recorder.dump (Mad_obs.Recorder.global ()) path;
  Format.eprintf "trace written to %s (%d event(s) recorded)@." path
    (Mad_obs.Recorder.recorded (Mad_obs.Recorder.global ()))

(* ------------------------------------------------------------------ *)
(* Timeline helpers                                                     *)

(* get-or-configure the global timeline and take a frame against the
   session's registry, so :top / :health and the timeline-aware
   subcommands work without MAD_OBS_TICK in the environment *)
let tick_timeline session =
  let tl = Mad_obs.Timeline.configure () in
  ignore
    (Mad_obs.Timeline.tick
       ~epoch:(Database.epoch session.Mad_mql.Session.db)
       tl
       (Mad_obs.Obs.registry session.Mad_mql.Session.obs));
  tl

let pp_health ppf tl =
  let h = Mad_obs.Timeline.health tl in
  Format.fprintf ppf "health: %s (exit %d), %d frame(s)@."
    (Mad_obs.Timeline.health_name h)
    (Mad_obs.Timeline.health_exit h)
    (Mad_obs.Timeline.sampled tl);
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-28s %s (fired %d)@." (Mad_obs.Probe.id p)
        (if Mad_obs.Probe.firing p then "FIRING" else "ok")
        p.Mad_obs.Probe.p_fired)
    (Mad_obs.Timeline.probes tl)

(* ------------------------------------------------------------------ *)
(* repl                                                                 *)

let repl db_name data slow =
  handle @@ fun () ->
  apply_slow slow;
  with_session db_name data @@ fun session side ->
  let db = session.Mad_mql.Session.db in
  (match side with
   | None -> Format.printf "madql: %s loaded (%a)@." db_name Database.pp_summary db
   | Some { h; _ } ->
     Format.printf "madql: %s durable in %s (%a; %a)@." db_name
       (Mad_durable.Durable.dir h) Database.pp_summary db
       Mad_durable.Durable.pp_recovery
       (Mad_durable.Durable.recovery h));
  Format.printf "Type MOL statements ending in ';'. Commands: :quit :schema :types :stats :metrics :digest :drift :top :health :save :trace [FILE] :explain <stmt>@.";
  let buf = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buf = 0 then print_string "MOL> " else print_string "...> ";
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let trimmed = String.trim line in
      if String.equal trimmed ":quit" || String.equal trimmed ":q" then ()
      else if String.equal trimmed ":schema" then begin
        Format.printf "%s@." (Notation.database_to_string db);
        loop ()
      end
      else if String.equal trimmed ":types" then begin
        List.iter
          (fun at -> Format.printf "  %a@." Schema.Atom_type.pp (Database.atom_type db at))
          (Database.atom_type_names db);
        List.iter
          (fun lt -> Format.printf "  %a@." Schema.Link_type.pp (Database.link_type db lt))
          (Database.link_type_names db);
        loop ()
      end
      else if String.equal trimmed ":stats" then begin
        let s = session.Mad_mql.Session.stats in
        Format.printf "atoms visited: %d, links traversed: %d@."
          (Mad.Derive.atoms_visited s)
          (Mad.Derive.links_traversed s);
        loop ()
      end
      else if String.equal trimmed ":metrics" then begin
        let registry = Mad_obs.Obs.registry session.Mad_mql.Session.obs in
        Mad_obs.Timeline.update_runtime ~epoch:(Database.epoch db) registry;
        print_string (Mad_obs.Registry.expose registry);
        loop ()
      end
      else if String.equal trimmed ":digest" then begin
        (match session.Mad_mql.Session.digest with
         | None -> Format.printf "no digest recorded@."
         | Some dg ->
           Format.printf "%a" Mad_obs.Digest.pp_table
             (Mad_obs.Digest.top 20 dg);
           let sw = Mad_obs.Digest.switch_count dg in
           if sw > 0 then Format.printf "plan switches: %d@." sw);
        loop ()
      end
      else if String.equal trimmed ":drift" then begin
        Format.printf "%s@." (Mad_mql.Session.drift_report session);
        loop ()
      end
      else if String.equal trimmed ":top" then begin
        Format.printf "%a" Mad_obs.Timeline.pp_dashboard (tick_timeline session);
        loop ()
      end
      else if String.equal trimmed ":health" then begin
        Format.printf "%a" pp_health (tick_timeline session);
        loop ()
      end
      else if String.equal trimmed ":save" then begin
        (match side with
         | None -> Format.printf "not a durable session (run with --data DIR)@."
         | Some side ->
           Mad_durable.Durable.snapshot side.h;
           save_side side;
           Format.printf "snapshot rolled in %s (side files saved)@."
             (Mad_durable.Durable.dir side.h));
        loop ()
      end
      else if String.equal trimmed ":trace"
              || (String.length trimmed >= 7
                  && String.sub trimmed 0 7 = ":trace ") then begin
        let path =
          if String.equal trimmed ":trace" then "trace.json"
          else String.trim (String.sub trimmed 7 (String.length trimmed - 7))
        in
        (try write_trace path
         with Sys_error msg -> Format.printf "error: %s@." msg);
        loop ()
      end
      else if String.length trimmed >= 9 && String.sub trimmed 0 9 = ":explain " then begin
        let stmt = String.sub trimmed 9 (String.length trimmed - 9) in
        (try Format.printf "%s@." (Mad_mql.Session.explain session stmt)
         with Err.Mad_error msg -> Format.printf "error: %s@." msg);
        loop ()
      end
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        if String.contains line ';' then begin
          let src = Buffer.contents buf in
          Buffer.clear buf;
          (try Format.printf "%s@." (Mad_mql.Session.run_to_string session src)
           with Err.Mad_error msg -> Format.printf "error: %s@." msg)
        end;
        loop ()
      end
  in
  loop ()

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive MOL session")
    Term.(const repl $ db_arg $ data_arg $ slow_arg)

(* ------------------------------------------------------------------ *)
(* query / explain                                                      *)

let stmt_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STATEMENT")

let profile_arg =
  let doc =
    "Also profile the statement (EXPLAIN ANALYZE): estimated vs. actual \
     work per plan node.  $(docv) is pretty (default) or json."
  in
  Arg.(
    value
    & opt ~vopt:(Some "pretty") (some string) None
    & info [ "profile" ] ~docv:"FORMAT" ~doc)

(* print the reply and the profile of the one run that produced it *)
let print_reply reply =
  print_string reply;
  if reply <> "" && reply.[String.length reply - 1] <> '\n' then
    print_newline ()

let profile_report fmt (r : Mad_mql.Profile.t) =
  match fmt with
  | "json" ->
    Format.printf "%s@." (Mad_obs.Json.to_string (Mad_mql.Profile.to_json r))
  | _ -> Format.printf "%a@." Mad_mql.Profile.pp r

let trace_arg =
  let doc =
    "Dump the engine's flight recorder (ring-buffered spans, WAL, kernel \
     and snapshot events) to $(docv) as Chrome trace-event JSON after the \
     statement ran — open it in Perfetto or about://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let query db_name data profile trace slow stmt =
  handle @@ fun () ->
  apply_slow slow;
  (match profile with
   | Some ("pretty" | "json") | None -> ()
   | Some other ->
     Err.failf "unknown profile format %s (expected pretty or json)" other);
  (with_session db_name data @@ fun session _durable ->
   match profile with
   | None -> print_string (Mad_mql.Session.run_to_string session stmt)
   | Some fmt ->
     let outcome, r = Mad_mql.Session.run_profiled session stmt in
     print_reply (Mad_mql.Session.render session outcome);
     profile_report fmt r);
  (* dump after the session closed so the final group commit's fsync is
     part of the trace *)
  match trace with None -> () | Some path -> write_trace path

let query_cmd =
  Cmd.v (Cmd.info "query" ~doc:"Evaluate one MOL statement")
    Term.(
      const query $ db_arg $ data_arg $ profile_arg $ trace_arg $ slow_arg
      $ stmt_arg)

let analyze_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Execute the statement and report estimated vs. actual roots, \
           atoms and links per plan node (EXPLAIN ANALYZE).")

let explain db_name data analyze stmt =
  handle @@ fun () ->
  with_session db_name data @@ fun session _durable ->
  if analyze then
    Format.printf "%s@."
      (Mad_mql.Session.run_to_string session ("EXPLAIN ANALYZE " ^ stmt))
  else
    Format.printf "%s@." (Mad_mql.Session.explain ~estimates:true session stmt)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the plan the statement runs, with estimated work")
    Term.(const explain $ db_arg $ data_arg $ analyze_arg $ stmt_arg)

(* ------------------------------------------------------------------ *)
(* schema / dot                                                         *)

let schema db_name formal =
  handle @@ fun () ->
  let db = load_db db_name in
  if formal then Format.printf "%s@." (Notation.database_to_string db)
  else begin
    Format.printf "%a@." Database.pp_summary db;
    List.iter
      (fun at -> Format.printf "  %a@." Schema.Atom_type.pp (Database.atom_type db at))
      (Database.atom_type_names db);
    List.iter
      (fun lt -> Format.printf "  %a@." Schema.Link_type.pp (Database.link_type db lt))
      (Database.link_type_names db)
  end

let formal_arg =
  Arg.(value & flag & info [ "formal" ] ~doc:"Print the Fig. 4 formal notation.")

let schema_cmd =
  Cmd.v (Cmd.info "schema" ~doc:"Print the database schema")
    Term.(const schema $ db_arg $ formal_arg)

let dot db_name occurrence =
  handle @@ fun () ->
  let db = load_db db_name in
  if occurrence then print_string (Dot.occurrence_to_string db)
  else print_string (Dot.schema_to_string db)

let occurrence_arg =
  Arg.(value & flag & info [ "occurrence" ] ~doc:"Emit the atom networks instead of the schema.")

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Emit Graphviz DOT")
    Term.(const dot $ db_arg $ occurrence_arg)

(* split a MOL script into statements at top-level ';' (strings may
   contain semicolons) *)
let split_statements src =
  let out = ref [] in
  let buf = Buffer.create 256 in
  let n = String.length src in
  let rec go i in_string =
    if i >= n then begin
      if String.trim (Buffer.contents buf) <> "" then
        out := Buffer.contents buf :: !out
    end
    else begin
      let c = src.[i] in
      Buffer.add_char buf c;
      if in_string then go (i + 1) (c <> '\'')
      else if c = '\'' then go (i + 1) true
      else if c = ';' then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf;
        go (i + 1) false
      end
      else go (i + 1) false
    end
  in
  go 0 false;
  List.rev !out

let script db_name data slow path =
  handle @@ fun () ->
  apply_slow slow;
  with_session db_name data @@ fun session _durable ->
  let src =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  List.iter
    (fun stmt ->
      let trimmed = String.trim stmt in
      Format.printf "MOL> %s@." trimmed;
      Format.printf "%s@." (Mad_mql.Session.run_to_string session trimmed))
    (split_statements src)

let script_path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT.mql")

let script_cmd =
  Cmd.v (Cmd.info "script" ~doc:"Execute a file of MOL statements")
    Term.(const script $ db_arg $ data_arg $ slow_arg $ script_path_arg)

(* ------------------------------------------------------------------ *)
(* stats — run statements, expose the session registry                  *)

let run_all session stmts =
  List.iter
    (fun src ->
      List.iter
        (fun stmt -> ignore (Mad_mql.Session.run session (String.trim stmt)))
        (split_statements src))
    stmts

(* "\027[2J" clears, "\027[H" homes the cursor: re-render in place *)
let clear_screen () = print_string "\027[2J\027[H"

let stats db_name watch count stmts =
  handle @@ fun () ->
  let db = load_db db_name in
  (* a private context: timed spans drive the op.latency_us
     histograms; the registry is the product *)
  let obs = Mad_obs.Obs.create () in
  let session = Mad_mql.Session.create ~obs db in
  ignore (Mad_mql.Session.enable_digest session);
  (* refresh the runtime.* gauges right before rendering, so the
     exposition reflects the process now, not Obs-creation time *)
  let expose () =
    let registry = Mad_obs.Obs.registry obs in
    Mad_obs.Timeline.update_runtime ~epoch:(Database.epoch db) registry;
    Mad_obs.Registry.expose registry
  in
  match watch with
  | None ->
    run_all session stmts;
    print_string (expose ())
  | Some secs ->
    (* watch mode: re-run the statements and re-render the registry in
       place every SECS seconds ([--count] bounds the iterations) *)
    let i = ref 0 in
    while count = 0 || !i < count do
      run_all session stmts;
      clear_screen ();
      Format.printf "madql stats --watch %g  (iteration %d)@." secs (!i + 1);
      print_string (expose ());
      flush stdout;
      incr i;
      if count = 0 || !i < count then Unix.sleepf (Float.max 0.01 secs)
    done

let stats_stmts_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"STATEMENTS"
        ~doc:"MOL statements to execute before exposing the metrics.")

let watch_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "watch" ] ~docv:"SECS"
        ~doc:
          "Re-run the statements and re-render the metrics table in place \
           every $(docv) seconds.")

let count_arg =
  Arg.(
    value & opt int 0
    & info [ "count" ] ~docv:"N"
        ~doc:"With $(b,--watch), stop after $(docv) iterations (0 = forever).")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Execute MOL statements and print the session's metrics registry \
          as Prometheus text (counters, gauges, op.latency_us histograms \
          with flight-recorder exemplars).  With $(b,--watch) the table \
          re-renders in place.")
    Term.(const stats $ db_arg $ watch_arg $ count_arg $ stats_stmts_arg)

(* ------------------------------------------------------------------ *)
(* digest — run statements, report the workload digest                  *)

let digest db_name data top_k by json slow stmts =
  handle @@ fun () ->
  apply_slow slow;
  with_session db_name data @@ fun session _durable ->
  List.iter
    (fun src ->
      List.iter
        (fun stmt ->
          (* keep going on statement errors: failed calls are part of
             the digest (the errors column), not a reason to stop *)
          try ignore (Mad_mql.Session.run session (String.trim stmt))
          with Err.Mad_error msg -> Format.eprintf "error: %s@." msg)
        (split_statements src))
    stmts;
  let dg =
    match session.Mad_mql.Session.digest with
    | Some dg -> dg
    | None -> Mad_mql.Session.enable_digest session
  in
  let by =
    match by with
    | "total" -> `Total
    | "mean" -> `Mean
    | "calls" -> `Calls
    | other -> Err.failf "unknown order %s (expected total, mean or calls)" other
  in
  if json then
    Format.printf "%s@."
      (Mad_obs.Json.to_string (Mad_obs.Digest.to_json ~by ~top:top_k dg))
  else begin
    Format.printf "%a" Mad_obs.Digest.pp_table (Mad_obs.Digest.top ~by top_k dg);
    let sw = Mad_obs.Digest.switch_count dg in
    if sw > 0 then Format.printf "plan switches: %d@." sw
  end

let top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K" ~doc:"Show the top $(docv) digest rows.")

let by_arg =
  Arg.(
    value & opt string "total"
    & info [ "by" ] ~docv:"ORDER"
        ~doc:"Rank rows by $(docv): total (latency), mean or calls.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the digest as JSON instead of a table.")

let digest_stmts_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"STATEMENTS"
        ~doc:"MOL statements to execute before reporting the digest.")

let digest_cmd =
  Cmd.v
    (Cmd.info "digest"
       ~doc:
         "Execute MOL statements and report the workload digest: one row \
          per (statement fingerprint, plan hash) with calls, errors, rows, \
          latency (mean/p95/max), EXPLAIN ANALYZE drift, and plan \
          switches.  With $(b,--data) the digest merges with (and persists \
          to) the directory's digest.mad, so the report spans sessions.")
    Term.(
      const digest $ db_arg $ data_arg $ top_arg $ by_arg $ json_arg
      $ slow_arg $ digest_stmts_arg)

(* ------------------------------------------------------------------ *)
(* trace — run statements, dump the flight recorder                     *)

let trace db_name data out stmts =
  handle @@ fun () ->
  (with_session db_name data @@ fun session _durable ->
   List.iter
     (fun src ->
       List.iter
         (fun stmt -> ignore (Mad_mql.Session.run session (String.trim stmt)))
         (split_statements src))
     stmts);
  write_trace out

let trace_out_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the Chrome trace to $(docv) (default trace.json).")

let trace_stmts_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"STATEMENTS"
        ~doc:"MOL statements to execute before dumping the recorder.")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute MOL statements (against $(b,--db) or a durable \
          $(b,--data) store) and dump the engine's flight recorder as \
          Chrome trace-event JSON: one track per thread plus WAL and \
          planner tracks, loadable in Perfetto or about://tracing.")
    Term.(const trace $ db_arg $ data_arg $ trace_out_arg $ trace_stmts_arg)

(* ------------------------------------------------------------------ *)
(* timeline / health / top — the telemetry timeline                     *)

(* run the statements with one explicit frame per statement, so probe
   behaviour is deterministic regardless of the wall-clock interval;
   [inject = Some (k, ms)] turns on the slow-statement fault after the
   first [k] statements (the health-smoke fault injection) *)
let run_ticked session tl ~inject ~repeat stmts =
  let registry = Mad_obs.Obs.registry session.Mad_mql.Session.obs in
  let i = ref 0 in
  Fun.protect
    ~finally:(fun () -> Mad_mql.Session.fault_spin_ms := None)
    (fun () ->
      for _ = 1 to max 1 repeat do
        List.iter
          (fun src ->
            List.iter
              (fun stmt ->
                (match inject with
                 | Some (k, ms) when !i >= k ->
                   Mad_mql.Session.fault_spin_ms := Some ms
                 | Some _ | None -> ());
                (* statement errors feed the frame (error storms are
                   exactly what a probe should see), not stop the run *)
                (try ignore (Mad_mql.Session.run session (String.trim stmt))
                 with Err.Mad_error msg -> Format.eprintf "error: %s@." msg);
                incr i;
                ignore
                  (Mad_obs.Timeline.tick
                     ~epoch:(Database.epoch session.Mad_mql.Session.db)
                     tl registry))
              (split_statements src))
          stmts
      done)

let write_timeline_json tl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Mad_obs.Json.to_string (Mad_obs.Timeline.to_json tl));
      output_char oc '\n');
  Format.eprintf "timeline written to %s (%d frame(s))@." path
    (Mad_obs.Timeline.sampled tl)

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:"Run the statement list $(docv) times (one frame per statement).")

let timeline_stmts_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"STATEMENTS"
        ~doc:"MOL statements to execute, one timeline frame each.")

let timeline db_name data repeat json csv out stmts =
  handle @@ fun () ->
  if json && csv then Err.failf "--json and --csv are mutually exclusive";
  let tl = Mad_obs.Timeline.configure () in
  with_session db_name data @@ fun session _durable ->
  run_ticked session tl ~inject:None ~repeat stmts;
  if csv then print_string (Mad_obs.Timeline.to_csv tl)
  else
    match out with
    | Some path -> write_timeline_json tl path
    | None ->
      print_string (Mad_obs.Json.to_string (Mad_obs.Timeline.to_json tl));
      print_newline ()

let timeline_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the timeline as JSON (default).")

let timeline_csv_arg =
  Arg.(
    value & flag
    & info [ "csv" ]
        ~doc:
          "Emit the timeline as long-format CSV \
           (frame,unix,ticks,kind,name,labels,value,sum).")

let timeline_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the JSON export to $(docv) instead of stdout.")

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Execute MOL statements, sampling one telemetry frame per \
          statement (registry counters and gauges, histogram summaries, \
          runtime.* GC/heap gauges), and export the frame ring as JSON or \
          CSV.  With $(b,--data), frames and probe baselines merge with \
          (and persist to) the directory's timeline.mad.")
    Term.(
      const timeline $ db_arg $ data_arg $ repeat_arg $ timeline_json_arg
      $ timeline_csv_arg $ timeline_out_arg $ timeline_stmts_arg)

(* --inject-slow K:MS — after the first K statements, every statement
   busy-waits MS milliseconds inside its timed block *)
let parse_inject spec =
  match String.index_opt spec ':' with
  | Some i -> begin
    match
      ( int_of_string_opt (String.sub spec 0 i),
        float_of_string_opt
          (String.sub spec (i + 1) (String.length spec - i - 1)) )
    with
    | Some k, Some ms when k >= 0 && ms >= 0.0 -> (k, ms)
    | _ -> Err.failf "invalid --inject-slow %s (expected K:MS)" spec
  end
  | None -> Err.failf "invalid --inject-slow %s (expected K:MS)" spec

let health db_name data repeat json export inject stmts =
  match
    (fun () ->
      let inject = Option.map parse_inject inject in
      let tl = Mad_obs.Timeline.configure () in
      (with_session db_name data @@ fun session _durable ->
       run_ticked session tl ~inject ~repeat stmts);
      (match export with Some path -> write_timeline_json tl path | None -> ());
      if json then begin
        print_string (Mad_obs.Json.to_string (Mad_obs.Timeline.health_json tl));
        print_newline ()
      end
      else Format.printf "%a" pp_health tl;
      (* the health exit-code contract: 0 ok, 1 degraded, 2 unhealthy *)
      Mad_obs.Timeline.health_exit (Mad_obs.Timeline.health tl))
      ()
  with
  | code -> code
  (* every failure mode maps to the documented exit 3, not cmdliner's
     generic 125 — CI asserts the 0/1/2/3 contract *)
  | exception Err.Mad_error msg ->
    Format.eprintf "error: %s@." msg;
    3
  | exception Sys_error msg ->
    Format.eprintf "error: %s@." msg;
    3
  | exception e ->
    Format.eprintf "error: %s@." (Printexc.to_string e);
    3

let health_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the health document (state, exit, probes) as JSON.")

let health_export_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export" ] ~docv:"FILE"
        ~doc:"Also write the full timeline (frames and probes) as JSON.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-slow" ] ~docv:"K:MS"
        ~doc:
          "Fault injection for smoke tests: after the first $(i,K) \
           statements, every statement spins $(i,MS) milliseconds inside \
           its timed block, which the latency probe should flag.")

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Execute MOL statements (one telemetry frame each) and report the \
          process health verdict from the anomaly probes (latency \
          regression per statement fingerprint, plan-switch storms, \
          snapshot-invalidation thrash, heap growth).  Exit code: 0 ok, 1 \
          degraded (one probe firing), 2 unhealthy (two or more), 3 on \
          errors."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"healthy: no probe firing";
           Cmd.Exit.info 1 ~doc:"degraded: one probe firing";
           Cmd.Exit.info 2 ~doc:"unhealthy: two or more probes firing";
           Cmd.Exit.info 3 ~doc:"the statements or options failed";
         ])
    Term.(
      const health $ db_arg $ data_arg $ repeat_arg $ health_json_arg
      $ health_export_arg $ inject_arg $ timeline_stmts_arg)

let top db_name data interval count stmts =
  handle @@ fun () ->
  let tl = Mad_obs.Timeline.configure () in
  with_session db_name data @@ fun session _durable ->
  let i = ref 0 in
  while count = 0 || !i < count do
    (* each refresh re-runs the statement list (the observed workload)
       and takes a frame; with no statements the runtime gauges still
       move *)
    run_ticked session tl ~inject:None ~repeat:1 stmts;
    if stmts = [] then ignore (tick_timeline session);
    clear_screen ();
    Format.printf "madql top — refresh %gs  (q: Ctrl-C)@." interval;
    Format.printf "%a" Mad_obs.Timeline.pp_dashboard tl;
    flush stdout;
    incr i;
    if count = 0 || !i < count then Unix.sleepf (Float.max 0.05 interval)
  done

let top_interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between refreshes.")

let top_count_arg =
  Arg.(
    value & opt int 0
    & info [ "count" ] ~docv:"N" ~doc:"Stop after $(docv) refreshes (0 = forever).")

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of the telemetry timeline: health verdict, \
          runtime GC/heap gauges, the busiest counters over the last frame \
          window, and the anomaly-probe table, re-rendered in place.  \
          Positional statements are re-run at each refresh as the observed \
          workload.")
    Term.(
      const top $ db_arg $ data_arg $ top_interval_arg $ top_count_arg
      $ timeline_stmts_arg)

let dump db_name out =
  handle @@ fun () ->
  let db = load_db db_name in
  match out with
  | None -> print_string (Serialize.dump db)
  | Some path ->
    Serialize.dump_file db path;
    Format.printf "wrote %s (%d atoms, %d links)@." path
      (Database.total_atoms db) (Database.total_links db)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

let dump_cmd =
  Cmd.v (Cmd.info "dump" ~doc:"Dump a database as a .mad text file")
    Term.(const dump $ db_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* recovery — the fault-injection suite (CI's recovery-smoke job)       *)

let recovery_report_json (r : Mad_durable.Harness.report) =
  Mad_obs.Json.(
    Obj
      [
        ("seed", Num (float_of_int r.Mad_durable.Harness.seed));
        ("ops", Num (float_of_int r.ops));
        ("records", Num (float_of_int r.records));
        ("scenarios", Num (float_of_int r.scenarios));
        ("torn_recoveries", Num (float_of_int r.torn_recoveries));
        ("converged", Bool (Mad_durable.Harness.converged r));
        ("failures", List (List.map (fun f -> Str f) r.failures));
      ])

let recovery seed ops dir report_file =
  handle @@ fun () ->
  let dir, cleanup =
    match dir with
    | Some d -> (d, false)
    | None ->
      ( Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "madql-recovery-seed%d" seed),
        true )
  in
  let r = Mad_durable.Harness.run ~seed ~ops ~dir () in
  if cleanup then Mad_durable.Harness.rm_rf dir;
  Format.printf "%a@." Mad_durable.Harness.pp_report r;
  (match report_file with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc (Mad_obs.Json.to_string (recovery_report_json r));
         output_char oc '\n');
     Format.printf "report written to %s@." path);
  if not (Mad_durable.Harness.converged r) then
    Err.failf "recovery diverged in %d scenario(s)"
      (List.length r.Mad_durable.Harness.failures)

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N" ~doc:"Workload seed (one suite per seed).")

let ops_arg =
  Arg.(
    value & opt int 60
    & info [ "ops" ] ~docv:"N" ~doc:"DML decisions in the workload.")

let dir_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Run the scenarios under $(docv) and keep them (default: a \
           throwaway directory under the system temp dir).")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")

let recovery_cmd =
  Cmd.v
    (Cmd.info "recovery"
       ~doc:
         "Run the crash-recovery fault-injection suite: a seeded DML \
          workload killed (process death and torn final record) at every \
          WAL record boundary, with recovery convergence asserted at each \
          crash point.  Exits non-zero on any divergence.")
    Term.(const recovery $ seed_arg $ ops_arg $ dir_opt_arg $ report_arg)

(* ------------------------------------------------------------------ *)
(* serve / connect — the network service                                *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind (serve) or connect address.")

let serve_port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port; 0 (the default) picks an ephemeral port, printed on startup.")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker threads — the maximum connections served concurrently \
           (default 4).  The server is one OCaml domain: statements run \
           one at a time under the engine lock, and the threads overlap \
           socket IO and fsync waits.")

let pending_arg =
  Arg.(
    value & opt int 16
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Accepted connections allowed to wait for a worker; beyond this \
           the handshake answers busy and the connection is closed \
           (admission control).")

let idle_arg =
  Arg.(
    value & opt float 300.0
    & info [ "idle-timeout" ] ~docv:"SECS"
        ~doc:"Close a connection idle for $(docv) seconds (a Bye is sent).")

let serve_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Dump the flight recorder as Chrome trace JSON on shutdown.")

let serve db_name data port host workers max_pending idle slow trace =
  handle @@ fun () ->
  apply_slow slow;
  let base = Mad_serve.Serve.default_config in
  let config =
    {
      base with
      Mad_serve.Serve.host;
      port;
      workers = (match workers with Some w -> w | None -> base.Mad_serve.Serve.workers);
      max_pending;
      idle_timeout = idle;
    }
  in
  (* the serve.* metrics and the coordinator's serve.group.* land here;
     this registry is what the Stats request exposes *)
  let obs = Mad_obs.Obs.create () in
  let run_server side srv =
    let stop_signal _ = Mad_serve.Serve.request_stop srv in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
    (* CI and scripts parse this line for the ephemeral port; "@." flushes *)
    Format.printf "listening on %s:%d (%d worker(s), %d pending)@." host
      (Mad_serve.Serve.port srv)
      (Mad_serve.Serve.config srv).Mad_serve.Serve.workers max_pending;
    (* the signal handler only flips an atomic (joining the server's
       threads from a handler would block); this loop notices it and
       does the real shutdown *)
    while not (Mad_serve.Serve.stopped srv) do
      Unix.sleepf 0.2
    done;
    Mad_serve.Serve.stop srv;
    Format.eprintf "server stopped (%d connection(s) served)@."
      (Mad_serve.Serve.connections srv);
    Option.iter save_side side;
    match trace with Some path -> write_trace path | None -> ()
  in
  match data with
  | None -> run_server None (Mad_serve.Serve.start ~obs ~config (load_db db_name))
  | Some dirname ->
    (* no snapshot_every: auto-rolling truncates the WAL mid-stream,
       which would break the coordinator's monotone positions — the
       shutdown snapshot below bounds recovery instead *)
    let h =
      Mad_durable.Durable.open_or_seed ~obs
        ~seed:(fun () -> load_db db_name)
        dirname
    in
    Fun.protect
      ~finally:(fun () -> Mad_durable.Durable.close ~snapshot:true h)
      (fun () ->
        (* connections keep their own sessions: the side state a server
           persists is the timeline's *)
        let side = load_side h None in
        run_server (Some side)
          (Mad_serve.Serve.start ~obs ~config ~durable:h
             (Mad_durable.Durable.db h)))

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the database over TCP (see doc/SERVING.md for the wire \
          protocol): one MOL session per connection, bounded worker pool \
          with typed-busy admission control, and — with $(b,--data) — \
          cross-session group commit: concurrent writers are acknowledged \
          by shared batched fsyncs.  SIGINT/SIGTERM drain in-flight \
          requests and, for durable stores, roll a shutdown snapshot."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"clean shutdown";
           Cmd.Exit.info 1
             ~doc:
               "startup or shutdown failed: unresolvable or unbindable \
                address, or a $(b,--data) directory that cannot be created, \
                is not a directory, or is not writable";
         ])
    Term.(
      const serve $ db_arg $ data_arg $ serve_port_arg $ host_arg
      $ workers_arg $ pending_arg $ idle_arg $ slow_arg $ serve_trace_arg)

(* pull "exit": N out of the health JSON document — the client passes
   the server's health exit-code contract through *)
let health_exit_of_json doc =
  let key = "\"exit\":" in
  let n = String.length doc and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.equal (String.sub doc i k) key then Some (i + k)
    else find (i + 1)
  in
  match find 0 with
  | None -> 0
  | Some j ->
    let j = ref j in
    while !j < n && doc.[!j] = ' ' do
      incr j
    done;
    let e = ref !j in
    while !e < n && doc.[!e] >= '0' && doc.[!e] <= '9' do
      incr e
    done;
    if !e > !j then int_of_string (String.sub doc !j (!e - !j)) else 0

let connect_port_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Port of the running serve endpoint.")

let exec_flag_arg =
  Arg.(
    value & flag
    & info [ "exec" ]
        ~doc:
          "Send statements as Exec (effect summaries) instead of Query \
           (rendered results) — the DML-friendly mode.")

let client_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "timeout" ] ~docv:"SECS" ~doc:"Per-request response timeout.")

let ping_flag_arg =
  Arg.(value & flag & info [ "ping" ] ~doc:"Ping the server after the statements.")

let client_stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the server's metrics registry (Prometheus text).")

let client_health_arg =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Print the server's health verdict (JSON) and exit with its \
           0/1/2 health code.")

let connect_stmts_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"STATEMENTS" ~doc:"MOL statements to send, in order.")

let connect_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a merged client/server Chrome trace: one slice per \
           request as the client saw it, and the server-reported phase \
           breakdown (lock, exec, wal, fsync, other) nested inside each \
           request's window.")

(* One traced request as the client observed it: the statement, its
   client-side window (ticks + duration), and the server-reported phase
   breakdown (µs). *)
type traced_req = {
  tr_name : string;
  tr_ticks : int;
  tr_dur_ns : int;
  tr_phases : (string * float) list;
}

(* Merged trace export: the client's request windows on one track, the
   server's phase slices laid out sequentially inside each window on a
   second track, so both sides of the wire line up in one timeline. *)
let write_connect_trace path reqs =
  let reqs = List.rev reqs in
  let base =
    List.fold_left (fun acc r -> min acc r.tr_ticks) max_int reqs
  in
  let base = if base = max_int then 0 else base in
  let us ticks = float_of_int (max 0 (ticks - base)) /. 1e3 in
  let slice ~name ~cat ~ts ~dur ~tid args =
    Mad_obs.Json.Obj
      [
        ("name", Mad_obs.Json.Str name);
        ("cat", Mad_obs.Json.Str cat);
        ("ph", Mad_obs.Json.Str "X");
        ("ts", Mad_obs.Json.Num ts);
        ("dur", Mad_obs.Json.Num dur);
        ("pid", Mad_obs.Json.Num 1.0);
        ("tid", Mad_obs.Json.Num (float_of_int tid));
        ("args", Mad_obs.Json.Obj args);
      ]
  in
  let thread_meta tid name =
    Mad_obs.Json.Obj
      [
        ("name", Mad_obs.Json.Str "thread_name");
        ("ph", Mad_obs.Json.Str "M");
        ("pid", Mad_obs.Json.Num 1.0);
        ("tid", Mad_obs.Json.Num (float_of_int tid));
        ("args", Mad_obs.Json.Obj [ ("name", Mad_obs.Json.Str name) ]);
      ]
  in
  let events = ref [] in
  let n_phases = ref 0 in
  List.iteri
    (fun i r ->
      let ts = us r.tr_ticks in
      events :=
        slice ~name:r.tr_name ~cat:"client.request" ~ts
          ~dur:(float_of_int r.tr_dur_ns /. 1e3)
          ~tid:1
          [ ("request", Mad_obs.Json.Num (float_of_int (i + 1))) ]
        :: !events;
      (* the server reports per-phase durations, not offsets: lay the
         slices out back to back from the request's start, which matches
         their true order (lock -> exec -> wal -> fsync) *)
      let off = ref ts in
      List.iter
        (fun (phase, dur_us) ->
          if dur_us > 0.0 then begin
            incr n_phases;
            events :=
              slice ~name:phase ~cat:"serve.phase" ~ts:!off ~dur:dur_us
                ~tid:2
                [
                  ("request", Mad_obs.Json.Num (float_of_int (i + 1)));
                  ("us", Mad_obs.Json.Num dur_us);
                ]
              :: !events;
            off := !off +. dur_us
          end)
        r.tr_phases)
    reqs;
  let doc =
    Mad_obs.Json.Obj
      [
        ( "traceEvents",
          Mad_obs.Json.List
            (Mad_obs.Json.Obj
               [
                 ("name", Mad_obs.Json.Str "process_name");
                 ("ph", Mad_obs.Json.Str "M");
                 ("pid", Mad_obs.Json.Num 1.0);
                 ( "args",
                   Mad_obs.Json.Obj
                     [ ("name", Mad_obs.Json.Str "madql connect") ] );
               ]
            :: thread_meta 1 "client requests"
            :: thread_meta 2 "server phases"
            :: List.rev !events) );
        ("displayTimeUnit", Mad_obs.Json.Str "ms");
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    (fun () ->
      output_string oc (Mad_obs.Json.to_string doc);
      output_char oc '\n');
  Format.eprintf
    "trace written to %s (%d request(s), %d server phase slice(s))@." path
    (List.length reqs) !n_phases

let connect host port exec_mode timeout do_ping show_stats show_health trace
    stmts =
  match Mad_serve.Client.connect ~timeout ~host port with
  | Error e ->
    Format.eprintf "error: %a@." Mad_serve.Client.pp_connect_error e;
    1
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf "error: cannot connect to %s:%d: %s@." host port
      (Unix.error_message e);
    1
  | Ok c ->
    let rc = ref 0 in
    let traced = ref [] in
    let span = ref 0 in
    Fun.protect
      ~finally:(fun () ->
        Mad_serve.Client.close c;
        match trace with
        | Some path -> write_connect_trace path !traced
        | None -> ())
      (fun () ->
        try
          List.iter
            (fun src ->
              List.iter
                (fun stmt ->
                  let stmt = String.trim stmt in
                  let r =
                    match trace with
                    | Some _ when not exec_mode ->
                      incr span;
                      let t0 = Mad_obs.Monotonic.ticks () in
                      let r =
                        Mad_serve.Client.query_traced ~span:!span c stmt
                      in
                      let t1 = Mad_obs.Monotonic.ticks () in
                      let phases =
                        match r with Ok (_, ph) -> ph | Error _ -> []
                      in
                      traced :=
                        {
                          tr_name = stmt;
                          tr_ticks = t0;
                          tr_dur_ns = t1 - t0;
                          tr_phases = phases;
                        }
                        :: !traced;
                      Result.map fst r
                    | _ ->
                      if exec_mode then Mad_serve.Client.exec c stmt
                      else Mad_serve.Client.query c stmt
                  in
                  match r with
                  | Ok out -> if out <> "" then Format.printf "%s@." out
                  | Error msg ->
                    rc := 1;
                    Format.eprintf "error: %s@." msg)
                (split_statements src))
            stmts;
          if do_ping then
            if Mad_serve.Client.ping c then Format.printf "pong@."
            else begin
              rc := 1;
              Format.eprintf "error: no pong@."
            end;
          if show_stats then print_string (Mad_serve.Client.stats c);
          if show_health then begin
            let doc = Mad_serve.Client.health c in
            Format.printf "%s@." doc;
            rc := max !rc (health_exit_of_json doc)
          end;
          !rc
        with Mad_serve.Client.Remote msg ->
          Format.eprintf "error: %s@." msg;
          1)

let connect_cmd =
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Connect to a running $(b,madql serve) endpoint and send MOL \
          statements over the wire protocol; $(b,--stats), $(b,--health) \
          and $(b,--ping) query the server's observability surface, and \
          $(b,--trace) exports a merged client/server request timeline."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"all statements succeeded (health: ok)";
           Cmd.Exit.info 1
             ~doc:
               "connection refused/busy/mismatched, a statement failed, or \
                (with $(b,--health)) the server is degraded";
           Cmd.Exit.info 2 ~doc:"with $(b,--health): the server is unhealthy";
         ])
    Term.(
      const connect $ host_arg $ connect_port_arg $ exec_flag_arg
      $ client_timeout_arg $ ping_flag_arg $ client_stats_arg
      $ client_health_arg $ connect_trace_arg $ connect_stmts_arg)

let () =
  let info =
    Cmd.info "madql" ~version:"1.0"
      ~doc:"The MOL (molecule query language) processor over the MAD model"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            repl_cmd; query_cmd; explain_cmd; schema_cmd; dot_cmd; dump_cmd;
            script_cmd; stats_cmd; digest_cmd; trace_cmd; timeline_cmd;
            health_cmd; top_cmd; recovery_cmd; serve_cmd; connect_cmd;
          ]))
