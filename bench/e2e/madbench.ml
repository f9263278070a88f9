(* madbench — the served-MOL benchmark.

   One run: generate the workload's database from the seed and dump it;
   compute the answer oracle in-process; start [madql serve] on the dump
   several times, timing each set-up and keeping the last server; check
   the oracle's answers over the wire; drive the workload's connections
   through a warm-up and the measured window; crash the server and
   recover it on the same --data directory to check that every
   acknowledged write survived; time the rest of the set-ups; print the
   metrics.

   With [--trace 1] the second half of the window asks the server for
   each request's phases, the server's counters are read after the
   window, the recovery is timed, and the whole statement stream is
   replayed in-process with the engine's layers timed one by one (see
   [Replay]); the spans go to bench-trace.json.

     madbench --workload W --seed N --seconds S --trace 0|1 [--madql PATH]

   The last line of standard output is the result as one JSON object. *)

module Client = Mad_serve.Client

let setup_reps = 15
let oracle_n = 50

(* The oracle's statements already warm a server up; the writer's
   open loop needs longer to settle. *)
let warmup kind = if Mix.read_only kind then 1.0 else 2.0

type args = {
  kind : Mix.kind;
  seed : int;
  seconds : float;
  trace : bool;
  madql : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let madql = ref "_build/default/bin/madql.exe" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  geo_adhoc | geo_scan | bom_explode | geo_mixed");
      ("--seed", Arg.Set_int seed, "N  seed of the database and the statement streams");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or per-layer metrics (1)");
      ("--madql", Arg.Set_string madql, "PATH  the madql binary to serve with");
    ]
  in
  let usage = "madbench --workload W --seed N --seconds S --trace 0|1 [--madql PATH]" in
  let bad msg =
    prerr_endline ("madbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  let kind =
    match Mix.of_name !workload with
    | Some k -> k
    | None -> bad ("unknown workload " ^ !workload)
  in
  if !seconds < 1 then bad "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  { kind; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1; madql = !madql }

let connect port =
  match Client.connect ~host:"127.0.0.1" port with
  | Ok c -> c
  | Error e -> Proc.failf "connect: %s" (Format.asprintf "%a" Client.pp_connect_error e)

let query_exn c text =
  match Client.query c text with Ok r -> r | Error m -> Proc.failf "%s: %s" text m

(* Spawn a server and open every workload connection, the readers
   issuing the catalogue definitions: one set-up sample. *)
let setup a ~dump ~data =
  let t0 = Report.now () in
  let roles = Mix.roles a.kind in
  let srv = Proc.spawn ~madql:a.madql ~dump ~data ~workers:(List.length roles) in
  let conns =
    List.map
      (fun role ->
        let c = connect srv.Proc.port in
        if role = Mix.Reader then
          List.iter (fun d -> ignore (query_exn c d)) (Mix.defines a.kind);
        c)
      roles
  in
  (srv, conns, Report.now () -. t0)

(* --- the server's counters (Prometheus text) -------------------------- *)

let prom_lines text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | key :: v :: _ when l <> "" && l.[0] <> '#' ->
           Option.map (fun v -> (key, v)) (float_of_string_opt v)
         | _ -> None)

let prom_value lines key = Option.value (List.assoc_opt key lines) ~default:0.0

(* Quantile of a server histogram, interpolated inside its bucket. *)
let prom_quantile lines ~name ~labels q =
  let prefix = Printf.sprintf "%s_bucket{%s,le=\"" name labels in
  let buckets =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix k then
          let le =
            String.sub k (String.length prefix) (String.length k - String.length prefix - 2)
          in
          Some ((if le = "+Inf" then Float.infinity else float_of_string le), v)
        else None)
      lines
  in
  let total = match List.rev buckets with (_, n) :: _ -> n | [] -> 0.0 in
  let target = q *. total in
  let rec go lo below = function
    | [] -> lo
    | (hi, n) :: rest ->
      if n >= target && n > below then
        if hi < Float.infinity then lo +. ((hi -. lo) *. (target -. below) /. (n -. below))
        else lo
      else go hi n rest
  in
  if total = 0.0 then 0.0 else go 0.0 0.0 buckets

(* --- per-layer metrics -------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum = List.fold_left ( +. ) 0.0
let ms_of_ns n = float_of_int n /. 1e6

(* server-reported phase of a traced sample, in ms *)
let phase name (s : Load.sample) =
  Option.value (List.assoc_opt name s.phases) ~default:0.0 /. 1e3

let rtt_ms (s : Load.sample) = (s.lat -. s.late) *. 1e3
let wire_ms (s : Load.sample) = rtt_ms s -. (sum (List.map snd s.phases) /. 1e3)

(* The served requests of the traced half as spans: the client's round
   trip, the server's phases laid end to end inside it. *)
let served_spans traced =
  List.iter
    (fun (seq, (s : Load.sample)) ->
      let t0 = int_of_float (s.sent *. 1e9) in
      let root =
        Spans.add ~name:("served " ^ s.tmpl) ~track:1 ~conn:s.conn ~trace_id:seq ~t0_ns:t0
          ~dur_ns:(int_of_float (rtt_ms s *. 1e6)) ()
      in
      ignore
        (List.fold_left
           (fun t (name, us) ->
             let d = int_of_float (us *. 1e3) in
             if d > 0 then
               ignore
                 (Spans.add ~name:("serve." ^ name) ~track:1 ~conn:s.conn ~trace_id:seq
                    ~parent:root ~t0_ns:t ~dur_ns:d ());
             t + d)
           t0 s.phases))
    traced

(* [traced]: the traced half's samples with their sequence numbers;
   [untraced_reads]: the first half's reads; [stats]: the server's
   registry after the window. *)
let layer_metrics ~is_read ~stats ~recovery_ms ~untraced_reads ~traced
    ((timings : Replay.timing list), (c : Replay.counters)) =
  let all_traced = List.map snd traced in
  let traced_reads = List.filter (fun (s : Load.sample) -> is_read s.conn) all_traced in
  let rtt_total = sum (List.map rtt_ms all_traced) in
  let share name = ratio (sum (List.map (phase name) all_traced)) rtt_total in
  let lines = prom_lines stats in
  let commits = prom_value lines "serve_group_commits" in
  let read_t = List.filter (fun (t : Replay.timing) -> is_read t.step.conn) timings in
  let n = float_of_int (List.length timings) in
  let total f = float_of_int (List.fold_left (fun a t -> a + f t) 0 timings) in
  let stmt_ns = total Replay.total_ns and eval_ns = total (fun t -> t.Replay.eval_ns) in
  (* served exec against the in-process layers, template by template,
     weighted by the template's statement count *)
  let served_exec = Hashtbl.create 256 in
  List.iter (fun (seq, s) -> Hashtbl.replace served_exec seq (phase "exec" s)) traced;
  let in_process, served =
    List.sort_uniq compare (List.map (fun (t : Replay.timing) -> t.step.tmpl) timings)
    |> List.fold_left
         (fun (num, den) tmpl ->
           let ts = List.filter (fun (t : Replay.timing) -> t.step.tmpl = tmpl) timings in
           let k = float_of_int (List.length ts) in
           let med f = k *. Report.median (List.map f ts) in
           ( num +. med (fun t -> ms_of_ns (Replay.total_ns t)),
             den +. med (fun t -> Hashtbl.find served_exec t.Replay.step.seq) ))
         (0.0, 0.0)
  in
  let med_ms f xs = Report.median (List.map f xs) in
  [
    Report.metric "serve.exec_ms.p50" "ms" (med_ms (phase "exec") traced_reads);
    Report.metric "serve.wire_ms.p50" "ms" (med_ms wire_ms traced_reads);
    Report.metric "serve.write_ms.p50" "ms"
      (prom_quantile lines ~name:"serve_phase_us" ~labels:"phase=\"write\"" 0.5 /. 1e3);
    Report.metric "serve.resp_kb.mean" "kB"
      (Report.mean
         (List.map (fun (s : Load.sample) -> float_of_int s.reply_bytes /. 1024.0) traced_reads));
    Report.metric "serve.lock_share" "ratio" (share "lock");
    Report.metric "serve.exec_share" "ratio" (share "exec");
    Report.metric "serve.wal_share" "ratio" (share "wal");
    Report.metric "serve.fsync_share" "ratio" (share "fsync");
    Report.metric "serve.other_share" "ratio" (share "other");
    Report.metric "serve.wire_share" "ratio" (ratio (sum (List.map wire_ms all_traced)) rtt_total);
    Report.metric "serve.fsyncs_per_commit" "ratio"
      (ratio (prom_value lines "serve_group_fsyncs") commits);
    Report.metric "mql.parse_us.p50" "us"
      (med_ms (fun (t : Replay.timing) -> float_of_int t.parse_ns /. 1e3) timings);
    Report.metric "mql.eval_ms.p50" "ms" (med_ms (fun (t : Replay.timing) -> ms_of_ns t.eval_ns) read_t);
    Report.metric "mql.render_ms.p50" "ms"
      (med_ms (fun (t : Replay.timing) -> ms_of_ns t.render_ns) read_t);
    Report.metric "mql.refresh_share" "ratio" (ratio (total (fun t -> t.Replay.refresh_ns)) stmt_ns);
    Report.metric "mql.rederives_per_stmt" "count" (ratio (total (fun t -> t.Replay.rederived)) n);
    Report.metric "core.define_share" "ratio" (ratio (c.define_us *. 1e3) eval_ns);
    Report.metric "core.restrict_share" "ratio" (ratio (c.restrict_us *. 1e3) eval_ns);
    Report.metric "core.project_share" "ratio" (ratio (c.project_us *. 1e3) eval_ns);
    Report.metric "core.atoms_visited_per_stmt" "count" (ratio (float_of_int c.atoms_visited) n);
    Report.metric "core.visited_per_returned" "ratio"
      (ratio (float_of_int c.atoms_visited) (total (fun t -> t.Replay.returned)));
    Report.metric "kernel.snapshot_share" "ratio"
      (ratio (total (fun t -> t.Replay.snapshot_ns)) stmt_ns);
    Report.metric "kernel.delta_frac" "ratio"
      (ratio (float_of_int c.delta_applied) (float_of_int (c.delta_applied + c.rebuilds)));
    Report.metric "kernel.epoch_moves_per_read" "count"
      (ratio
         (float_of_int (List.fold_left (fun a (t : Replay.timing) -> a + t.epoch_moves) 0 read_t))
         (float_of_int (List.length read_t)));
    Report.metric "kernel.roots_per_stmt" "count" (ratio (float_of_int c.roots) n);
    Report.metric "obs.recorder_events_per_stmt" "count"
      (ratio (float_of_int c.recorder_events) n);
    Report.metric "durable.wal_bytes_per_commit" "B"
      (ratio (prom_value lines "wal_append_bytes") commits);
    Report.metric "durable.recovery_ms" "ms" recovery_ms;
    Report.metric "trace.exec_coverage" "ratio" (ratio in_process served);
    Report.metric "trace.overhead_pct" "%"
      (100.0
       *. (ratio (med_ms rtt_ms traced_reads) (med_ms rtt_ms untraced_reads) -. 1.0));
  ]

(* The traced run's per-layer metrics: spans for the traced half, the
   in-process replay of everything the server received, the server's
   counters and the recovery time. *)
let per_layer a ~dump ~is_read ~oracle ~stats ~recovery_ms ~reads all =
  let conns = List.length (Mix.roles a.kind) in
  let seqd = List.mapi (fun i s -> (i + 1, s)) all in
  let traced = List.filter (fun (_, (s : Load.sample)) -> s.phases <> []) seqd in
  served_spans traced;
  let steps =
    List.map
      (fun (s : Mix.stmt) -> { Replay.seq = 0; conn = 0; tmpl = s.tmpl; text = s.text; timed = false })
      oracle
    @ List.map
        (fun (seq, (s : Load.sample)) ->
          { Replay.seq; conn = s.conn; tmpl = s.tmpl; text = s.text; timed = s.phases <> [] })
        seqd
  in
  let replay =
    (* as many blocked domains as the server has idle: its main and
       accept domains and every worker but the one running the statement *)
    Replay.run ~dump ~conns ~idle:(conns + 1)
      ~readers:(List.filter is_read (List.init conns Fun.id))
      ~defines:(Mix.defines a.kind)
      ~catalogue:(List.map fst (Mix.catalogue a.kind))
      steps
  in
  Spans.write "bench-trace.json";
  let untraced_reads = List.filter (fun (s : Load.sample) -> s.phases = []) reads in
  layer_metrics ~is_read ~stats ~recovery_ms ~untraced_reads ~traced replay

(* --- one run ----------------------------------------------------------- *)

let run a =
  let dir = Proc.init ~tag:(Mix.name a.kind) in
  let inst = Mix.build a.kind a.seed in
  let dump = Filename.concat dir "db.mad" in
  Mad_store.Serialize.dump_file (Mix.database inst) dump;
  let roles = Array.of_list (Mix.roles a.kind) in
  let is_read conn = roles.(conn) = Mix.Reader in
  let oracle = Oracle.sample a.kind ~seed:a.seed ~n:oracle_n in
  let expected = Oracle.expect ~dump ~defines:(Mix.defines a.kind) oracle in
  (* set-up, repeated: half of the samples before the window and half
     after it, so that their median spans the run rather than the
     host's speed in its first second; only the last server before the
     window is kept *)
  let discarded_setup i =
    let data = Filename.concat dir (Printf.sprintf "data%d" i) in
    let srv, conns, dt = setup a ~dump ~data in
    List.iter Client.close conns;
    Proc.crash srv;
    Proc.rm_rf data;
    dt
  in
  let before = List.init (setup_reps / 2) discarded_setup in
  let data = Filename.concat dir "data" in
  let srv, conns, kept = setup a ~dump ~data in
  let mismatches = Oracle.check_answers (List.hd conns) expected in
  (* memory after a fixed amount of work: the load, the catalogue and
     the oracle's statements *)
  let rss_mb = Proc.peak_rss_mb srv.Proc.pid in
  (* warm-up, then the window; in a traced run its second half carries
     phase requests *)
  let start = Report.now () in
  let t_w = start +. warmup a.kind in
  let until = t_w +. a.seconds in
  let t_traced = if a.trace then t_w +. (a.seconds /. 2.0) else Float.infinity in
  let traced t = t >= t_traced in
  let promise_of = Hashtbl.create 256 in
  let loops =
    List.mapi
      (fun i c () ->
        let rng = Mix.rng ~seed:a.seed ~stream:i in
        match roles.(i) with
        | Mix.Reader -> Load.closed_loop ~conn:i ~traced ~until ~next:(Mix.read a.kind rng) c
        | Mix.Writer ->
          Load.open_loop ~conn:i ~traced ~rate:Mix.write_rate ~start ~until
            ~next:(fun k ->
              let w = Mix.write inst rng k in
              Hashtbl.replace promise_of w.Mix.w.text w.Mix.promise;
              w.Mix.w)
            c)
      conns
  in
  let all =
    List.concat (Load.in_parallel loops)
    |> List.sort (fun (x : Load.sample) y -> compare x.sent y.sent)
  in
  let stats = if a.trace then Client.stats (List.hd conns) else "" in
  List.iter Client.close conns;
  (* durability: crash, recover on the same directory, verify *)
  let acked =
    List.filter_map
      (fun (s : Load.sample) ->
        if s.ok && not (is_read s.conn) then Some (Hashtbl.find promise_of s.text) else None)
      all
  in
  Proc.crash srv;
  let recovery_ms, lost =
    if acked = [] && not a.trace then (0.0, 0)
    else begin
      let t0 = Report.now () in
      let srv' = Proc.spawn ~madql:a.madql ~dump ~data ~workers:1 in
      let recovery_ms = (Report.now () -. t0) *. 1e3 in
      let c = connect srv'.Proc.port in
      let lost = Oracle.check_durable c acked in
      Client.close c;
      Proc.crash srv';
      (recovery_ms, lost)
    end
  in
  let after =
    List.init (setup_reps - 1 - (setup_reps / 2)) (fun i -> discarded_setup (setup_reps + i))
  in
  let setup_times = (kept :: before) @ after in
  let window = List.filter (fun (s : Load.sample) -> s.sent >= t_w && s.ok) all in
  let reads, commits = List.partition (fun (s : Load.sample) -> is_read s.conn) window in
  let errors = List.length (List.filter (fun (s : Load.sample) -> not s.ok) all) in
  let attempted = List.length all + List.length expected + List.length acked in
  let failed = errors + mismatches + lost in
  let lat_ms (s : Load.sample) = s.lat *. 1e3 in
  let read_ms = List.map lat_ms reads in
  Printf.printf
    "%s seed %d: %d reads and %d commits in the window; %d errors, %d answer mismatches, %d \
     lost writes\n"
    (Mix.name a.kind) a.seed (List.length reads) (List.length commits) errors mismatches lost;
  Printf.printf "read_n %d  setup_n %d  oracle_n %d\n" (List.length reads)
    (List.length setup_times) (List.length expected);
  if commits <> [] then begin
    let commit_ms = List.map lat_ms commits in
    Printf.printf "commit_n %d  commit_p50_ms %.3f  commit_p95_ms %.3f  gen_late_ms_max %.3f\n"
      (List.length commit_ms) (Report.median commit_ms) (Report.quantile 0.95 commit_ms)
      (List.fold_left (fun m (s : Load.sample) -> Float.max m (s.late *. 1e3)) 0.0 commits)
  end;
  let metrics =
    if a.trace then per_layer a ~dump ~is_read ~oracle ~stats ~recovery_ms ~reads all
    else
      let t_end =
        List.fold_left (fun m (s : Load.sample) -> Float.max m (s.sent +. s.lat)) t_w reads
      in
      [
        Report.metric "setup_s" "s" (Report.median setup_times);
        Report.metric "read_p50_ms" "ms" (Report.median read_ms);
        Report.metric "read_p95_ms" "ms" (Report.quantile 0.95 read_ms);
        Report.metric "read_qps" "1/s" (float_of_int (List.length reads) /. (t_end -. t_w));
        Report.metric "server_rss_mb" "MB" rss_mb;
      ]
  in
  List.iter
    (fun (m : Report.metric) -> Printf.printf "%-30s %14.4f %s\n" m.name m.value m.unit_)
    metrics;
  if List.exists (fun (m : Report.metric) -> not (Float.is_finite m.value)) metrics then
    Proc.failf "a metric has no samples";
  print_endline (Report.result_line ~correct:(failed = 0) ~attempted ~failed metrics)

let () =
  let a = parse_args () in
  let fail m =
    prerr_endline ("madbench: " ^ m);
    (* exit, not an uncaught exception: the at_exit cleanup must run *)
    exit 1
  in
  match run a with
  | () -> exit 0
  | exception Proc.Failed m -> fail m
  | exception Client.Remote m -> fail ("connection lost: " ^ m)
  | exception Mad_store.Err.Mad_error m -> fail ("in-process replay: " ^ m)
  | exception Unix.Unix_error (e, f, _) -> fail (f ^ ": " ^ Unix.error_message e)
