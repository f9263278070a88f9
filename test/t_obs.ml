(* The observability layer: registry get-or-create semantics, the
   flight-recorder span journal and its error dump, and EXPLAIN
   ANALYZE's estimate-vs-actual wiring on the Fig. 1 brazil
   database. *)

open Workloads
module Obs = Mad_obs.Obs
module Registry = Mad_obs.Registry
module Metric = Mad_obs.Metric
module Monotonic = Mad_obs.Monotonic
module Recorder = Mad_obs.Recorder
module Json = Mad_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)

let test_registry_get_or_create () =
  let reg = Registry.create () in
  let c = Registry.counter reg "requests" in
  Metric.incr c;
  Metric.add c 4;
  (* same (name, labels) -> same instrument *)
  let c' = Registry.counter reg "requests" in
  Metric.incr c';
  check_int "shared cell" 6 (Metric.value c);
  check_int "counter_value" 6 (Registry.counter_value reg "requests");
  check_int "absent counter reads 0" 0 (Registry.counter_value reg "nope")

let test_registry_labels_distinguish () =
  let reg = Registry.create () in
  let a = Registry.counter reg ~labels:[ ("node", "state") ] "derive.atoms" in
  let b = Registry.counter reg ~labels:[ ("node", "area") ] "derive.atoms" in
  Metric.add a 3;
  Metric.incr b;
  check_int "state" 3
    (Registry.counter_value reg ~labels:[ ("node", "state") ] "derive.atoms");
  check_int "area" 1
    (Registry.counter_value reg ~labels:[ ("node", "area") ] "derive.atoms");
  check_int "two samples" 2 (List.length (Registry.to_list reg))

let test_registry_kind_clash () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x");
  check "kind clash rejected" true
    (match Registry.gauge reg "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_registry_reset () =
  let reg = Registry.create () in
  let c = Registry.counter reg "n" in
  let g = Registry.gauge reg "depth" in
  Metric.add c 7;
  Metric.set g 3.5;
  Registry.reset reg;
  check_int "counter reset" 0 (Metric.value c);
  check "gauge reset" true (Metric.get g = 0.0)

let test_histogram () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~bounds:[| 1.0; 10.0; 100.0 |] "lat" in
  List.iter (Metric.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  check "mean" true (abs_float (Metric.mean h -. 138.875) < 1e-6);
  let p50 = Option.get (Metric.quantile h 0.5) in
  check "median in second bucket" true (p50 <= 10.0 && p50 >= 1.0)

let test_histogram_stats () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~bounds:[| 10.0; 20.0; 50.0 |] "lat" in
  let qv h p = Option.get (Metric.quantile h p) in
  check "empty quantile is None" true (Metric.quantile h 0.5 = None);
  check "empty min/max are 0" true
    (Metric.min_value h = 0.0 && Metric.max_value h = 0.0);
  (* empty histograms render "-" instead of a non-finite quantile *)
  check "empty pp prints dash" true
    (let s = Format.asprintf "%a" Metric.pp (Metric.Histogram h) in
     contains s "p50=-");
  List.iter (Metric.observe h) [ 5.0; 15.0; 15.0; 100.0 ];
  check "min tracked" true (Metric.min_value h = 5.0);
  check "max tracked" true (Metric.max_value h = 100.0);
  check "sum tracked" true (Metric.sum h = 135.0);
  (* rank 2 of 4 lands mid-bucket (10, 20]: interpolates to exactly 15 *)
  check "median interpolated" true (abs_float (qv h 0.5 -. 15.0) < 1e-9);
  (* the top quantile reports the tracked maximum, not a bucket bound *)
  check "p100 is the tracked max" true (qv h 1.0 = 100.0);
  check "quantiles clamped to min" true (qv h 0.0 >= 5.0)

let test_expose_golden () =
  let reg = Registry.create () in
  Metric.add (Registry.counter reg ~labels:[ ("node", "state") ] "derive.atoms") 3;
  Metric.set (Registry.gauge reg "depth") 2.5;
  Metric.add (Registry.counter reg ~labels:[ ("q", "a\"b") ] "esc") 1;
  let h =
    Registry.histogram reg
      ~labels:[ ("op", "mql.statement") ]
      ~bounds:[| 1.0; 10.0 |] "op.latency_us"
  in
  List.iter (Metric.observe h) [ 0.5; 5.0; 100.0 ];
  check_str "prometheus text"
    "# TYPE derive_atoms counter\n\
     derive_atoms{node=\"state\"} 3\n\
     # TYPE depth gauge\n\
     depth 2.5\n\
     # TYPE esc counter\n\
     esc{q=\"a\\\"b\"} 1\n\
     # TYPE op_latency_us histogram\n\
     op_latency_us_bucket{op=\"mql.statement\",le=\"1\"} 1\n\
     op_latency_us_bucket{op=\"mql.statement\",le=\"10\"} 2\n\
     op_latency_us_bucket{op=\"mql.statement\",le=\"+Inf\"} 3\n\
     op_latency_us_sum{op=\"mql.statement\"} 105.5\n\
     op_latency_us_count{op=\"mql.statement\"} 3\n"
    (Registry.expose reg)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

(* run [f] under a fake clock advancing [step] seconds per reading *)
let with_fake_clock step f =
  let saved = !Monotonic.clock in
  let t = ref 0.0 in
  Monotonic.clock :=
    (fun () ->
      let now = !t in
      t := now +. step;
      now);
  Fun.protect ~finally:(fun () -> Monotonic.clock := saved) f

let test_timed_without_tracing () =
  let obs = Obs.create () in
  let v = Obs.timed obs "op.x" (fun () -> 7) in
  check_int "value returned" 7 v;
  (match
     Registry.find (Obs.registry obs) ~labels:[ ("op", "op.x") ] "op.latency_us"
   with
  | Some (Metric.Histogram h) -> check_int "latency recorded" 1 (Metric.count h)
  | _ -> Alcotest.fail "op.latency_us{op=op.x} histogram missing");
  (* only the shared noop context skips the record entirely *)
  ignore (Obs.timed Obs.noop "noop.probe" (fun () -> ()));
  check "noop context records nothing" true
    (Registry.find (Obs.registry Obs.noop)
       ~labels:[ ("op", "noop.probe") ]
       "op.latency_us"
    = None)

(* an errored root span dumps the flight recorder to MAD_OBS_TRACE on
   every non-noop context; an error caught inside a nested span does
   not dump until its root closes with an error too *)
let test_error_autodump () =
  Recorder.set_enabled true;
  let path = Filename.temp_file "t_obs_autodump" ".json" in
  let saved = Sys.getenv_opt "MAD_OBS_TRACE" in
  Unix.putenv "MAD_OBS_TRACE" path;
  let read () =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  in
  let dumped () = Sys.file_exists path in
  let boom obs name = Obs.with_span obs name (fun () -> failwith "expected") in
  let errored_end_of name text =
    match Json.of_string text with
    | Error e -> Alcotest.failf "dumped trace does not parse: %s" e
    | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
        List.exists
          (fun e ->
            Json.member "name" e = Some (Json.Str name)
            && Option.bind (Json.member "args" e) (Json.member "error")
               = Some (Json.Bool true))
          evs
      | _ -> false)
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MAD_OBS_TRACE" (Option.value ~default:"" saved);
      if dumped () then Sys.remove path)
    (fun () ->
      Sys.remove path;
      let obs = Obs.create () in
      (try
         Obs.with_span obs "t_obs.root" (fun () ->
             (try boom obs "t_obs.nested" with Failure _ -> ());
             check "nested error does not dump" false (dumped ());
             failwith "expected")
       with Failure _ -> ());
      check "errored root dumps" true (dumped ());
      let text = read () in
      check "span.end with b = 1 for the root" true
        (errored_end_of "t_obs.root" text);
      check "the nested error is in the dump" true
        (errored_end_of "t_obs.nested" text);
      (* the raise unwound the depth: the next errored span is a root *)
      Sys.remove path;
      (try boom obs "t_obs.next" with Failure _ -> ());
      check "next errored root dumps again" true (dumped ());
      (* the process-wide context plain madql and repl sessions use *)
      Sys.remove path;
      (try boom (Obs.default ()) "t_obs.default" with Failure _ -> ());
      check "default context dumps" true (dumped ());
      check "span.end with b = 1 for the default-context root" true
        (errored_end_of "t_obs.default" (read ()));
      (* the shared noop context journals nothing, so dumps nothing *)
      Sys.remove path;
      (try boom Obs.noop "t_obs.noop" with Failure _ -> ());
      check "noop context never dumps" false (dumped ()))

(* ------------------------------------------------------------------ *)
(* Estimate vs. actual on Fig. 1                                        *)

let brazil () =
  let b = Geo_brazil.build () in
  (b, Geo_brazil.db b)

let has_substr s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_profile_actuals_match_ground_truth () =
  let b, db = brazil () in
  let desc = Geo_brazil.mt_state_desc b in
  let session = Mad_mql.Session.create ~obs:(Obs.create ()) db in
  let profile src = snd (Mad_mql.Session.run_profiled session src) in
  let r = profile "SELECT ALL FROM state-area-edge-point;" in
  let s =
    match r.Mad_mql.Profile.scans with
    | [ s ] -> s
    | ss -> Alcotest.failf "expected one α run, got %d" (List.length ss)
  in
  (* ground truth: a plain derivation with fresh counters *)
  let stats = Mad.Derive.stats () in
  let molecules = Mad.Derive.m_dom ~stats db desc in
  check_int "actual roots" (List.length molecules) s.Mad_mql.Profile.roots;
  check_int "actual atoms" (Mad.Derive.atoms_visited stats)
    r.Mad_mql.Profile.actual_atoms;
  check_int "actual links" (Mad.Derive.links_traversed stats)
    r.Mad_mql.Profile.actual_links;
  (* the per-node actuals partition the totals *)
  check_int "node atoms sum to total" r.Mad_mql.Profile.actual_atoms
    (List.fold_left
       (fun acc nr -> acc + nr.Mad_mql.Profile.nr_atoms)
       0 s.Mad_mql.Profile.nodes);
  check_int "node links sum to total" r.Mad_mql.Profile.actual_links
    (List.fold_left
       (fun acc nr -> acc + nr.Mad_mql.Profile.nr_links)
       0 s.Mad_mql.Profile.nodes);
  (* with uniform synthetic stats the estimator is exact on roots *)
  check "root estimate exact" true
    (int_of_float s.Mad_mql.Profile.est.Prima.Stats.est_roots
    = s.Mad_mql.Profile.roots);
  (* one report per structure node *)
  check_int "one report per node" (List.length (Mad.Mdesc.nodes desc))
    (List.length s.Mad_mql.Profile.nodes);
  (* each α's scan and derivation is timed within the whole run *)
  let check_timed name (r : Mad_mql.Profile.t) =
    check (name ^ ": execution timed") true (r.Mad_mql.Profile.duration_ms > 0.0);
    List.iter
      (fun (s : Mad_mql.Profile.scan) ->
        check (name ^ ": α within the execution") true
          (s.Mad_mql.Profile.ms >= 0.0
          && s.Mad_mql.Profile.ms <= r.Mad_mql.Profile.duration_ms))
      r.Mad_mql.Profile.scans
  in
  check_timed "plain" r;
  (* with a root restriction and a selection, the report's plan
     carries Π over the pushed scan and the pruned derivation *)
  let r =
    profile
      "SELECT state, area FROM state-area-edge-point WHERE state.hectare > 500;"
  in
  check_timed "filtered" r;
  let text = Mad_mql.Profile.to_string r in
  List.iter
    (fun sub -> check ("filtered report shows " ^ sub) true (has_substr text sub))
    [ "Π[state,area]"; "scan state where state.hectare > 500"; "derive md" ]

let test_explain_analyze_via_session () =
  let _, db = brazil () in
  let session = Mad_mql.Session.create db in
  let report =
    Mad_mql.Session.run_to_string session
      "EXPLAIN ANALYZE SELECT ALL FROM state-area WHERE state.name = 'SP';"
  in
  let has_substr s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "mentions estimates" true (has_substr report "est=");
  check "mentions actuals" true (has_substr report "actual=");
  check "per-node tree includes area" true (has_substr report "-[state-area]-");
  (* EXPLAIN (without ANALYZE) never executes *)
  let explained =
    Mad_mql.Session.run_to_string session
      "EXPLAIN SELECT ALL FROM state-area;"
  in
  check "plain explain shows algebra" true (has_substr explained "root state")

(* the full loop at the session layer: per-statement latency histograms
   land in the session's registry, repeated EXPLAIN ANALYZE runs refine
   the adaptive catalog, and both the report and the registry expose it *)
let test_adaptive_session () =
  let _, db = brazil () in
  let obs = Obs.create () in
  let session = Mad_mql.Session.create ~obs db in
  ignore (Mad_mql.Session.run_to_string session "SELECT ALL FROM state-area;");
  (match
     Registry.find (Obs.registry obs)
       ~labels:[ ("op", "mql.statement") ]
       "op.latency_us"
   with
  | Some (Metric.Histogram h) ->
    check "statement latency recorded" true (Metric.count h >= 1)
  | _ -> Alcotest.fail "op.latency_us{op=mql.statement} missing");
  check "exposition carries the latency histogram" true
    (has_substr (Registry.expose (Obs.registry obs)) "op_latency_us_bucket");
  let stmt = "EXPLAIN ANALYZE SELECT ALL FROM state-area-edge-point;" in
  let r1 = Mad_mql.Session.run_to_string session stmt in
  let r2 = Mad_mql.Session.run_to_string session stmt in
  check "adaptive section present" true (has_substr r1 "adaptive:");
  check "refinements counted across runs" true (has_substr r2 "2 run(s)");
  check_int "two refinements recorded" 2 session.Mad_mql.Session.refinements;
  check "drift report renders" true
    (has_substr (Mad_mql.Session.drift_report session) "refinement")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)

let test_recorder_ring_wrap () =
  let r = Recorder.create 8 in
  check_int "capacity rounds to a power of two" 8 (Recorder.capacity r);
  for i = 0 to 11 do
    ignore (Recorder.record r Recorder.Wal_append ~a:i ())
  done;
  check_int "cursor counts every event" 12 (Recorder.recorded r);
  let evs = Recorder.drain r in
  check_int "ring retains the newest window" 8 (List.length evs);
  let seqs = List.map (fun e -> e.Recorder.e_seq) evs in
  check "oldest first, newest last" true (seqs = [ 4; 5; 6; 7; 8; 9; 10; 11 ]);
  check "payloads line up with seqs" true
    (List.map (fun e -> e.Recorder.e_a) evs = seqs);
  (* disabling the global ring drops events without consuming seqs *)
  let g = Recorder.global () in
  let before = Recorder.recorded g in
  Recorder.set_enabled false;
  Recorder.note Recorder.Wal_append ~label:"t_obs.disabled" ();
  Recorder.set_enabled true;
  check_int "disabled ring records nothing" before (Recorder.recorded g)

(* the acceptance bar: concurrent recording from 4 domains loses no
   events when the ring is large enough for the burst — fetch_and_add
   hands every event its own slot *)
let test_recorder_concurrent_domains () =
  let per = 400 and doms = 4 in
  let r = Recorder.create 2048 in
  let worker k () =
    for i = 0 to per - 1 do
      ignore
        (Recorder.record r Recorder.Kernel_run
           ~label:(Printf.sprintf "d%d" k)
           ~a:i ())
    done
  in
  let ds = List.init doms (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join ds;
  check_int "every event recorded" (per * doms) (Recorder.recorded r);
  let evs = Recorder.drain r in
  check_int "no event lost" (per * doms) (List.length evs);
  let seqs = List.map (fun e -> e.Recorder.e_seq) evs in
  check_int "seqs all distinct" (per * doms)
    (List.length (List.sort_uniq compare seqs));
  List.iter
    (fun k ->
      let lbl = Printf.sprintf "d%d" k in
      check_int (lbl ^ " complete") per
        (List.length (List.filter (fun e -> e.Recorder.e_label = lbl) evs)))
    (List.init doms Fun.id)

let test_recorder_chrome_export () =
  with_fake_clock 0.001 @@ fun () ->
  let r = Recorder.create 64 in
  ignore (Recorder.record r Recorder.Plan_switch ~label:"abc" ~a:1 ~b:2 ());
  ignore
    (Recorder.record r Recorder.Span_end ~label:"mql.statement"
       ~dur_ns:500_000 ~a:0 ());
  ignore (Recorder.record r Recorder.Wal_append ~label:"wal.log" ~a:32 ());
  ignore
    (Recorder.record r Recorder.Wal_fsync ~label:"wal.log" ~dur_ns:2_000_000 ());
  ignore
    (Recorder.record r Recorder.Kernel_run ~label:"part" ~a:10 ~b:3
       ~dur_ns:1_000_000 ());
  ignore
    (Recorder.record r Recorder.Snapshot_build ~label:"composition" ~a:100
       ~b:400 ());
  let text = Json.to_string (Recorder.to_chrome r) in
  let parsed =
    match Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let names =
    List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_str)
      events
  in
  List.iter
    (fun n -> check ("event " ^ n) true (List.mem n names))
    [ "mql.statement"; "wal.append"; "wal.fsync"; "kernel.run";
      "snapshot.build"; "plan.switch"; "thread_name" ];
  (* the WAL and the planner get their own named tracks *)
  let thread_names =
    List.filter_map
      (fun e ->
        if Json.member "name" e = Some (Json.Str "thread_name") then
          Option.bind (Json.member "args" e) (fun a ->
              Option.bind (Json.member "name" a) Json.to_str)
        else None)
      events
  in
  check "wal track" true (List.mem "wal" thread_names);
  check "planner track" true (List.mem "planner" thread_names);
  (* events with a duration export as complete ("X") slices in µs *)
  let fsync =
    List.find (fun e -> Json.member "name" e = Some (Json.Str "wal.fsync")) events
  in
  check "fsync is a complete event" true
    (Json.member "ph" fsync = Some (Json.Str "X"));
  check "fsync duration in us" true
    (Json.member "dur" fsync = Some (Json.Num 2000.0))

(* the events of the global ring whose label starts with [prefix],
   keyed "kind label", in journal order *)
let journal_of prefix =
  List.filter_map
    (fun e ->
      let l = e.Recorder.e_label in
      if String.starts_with ~prefix l then
        Some (Recorder.kind_name e.Recorder.e_kind ^ " " ^ l, e)
      else None)
    (Recorder.drain (Recorder.global ()))

(* a nested pair journals begin/end in LIFO order with the child
   inside the parent, and each end points at its begin *)
let test_span_nesting () =
  Recorder.set_enabled true;
  ignore (journal_of "");
  let obs = Obs.create () in
  let result =
    with_fake_clock 0.001 @@ fun () ->
    Obs.with_span obs "t_obs.n.outer" @@ fun () ->
    ignore (Obs.with_span obs "t_obs.n.inner" (fun () -> 1));
    "done"
  in
  check_str "value returned" "done" result;
  let mine = journal_of "t_obs.n." in
  check "LIFO begin/end order" true
    (List.map fst mine
    = [ "span.begin t_obs.n.outer"; "span.begin t_obs.n.inner";
        "span.end t_obs.n.inner"; "span.end t_obs.n.outer" ]);
  let end_of l = List.assoc ("span.end " ^ l) mine in
  let begin_of l = List.assoc ("span.begin " ^ l) mine in
  check "child shorter than its parent" true
    ((end_of "t_obs.n.inner").Recorder.e_dur_ns
    < (end_of "t_obs.n.outer").Recorder.e_dur_ns);
  check "end events point at their begins" true
    (List.for_all
       (fun l -> (end_of l).Recorder.e_a = (begin_of l).Recorder.e_seq)
       [ "t_obs.n.outer"; "t_obs.n.inner" ]);
  check "clean spans are not flagged" true
    (List.for_all (fun l -> (end_of l).Recorder.e_b = 0)
       [ "t_obs.n.outer"; "t_obs.n.inner" ])

(* a raising span journals its end with the error flag, still counts
   in op.latency_us, and does not leave the next root nested *)
let test_span_exception_safe () =
  Recorder.set_enabled true;
  ignore (journal_of "");
  let obs = Obs.create () in
  (try Obs.with_span obs "t_obs.x.boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  (try Obs.timed obs "t_obs.x.timed_boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  Obs.with_span obs "t_obs.x.next" (fun () -> ());
  let mine = journal_of "t_obs.x." in
  check "each span closed before the next opened" true
    (List.map fst mine
    = [ "span.begin t_obs.x.boom"; "span.end t_obs.x.boom";
        "span.begin t_obs.x.timed_boom"; "span.end t_obs.x.timed_boom";
        "span.begin t_obs.x.next"; "span.end t_obs.x.next" ]);
  let end_of l = List.assoc ("span.end " ^ l) mine in
  let begin_of l = List.assoc ("span.begin " ^ l) mine in
  check "error flagged on the end event" true
    ((end_of "t_obs.x.boom").Recorder.e_b = 1
    && (end_of "t_obs.x.timed_boom").Recorder.e_b = 1);
  check "the next root is not flagged" true
    ((end_of "t_obs.x.next").Recorder.e_b = 0);
  check "end events point at their begins" true
    (List.for_all
       (fun l -> (end_of l).Recorder.e_a = (begin_of l).Recorder.e_seq)
       [ "t_obs.x.boom"; "t_obs.x.timed_boom"; "t_obs.x.next" ]);
  (match
     Registry.find (Obs.registry obs)
       ~labels:[ ("op", "t_obs.x.timed_boom") ]
       "op.latency_us"
   with
  | Some (Metric.Histogram h) ->
    check_int "raising span still timed" 1 (Metric.count h)
  | _ -> Alcotest.fail "op.latency_us{op=t_obs.x.timed_boom} missing")

(* spans journal to the global ring — the one span store: a plain
   context journals every span, an errored one with the error flag,
   and the shared noop context journals nothing *)
let test_recorder_span_journal () =
  Recorder.set_enabled true;
  ignore (journal_of "");
  let obs = Obs.create () in
  Obs.with_span obs "t_obs.j.journal" (fun () -> ());
  (try Obs.with_span obs "t_obs.j.journal_err" (fun () -> failwith "expected")
   with Failure _ -> ());
  let mine = journal_of "t_obs.j." in
  let ends l = List.filter (fun (k, _) -> k = "span.end " ^ l) mine in
  check_int "plain-context span journaled" 1
    (List.length (ends "t_obs.j.journal"));
  (match ends "t_obs.j.journal_err" with
   | [ (_, e) ] -> check "error flagged on the end event" true (e.Recorder.e_b = 1)
   | _ -> Alcotest.fail "errored span not journaled");
  check "noop journals nothing" true
    (Obs.with_span Obs.noop "t_obs.noop_probe" (fun () -> ());
     journal_of "t_obs.noop_probe" = [])

(* the integration bar: driving the durable engine and the kernel puts
   span, WAL, group-commit, kernel-run, snapshot-build and
   recovery-replay events into the one global ring, and the dumped
   Chrome trace parses *)
let test_recorder_engine_events () =
  Recorder.set_enabled true;
  let g = Recorder.global () in
  (* kernel + snapshot: BOM part explosion through the closure kernel *)
  let bom = Workloads.Bom_gen.build Workloads.Bom_gen.default in
  let kdb = bom.Workloads.Bom_gen.db in
  let d =
    Mad_recursive.Recursive.v kdb ~root_type:"part" ~link:"composition" ()
  in
  ignore (Mad_recursive.Recursive.m_dom ~kernel:true kdb d);
  (* durable: journal + group commit, close, reopen (replay) *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "t_obs_recorder"
  in
  Mad_durable.Harness.rm_rf dir;
  Fun.protect
    ~finally:(fun () -> Mad_durable.Harness.rm_rf dir)
    (fun () ->
      let _, db = brazil () in
      let h = Mad_durable.Durable.open_dir ~seed:db dir in
      let session =
        Mad_mql.Session.create
          ~obs:(Obs.create ())
          (Mad_durable.Durable.db h)
      in
      ignore
        (Mad_mql.Session.add_on_commit session (fun () ->
             Mad_durable.Durable.commit h));
      ignore
        (Mad_mql.Session.run session
           "INSERT INTO city VALUES ('Trace City', 3);");
      Mad_durable.Durable.close h;
      let h2 = Mad_durable.Durable.open_dir dir in
      check "reopen replays the insert" true
        ((Mad_durable.Durable.recovery h2).Mad_durable.Durable.replayed_records
        >= 1);
      Mad_durable.Durable.close h2);
  let evs = Recorder.drain g in
  let has k = List.exists (fun e -> e.Recorder.e_kind = k) evs in
  List.iter
    (fun (k, name) -> check name true (has k))
    [
      (Recorder.Span_end, "span event present");
      (Recorder.Wal_append, "wal append present");
      (Recorder.Wal_fsync, "wal fsync present");
      (Recorder.Group_commit, "group commit present");
      (Recorder.Kernel_run, "kernel run present");
      (Recorder.Snapshot_build, "snapshot build present");
      (Recorder.Recovery_replay, "recovery replay present");
    ];
  let trace = Filename.temp_file "t_obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      Recorder.dump g trace;
      let ic = open_in trace in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> In_channel.input_all ic)
      in
      match Json.of_string text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "dumped trace does not parse: %s" e)

(* ------------------------------------------------------------------ *)
(* Domain-safe gauges and counters, exemplars, exposition escaping    *)

let test_gauge_domain_safe () =
  let g = Metric.gauge "t.busy_us" in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metric.add_gauge g 1.0
            done))
  in
  List.iter Domain.join ds;
  check "40000 concurrent adds survive" true (Metric.get g = 40000.0);
  Metric.set g 2.0;
  check "set still wins" true (Metric.get g = 2.0)

let test_counter_domain_safe () =
  let c = Metric.counter "t.atomic" in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1_000 do
              Metric.incr c
            done))
  in
  List.iter Domain.join ds;
  check_int "4000 concurrent increments survive" 4000 (Metric.value c)

let test_exemplars () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~bounds:[| 1.0; 10.0 |] "lat" in
  Metric.observe h 0.5 (* no exemplar *);
  Metric.observe ~exemplar:42 h 5.0;
  Metric.observe ~exemplar:99 h 7.0 (* same bucket: last writer wins *);
  Metric.observe ~exemplar:7 h 100.0 (* overflow bucket *);
  check_int "bucket exemplar overwritten" 99 (Metric.exemplar_seq h 1);
  check "exemplar value kept" true (Metric.exemplar_value h 1 = 7.0);
  check_int "no exemplar where none landed" (-1) (Metric.exemplar_seq h 0);
  let text = Registry.expose reg in
  check "bucket line carries its exemplar" true
    (contains text "lat_bucket{le=\"10\"} 3 # {span_seq=\"99\"} 7");
  check "+Inf bucket too" true
    (contains text "lat_bucket{le=\"+Inf\"} 4 # {span_seq=\"7\"} 100");
  Registry.reset reg;
  check "reset clears exemplars" true
    (not (contains (Registry.expose reg) "span_seq"));
  (* the timed path wires the span's recorder seq in automatically *)
  Recorder.set_enabled true;
  let obs = Obs.create () in
  Obs.timed obs "probe" (fun () -> ());
  check "timed observation carries an exemplar" true
    (contains (Registry.expose (Obs.registry obs)) "# {span_seq=")

let test_prom_escaping () =
  let reg = Registry.create () in
  Metric.incr (Registry.counter reg ~labels:[ ("q", "a\"b\\c\nd") ] "esc.full");
  Metric.set (Registry.gauge reg ~labels:[ ("p", "x\\\"y") ] "esc.g") 1.0;
  let text = Registry.expose reg in
  check "quote, backslash and newline escaped" true
    (contains text "esc_full{q=\"a\\\"b\\\\c\\nd\"} 1");
  check "adjacent backslash-quote escaped" true
    (contains text "esc_g{p=\"x\\\\\\\"y\"} 1")

(* drain and Chrome export racing a ring that wraps under a concurrent
   writer: readers must never see a torn or malformed event, only a
   consistent (possibly shorter) window *)
let test_recorder_drain_races_wrap () =
  let r = Recorder.create 64 in
  let total = 20_000 in
  let writer () =
    for i = 0 to total - 1 do
      ignore
        (Recorder.record r Recorder.Kernel_run ~label:"race" ~a:i
           ~dur_ns:(i * 3) ())
    done
  in
  let d = Domain.spawn writer in
  for _ = 1 to 200 do
    let evs = Recorder.drain r in
    check "window within capacity" true
      (List.length evs <= Recorder.capacity r);
    List.iter
      (fun e ->
        check "event intact" true
          (e.Recorder.e_seq >= 0
          && e.Recorder.e_kind = Recorder.Kernel_run
          && String.equal e.Recorder.e_label "race"
          && e.Recorder.e_dur_ns = e.Recorder.e_a * 3))
      evs;
    (* seqs strictly increasing inside one drained window *)
    let rec mono = function
      | a :: (b :: _ as rest) ->
        check "drain ordered" true (a.Recorder.e_seq < b.Recorder.e_seq);
        mono rest
      | _ -> ()
    in
    mono evs;
    (* the export path runs the same snapshot logic *)
    ignore (Json.to_string (Recorder.to_chrome r))
  done;
  Domain.join d;
  check_int "no event lost by the writer" total (Recorder.recorded r);
  check "final drain full" true (List.length (Recorder.drain r) > 0)

(* satellite of the digest PR: with the ring disabled, [expose] must
   not render exemplars at all — the stored seqs go stale the moment
   no new ones are issued *)
let test_expose_exemplars_gated_on_ring () =
  Recorder.set_enabled true;
  let obs = Obs.create () in
  Obs.timed obs "probe" (fun () -> ());
  let text = Registry.expose (Obs.registry obs) in
  check "ring on: exemplar rendered" true (contains text "# {span_seq=");
  Recorder.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Recorder.set_enabled true)
    (fun () ->
      let text = Registry.expose (Obs.registry obs) in
      check "ring off: no exemplars rendered" true
        (not (contains text "span_seq")))

let suite =
  [
    Alcotest.test_case "registry get-or-create" `Quick test_registry_get_or_create;
    Alcotest.test_case "registry labels" `Quick test_registry_labels_distinguish;
    Alcotest.test_case "registry kind clash" `Quick test_registry_kind_clash;
    Alcotest.test_case "registry reset" `Quick test_registry_reset;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram stats and quantiles" `Quick
      test_histogram_stats;
    Alcotest.test_case "prometheus exposition" `Quick test_expose_golden;
    Alcotest.test_case "timed without tracing" `Quick
      test_timed_without_tracing;
    Alcotest.test_case "errored root span dumps the ring" `Quick
      test_error_autodump;
    Alcotest.test_case "profile estimate vs actual" `Quick
      test_profile_actuals_match_ground_truth;
    Alcotest.test_case "explain analyze via session" `Quick
      test_explain_analyze_via_session;
    Alcotest.test_case "adaptive session loop" `Quick test_adaptive_session;
    Alcotest.test_case "recorder ring wrap" `Quick test_recorder_ring_wrap;
    Alcotest.test_case "recorder concurrent domains" `Quick
      test_recorder_concurrent_domains;
    Alcotest.test_case "recorder drain races wrap" `Quick
      test_recorder_drain_races_wrap;
    Alcotest.test_case "expose exemplars gated on ring" `Quick
      test_expose_exemplars_gated_on_ring;
    Alcotest.test_case "recorder chrome export" `Quick
      test_recorder_chrome_export;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "recorder span journal" `Quick
      test_recorder_span_journal;
    Alcotest.test_case "recorder engine events" `Quick
      test_recorder_engine_events;
    Alcotest.test_case "gauge domain safety" `Quick test_gauge_domain_safe;
    Alcotest.test_case "counter domain safety" `Quick test_counter_domain_safe;
    Alcotest.test_case "histogram exemplars" `Quick test_exemplars;
    Alcotest.test_case "prometheus escaping" `Quick test_prom_escaping;
  ]
