(* The workload digest: fingerprint stability, (fingerprint, plan)
   aggregation through the session, plan-change detection, the
   slow-query log, and digest.mad persistence. *)

open Workloads
module Err = Mad_store.Err
module Obs = Mad_obs.Obs
module Registry = Mad_obs.Registry
module Recorder = Mad_obs.Recorder
module Digest = Mad_obs.Digest
module Json = Mad_obs.Json
module Session = Mad_mql.Session
module Fingerprint = Mad_mql.Fingerprint

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let brazil () = Geo_brazil.db (Geo_brazil.build ())

let session () =
  Session.create ~obs:(Obs.create ()) (brazil ())

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                         *)

let fp_of s src = fst (Fingerprint.of_stmt (Session.parse s src))

let test_fingerprint_stability () =
  let s = session () in
  let base =
    fp_of s "SELECT ALL FROM mt_state(state-area-edge-point) WHERE state.name = 'SP';"
  in
  (* whitespace and literal variations collapse onto one fingerprint *)
  check "whitespace-insensitive" true
    (base
    = fp_of s
        "SELECT   ALL\n  FROM mt_state(state-area-edge-point)\n\
         WHERE state.name    = 'SP';");
  check "literal-insensitive (string)" true
    (base
    = fp_of s
        "SELECT ALL FROM mt_state(state-area-edge-point) WHERE state.name = 'Amazonas';");
  (* structure still matters *)
  check "different predicate shape differs" true
    (base
    <> fp_of s "SELECT ALL FROM mt_state(state-area-edge-point) WHERE state.hectare > 3;");
  check "different structure differs" true
    (base
    <> fp_of s "SELECT ALL FROM mt_state(state-area-edge) WHERE state.name = 'SP';");
  (* numeric literals too *)
  check "numeric literal stripped" true
    (fp_of s "SELECT ALL FROM state WHERE state.hectare > 100;"
    = fp_of s "SELECT ALL FROM state WHERE state.hectare > 999;")

let test_fingerprint_dml () =
  let s = session () in
  check "insert values stripped" true
    (fp_of s "INSERT INTO state VALUES ('X', 1);"
    = fp_of s "INSERT INTO state VALUES ('Y', 2);");
  check "modify value stripped" true
    (fp_of s "MODIFY state.hectare = 5 FROM state WHERE state.name = 'SP';"
    = fp_of s "MODIFY state.hectare = 7 FROM state WHERE state.name = 'RJ';");
  check "insert and delete differ" true
    (fp_of s "INSERT INTO state VALUES ('X', 1);"
    <> fp_of s "DELETE FROM state WHERE state.name = 'X';")

(* ------------------------------------------------------------------ *)
(* Session aggregation                                                  *)

let test_session_aggregation () =
  let s = session () in
  let dg = Session.enable_digest s in
  ignore
    (Session.run s
       "SELECT ALL FROM mt_state(state-area-edge-point) WHERE state.name = 'SP';");
  ignore
    (Session.run s
       "SELECT ALL FROM mt_state(state-area-edge-point) WHERE state.name = 'RJ';");
  ignore (Session.run s "SELECT ALL FROM state;");
  (try ignore (Session.run s "SELECT ALL FROM state WHERE state.nope = 1;")
   with Err.Mad_error _ -> ());
  let rows = Digest.report dg in
  check_int "three fingerprints" 3 (List.length rows);
  let restricted =
    List.find (fun r -> contains r.Digest.r_text "state.name") rows
  in
  check_int "two calls aggregated" 2 restricted.Digest.r_calls;
  check_int "rows accumulated" 2 restricted.Digest.r_rows;
  check "latency recorded" true (restricted.Digest.r_total_us > 0.0);
  let failed =
    List.find (fun r -> contains r.Digest.r_text "state.nope") rows
  in
  check_int "error counted" 1 failed.Digest.r_errors;
  check_int "errored call counted" 1 failed.Digest.r_calls;
  (* the digest rides the registry exposition *)
  let text = Registry.expose (Obs.registry s.Session.obs) in
  check "digest.calls exposed" true (contains text "digest_calls{");
  check "plan.switch exposed" true (contains text "plan_switch 0");
  (* satellite: the parse is timed as its own operator *)
  check "mql.parse histogram" true
    (contains text "op_latency_us_count{op=\"mql.parse\"}")

let test_repeated_source_uses_cache () =
  let s = session () in
  let dg = Session.enable_digest s in
  let src = "SELECT ALL FROM state WHERE state.hectare > 100;" in
  for _ = 1 to 5 do
    ignore (Session.run s src)
  done;
  (* a literal variant goes through the cold path yet joins the row *)
  ignore (Session.run s "SELECT ALL FROM state WHERE state.hectare > 7;");
  match Digest.report dg with
  | [ r ] -> check_int "all six calls on one row" 6 r.Digest.r_calls
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Plan-change detection                                                *)

(* a catalog that learned a different link reach reorders a residual's
   conjuncts: the same fingerprint now runs a different plan *)
let test_plan_switch_detection () =
  let s = session () in
  let dg = Session.enable_digest s in
  Recorder.set_enabled true;
  let g = Recorder.global () in
  let seq0 = Recorder.recorded g in
  let src =
    "SELECT ALL FROM state-area-edge-point WHERE area.name = 'a1' AND \
     edge.name = 'e1';"
  in
  ignore (Session.run s src);
  check_int "no switch on first plan" 0 (Digest.switch_count dg);
  (* area-edge learned to reach almost no edges: the edge conjunct
     becomes the cheaper one and runs first *)
  let c = Session.catalog s in
  let f = Some 0.01 in
  let learned =
    Prima.Stats.Smap.add "area-edge"
      { Prima.Stats.lf_fwd = f; lf_bwd = f; lr_fwd = f; lr_bwd = f }
      c.Prima.Stats.learned
  in
  let path = Filename.temp_file "t_digest_stats" ".mad" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Prima.Catalog_io.save { c with Prima.Stats.learned } path;
      check "catalog loaded" true (Session.load_catalog s path));
  ignore (Session.run s src);
  check_int "switch counted" 1 (Digest.switch_count dg);
  ignore (Session.run s src);
  check_int "stable plan adds no switch" 1 (Digest.switch_count dg);
  (* one row per (fingerprint, plan) *)
  let rows = Digest.report dg in
  check_int "two plan rows under one fingerprint" 2 (List.length rows);
  let a, b =
    match rows with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected two rows"
  in
  check "same fingerprint" true
    (a.Digest.r_fp = b.Digest.r_fp && a.Digest.r_plan <> b.Digest.r_plan);
  List.iter
    (fun r -> check_int "entry-level switch count" 1 r.Digest.r_switches)
    rows;
  (* and the journal has the Plan_switch instant with both hashes *)
  let evs =
    List.filter
      (fun e ->
        e.Recorder.e_seq >= seq0 && e.Recorder.e_kind = Recorder.Plan_switch)
      (Recorder.drain g)
  in
  match evs with
  | [ e ] ->
    let calls r = r.Digest.r_calls in
    let first, second = if calls a = 1 then (a, b) else (b, a) in
    check_int "old plan journaled" first.Digest.r_plan e.Recorder.e_a;
    check_int "new plan journaled" second.Digest.r_plan e.Recorder.e_b;
    check_str "event labeled with the fingerprint" e.Recorder.e_label
      (Digest.hex a.Digest.r_fp)
  | evs -> Alcotest.failf "expected one Plan_switch event, got %d" (List.length evs)

(* the plan hash itself: literals must not change it, residual conjunct
   order must *)
let test_plan_hash_identity () =
  let s = session () in
  let plan_of src =
    match Session.parse s src with
    | Mad_mql.Ast.Query q -> Session.plan s q
    | _ -> Alcotest.fail "expected a query"
  in
  let p1 =
    plan_of
      "SELECT ALL FROM state-area-edge-point WHERE area.name = 'a1' AND \
       edge.name = 'e1';"
  in
  let p2 =
    plan_of
      "SELECT ALL FROM state-area-edge-point WHERE area.name = 'zz' AND \
       edge.name = 'qq';"
  in
  let hash = Mad_mql.Translate.plan_hash in
  check "literals do not change the plan hash" true (hash p1 = hash p2);
  match p1 with
  | Mad_mql.Translate.P_restrict (q, scan) -> begin
    match Prima.Planner.conjuncts q with
    | [ a; b ] ->
      let swapped =
        Mad_mql.Translate.P_restrict
          (Option.get (Prima.Planner.conjoin [ b; a ]), scan)
      in
      check "conjunct order changes the plan hash" true
        (hash p1 <> hash swapped)
    | cs -> Alcotest.failf "expected 2 residual conjuncts, got %d" (List.length cs)
  end
  | _ -> Alcotest.fail "expected a residual predicate"

(* the plan that ran is the plan that is reported: on Q1 over the geo
   grid the digest row hashes the plan EXPLAIN prints, and EXPLAIN
   ANALYZE's actuals are a plain run's counters — the pushed scan
   derives one molecule, not the whole occurrence *)
let test_reported_plan_ran () =
  let db = (Geo_gen.build Geo_gen.default).Geo_grid.db in
  let s = Session.create ~obs:(Obs.create ()) db in
  let dg = Session.enable_digest s in
  let q1 = "SELECT ALL FROM state-area-edge-point WHERE state.name = 'S001';" in
  let reg = Obs.registry s.Session.obs in
  let visited () = Registry.counter_value reg "derive.atoms_visited" in
  let roots () = Registry.counter_value reg "kernel.roots" in
  let a0 = visited () and r0 = roots () in
  ignore (Session.run s q1);
  let plain = visited () - a0 in
  check_int "one root derived" 1 (roots () - r0);
  check_int "the pushed plan's atoms" 10 plain;
  let explained =
    match Session.parse s q1 with
    | Mad_mql.Ast.Query q -> Session.plan s q
    | _ -> Alcotest.fail "expected a query"
  in
  (match Digest.report dg with
   | [ r ] ->
     check_int "digest hashes the plan EXPLAIN prints"
       (Mad_mql.Translate.plan_hash explained) r.Digest.r_plan
   | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  (* the α's generated name aside, EXPLAIN prints that plan *)
  let body text = List.tl (String.split_on_char '\n' text) in
  Alcotest.(check (list string))
    "EXPLAIN prints that plan"
    (List.tl (Mad_mql.Translate.lines explained))
    (body (Session.explain s q1));
  let report = Session.run_to_string s ("EXPLAIN ANALYZE " ^ q1) in
  check "ANALYZE reports the plain run's atoms" true
    (contains report (Printf.sprintf "actual=%d; links" plain))

(* one EXPLAIN ANALYZE is one statement: one digest row, no phantom
   row for the statement it profiles *)
let test_analyze_one_row () =
  let s = session () in
  let dg = Session.enable_digest s in
  ignore (Session.run s "DEFINE MOLECULE mts AS state-area-edge-point;");
  ignore
    (Session.run s "EXPLAIN ANALYZE SELECT ALL FROM mts WHERE state.name = 'SP';");
  let rows = Digest.report dg in
  check_int "DEFINE and EXPLAIN ANALYZE rows only" 2 (List.length rows);
  check "no row for the profiled SELECT" true
    (List.for_all
       (fun r ->
         contains r.Digest.r_text "DEFINE" || contains r.Digest.r_text "EXPLAIN")
       rows);
  List.iter (fun r -> check_int "one call each" 1 r.Digest.r_calls) rows

(* EXPLAIN ANALYZE feeds its estimate drift into its own digest row *)
let test_analyze_feeds_drift () =
  let s = session () in
  let dg = Session.enable_digest s in
  ignore
    (Session.run s
       "EXPLAIN ANALYZE SELECT ALL FROM state-area-edge-point;");
  let drifted =
    List.filter (fun r -> r.Digest.r_drift > 0.0) (Digest.report dg)
  in
  check "a drift reading landed" true (drifted <> []);
  check "keyed by the profiled statement" true
    (List.exists
       (fun r -> contains r.Digest.r_text "SELECT ALL FROM state-area-edge-point")
       drifted)

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                       *)

let test_slow_query_log () =
  let s = session () in
  ignore (Session.enable_digest s);
  let path = Filename.temp_file "t_digest_slow" ".log" in
  Digest.set_slow_log ~path (Some 0.0);
  Fun.protect
    ~finally:(fun () ->
      Digest.set_slow_log ~path:"slow-query.log" None;
      Sys.remove path)
    (fun () ->
      Recorder.set_enabled true;
      ignore
        (Session.run s "SELECT ALL FROM state-area-edge-point;");
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      check_int "one slow entry" 1 (List.length lines);
      match Json.of_string (List.hd lines) with
      | Error e -> Alcotest.failf "slow entry is not JSON: %s" e
      | Ok j ->
        check "full statement kept" true
          (match Json.member "statement" j with
           | Some (Json.Str s) -> contains s "SELECT ALL FROM state-area-edge-point"
           | _ -> false);
        check "analyze tree attached" true
          (match Json.member "analyze" j with
           | Some (Json.Str s) -> contains s "est=" && contains s "actual="
           | _ -> false);
        check "recorder window attached" true
          (match Json.member "events" j with
           | Some (Json.List (_ :: _)) -> true
           | _ -> false);
        check "threshold event journaled" true
          (List.exists
             (fun e -> e.Recorder.e_kind = Recorder.Slow_query)
             (Recorder.drain (Recorder.global ()))))

(* DML must not be re-executed by the slow-log capture *)
let test_slow_log_does_not_replay_dml () =
  let s = session () in
  ignore (Session.enable_digest s);
  let path = Filename.temp_file "t_digest_slow_dml" ".log" in
  Digest.set_slow_log ~path (Some 0.0);
  Fun.protect
    ~finally:(fun () ->
      Digest.set_slow_log ~path:"slow-query.log" None;
      Sys.remove path)
    (fun () ->
      let count () =
        match Session.run s "SELECT ALL FROM state;" with
        | Session.Result (Mad_mql.Translate.Molecules mt) ->
          List.length (Mad.Molecule_type.occ mt)
        | _ -> Alcotest.fail "expected molecules"
      in
      let before = count () in
      ignore (Session.run s "INSERT INTO state VALUES ('Slowland', 1);");
      check_int "insert applied exactly once" (before + 1) (count ());
      let entries =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun l ->
               if String.trim l = "" then None
               else match Json.of_string l with Ok j -> Some j | Error _ -> None)
      in
      let is_insert j =
        match Json.member "statement" j with
        | Some (Json.Str s) -> contains s "INSERT"
        | _ -> false
      in
      match List.find_opt is_insert entries with
      | None -> Alcotest.fail "insert entry missing from the slow log"
      | Some j ->
        check "no analyze re-run for DML" true
          (Json.member "analyze" j = Some Json.Null))

(* ------------------------------------------------------------------ *)
(* Persistence (digest.mad)                                             *)

let test_persistence_roundtrip () =
  let dg = Digest.create (Registry.create ()) in
  ignore
    (Digest.record dg ~fp:0xabc ~text:"SELECT ALL FROM state;" ~plan:0x11
       ~latency_us:120.0 ~rows:5 ~error:false ());
  ignore
    (Digest.record dg ~fp:0xabc ~text:"SELECT ALL FROM state;" ~plan:0x11
       ~latency_us:480.0 ~rows:5 ~error:true ());
  Digest.note_drift dg ~fp:0xabc ~text:"SELECT ALL FROM state;" ~plan:0x11
    ~err:12.5;
  ignore
    (Digest.record dg ~fp:0xdef ~text:"INSERT state(...);" ~plan:0x22
       ~latency_us:40.0 ~rows:1 ~error:false ());
  let path = Filename.temp_file "t_digest" ".mad" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Digest.save dg path;
      let dg2 = Digest.create (Registry.create ()) in
      check "load merges" true (Digest.load dg2 path);
      let row fp d =
        List.find (fun r -> r.Digest.r_fp = fp) (Digest.report d)
      in
      let a = row 0xabc dg2 in
      check_int "calls round-trip" 2 a.Digest.r_calls;
      check_int "errors round-trip" 1 a.Digest.r_errors;
      check_int "rows round-trip" 10 a.Digest.r_rows;
      check "latency sum round-trips" true
        (Float.abs (a.Digest.r_total_us -. 600.0) < 1.0);
      check "max round-trips" true
        (Float.abs (a.Digest.r_max_us -. 480.0) < 1.0);
      check "drift round-trips" true
        (Float.abs (a.Digest.r_drift -. 12.5) < 1e-9);
      check_str "text round-trips" "SELECT ALL FROM state;" a.Digest.r_text;
      (* merging the same file again adds (counts accumulate) *)
      check "second merge" true (Digest.load dg2 path);
      check_int "calls doubled" 4 (row 0xabc dg2).Digest.r_calls;
      check "absent file is a no-op" true
        (not (Digest.load dg2 (path ^ ".nope"))))

(* a plan change across a restart still counts: the stored current
   plan seeds the switch detector *)
let test_persistence_switch_across_restart () =
  let dg = Digest.create (Registry.create ()) in
  ignore
    (Digest.record dg ~fp:0xabc ~text:"q" ~plan:0x11 ~latency_us:10.0 ~rows:0
       ~error:false ());
  let s = Digest.to_string dg in
  let dg2 = Digest.create (Registry.create ()) in
  check "merged" true (Digest.merge_string ~warn:Alcotest.fail dg2 s);
  check_int "no switch after load" 0 (Digest.switch_count dg2);
  let switched =
    Digest.record dg2 ~fp:0xabc ~text:"q" ~plan:0x22 ~latency_us:10.0 ~rows:0
      ~error:false ()
  in
  check "switch detected against the stored plan" true switched;
  check_int "switch counted" 1 (Digest.switch_count dg2)

let test_merge_rejects_bad_header () =
  let dg = Digest.create (Registry.create ()) in
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  check "bad header rejected" false
    (Digest.merge_string ~warn dg "# not a digest\n");
  check "v1 rejected" false
    (Digest.merge_string ~warn dg "# MAD statement digest v1\nfp abc q\n");
  check_int "one warning per ignored text" 2 (List.length !warnings);
  warnings := [];
  check "garbage records under a good header are skipped" true
    (Digest.merge_string ~warn dg
       "# MAD statement digest v2\nwat 1 2 3\nrow\nfp abc 'q ''x''\n y'\n");
  (* the stored text (quotes and a line break in it) names the entry *)
  ignore
    (Digest.record dg ~fp:0xabc ~text:"live" ~plan:1 ~latency_us:1.0 ~rows:0
       ~error:false ());
  check_str "quoted text kept" "q 'x'\n y"
    (List.hd (Digest.report dg)).Digest.r_text;
  match !warnings with
  | [ w ] ->
    check "warning names the first bad line" true
      (contains w "digest.mad: line 2")
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws)

(* ------------------------------------------------------------------ *)
(* JSON report                                                          *)

let test_to_json_shape () =
  let s = session () in
  let dg = Session.enable_digest s in
  ignore (Session.run s "SELECT ALL FROM state;");
  ignore (Session.run s "SELECT ALL FROM area;");
  let j = Digest.to_json ~top:10 dg in
  let text = Json.to_string j in
  check "plan_switches present" true (contains text "\"plan_switches\":");
  match Json.member "fingerprints" j with
  | Some (Json.List fps) ->
    check_int "both fingerprints reported" 2 (List.length fps);
    List.iter
      (fun f ->
        check "fingerprint field" true (Json.member "fingerprint" f <> None);
        check "plans list" true
          (match Json.member "plans" f with
           | Some (Json.List (_ :: _)) -> true
           | _ -> false))
      fps
  | _ -> Alcotest.fail "expected a fingerprints list"

let suite =
  [
    Alcotest.test_case "fingerprint stability" `Quick test_fingerprint_stability;
    Alcotest.test_case "fingerprint DML" `Quick test_fingerprint_dml;
    Alcotest.test_case "session aggregation" `Quick test_session_aggregation;
    Alcotest.test_case "repeated source uses cache" `Quick
      test_repeated_source_uses_cache;
    Alcotest.test_case "plan switch detection" `Quick test_plan_switch_detection;
    Alcotest.test_case "plan hash identity" `Quick test_plan_hash_identity;
    Alcotest.test_case "reported plan is the plan that ran" `Quick
      test_reported_plan_ran;
    Alcotest.test_case "EXPLAIN ANALYZE records one row" `Quick
      test_analyze_one_row;
    Alcotest.test_case "analyze feeds drift" `Quick test_analyze_feeds_drift;
    Alcotest.test_case "slow query log" `Quick test_slow_query_log;
    Alcotest.test_case "slow log does not replay DML" `Quick
      test_slow_log_does_not_replay_dml;
    Alcotest.test_case "persistence round-trip" `Quick
      test_persistence_roundtrip;
    Alcotest.test_case "switch across restart" `Quick
      test_persistence_switch_across_restart;
    Alcotest.test_case "merge rejects bad header" `Quick
      test_merge_rejects_bad_header;
    Alcotest.test_case "json report shape" `Quick test_to_json_shape;
  ]
