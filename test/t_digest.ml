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

(* run with both digest hooks saved and restored, so a test can install
   its own (or Prima.Adaptive's) without leaking into other suites *)
let with_hooks f =
  let old_plan = !Session.plan_hash_hook
  and old_analyze = !Session.analyze_hook in
  Fun.protect
    ~finally:(fun () ->
      Session.plan_hash_hook := old_plan;
      Session.analyze_hook := old_analyze)
    f

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
  with_hooks @@ fun () ->
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
  with_hooks @@ fun () ->
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

let test_plan_switch_detection () =
  with_hooks @@ fun () ->
  let s = session () in
  let dg = Session.enable_digest s in
  let forced = ref 111 in
  Session.plan_hash_hook := Some (fun _ ~fp:_ _ -> !forced);
  Recorder.set_enabled true;
  let g = Recorder.global () in
  let seq0 = Recorder.recorded g in
  let src = "SELECT ALL FROM state;" in
  ignore (Session.run s src);
  check_int "no switch on first plan" 0 (Digest.switch_count dg);
  forced := 222;
  ignore (Session.run s src);
  check_int "switch counted" 1 (Digest.switch_count dg);
  ignore (Session.run s src);
  check_int "stable plan adds no switch" 1 (Digest.switch_count dg);
  (* one row per (fingerprint, plan) *)
  let rows = Digest.report dg in
  check_int "two plan rows under one fingerprint" 2 (List.length rows);
  check "same fingerprint" true
    (match rows with
     | [ a; b ] -> a.Digest.r_fp = b.Digest.r_fp && a.Digest.r_plan <> b.Digest.r_plan
     | _ -> false);
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
    check_int "old plan journaled" 111 e.Recorder.e_a;
    check_int "new plan journaled" 222 e.Recorder.e_b;
    check_str "event labeled with the fingerprint" e.Recorder.e_label
      (Digest.hex (List.hd rows).Digest.r_fp)
  | evs -> Alcotest.failf "expected one Plan_switch event, got %d" (List.length evs)

(* the physical plan hash itself: literals must not change it, residual
   conjunct order must *)
let test_plan_hash_identity () =
  let db = brazil () in
  let s = Session.create ~obs:(Obs.create ()) db in
  let plan_of src =
    match Prima.Profile.query_of_stmt db (Session.parse s src) with
    | Some q -> Prima.Planner.plan ~optimize:true q
    | None -> Alcotest.fail "expected a physical query"
  in
  let p1 =
    plan_of
      "SELECT ALL FROM mt_state(state-area-edge-point) WHERE area.name = 'a1' \
       AND edge.name = 'e1';"
  in
  let p2 =
    plan_of
      "SELECT ALL FROM mt_state(state-area-edge-point) WHERE area.name = 'zz' \
       AND edge.name = 'qq';"
  in
  check "literals do not change the plan hash" true
    (Prima.Planner.plan_hash p1 = Prima.Planner.plan_hash p2);
  (match p1.Prima.Planner.residual with
   | Some q -> begin
     match Prima.Planner.conjuncts q with
     | [ a; b ] ->
       let swapped =
         { p1 with Prima.Planner.residual = Prima.Planner.conjoin [ b; a ] }
       in
       check "conjunct order changes the plan hash" true
         (Prima.Planner.plan_hash p1 <> Prima.Planner.plan_hash swapped)
     | cs -> Alcotest.failf "expected 2 residual conjuncts, got %d" (List.length cs)
   end
   | None -> Alcotest.fail "expected a residual predicate")

(* EXPLAIN ANALYZE under the adaptive hooks feeds estimate drift into
   the profiled statement's digest row *)
let test_analyze_feeds_drift () =
  with_hooks @@ fun () ->
  Prima.Adaptive.install ();
  let s = session () in
  let dg = Session.enable_digest s in
  ignore
    (Session.run s
       "EXPLAIN ANALYZE SELECT ALL FROM mt_state(state-area-edge-point);");
  let drifted =
    List.filter (fun r -> r.Digest.r_drift > 0.0) (Digest.report dg)
  in
  check "a drift reading landed" true (drifted <> []);
  check "keyed by the profiled statement" true
    (List.exists
       (fun r -> contains r.Digest.r_text "SELECT ALL FROM mt_state")
       drifted)

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                       *)

let test_slow_query_log () =
  with_hooks @@ fun () ->
  Prima.Adaptive.install ();
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
        (Session.run s "SELECT ALL FROM mt_state(state-area-edge-point);");
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
           | Some (Json.Str s) -> contains s "SELECT ALL FROM mt_state"
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
  with_hooks @@ fun () ->
  Prima.Adaptive.install ();
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
  with_hooks @@ fun () ->
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
