(* The query pipeline's PRIMA rewrites: plan correctness (rewritten =
   naive results), the effectiveness of pushdown/pruning on the
   derivation work, and the statistics catalog behind the estimates. *)

open Mad_store
open Workloads
module T = Mad_mql.Translate
module Profile = Mad_mql.Profile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let brazil () =
  let b = Geo_brazil.build () in
  (b, Geo_brazil.db b)

(* the naive plan of SELECT [select] FROM [desc] WHERE [where] *)
let query ?where ?select desc =
  let p = T.alpha ~name:"q" desc in
  let p = match where with None -> p | Some q -> T.P_restrict (q, p) in
  match select with None -> p | Some items -> T.P_project (items, p)

let q2 b =
  query
    ~where:Mad.Qual.(attr "point" "name" =% str "pn")
    (Geo_brazil.point_neighborhood_desc b)

(* run a plan: its result and its derivation work *)
let run ?(stats = Mad.Derive.stats ()) db p =
  match T.run ~stats db (fun _ -> None) p with
  | T.Molecules mt -> mt
  | T.Recursive _ | T.Cycles _ -> Alcotest.fail "expected molecules"

let work db p =
  let stats = Mad.Derive.stats () in
  ignore (run ~stats db p);
  (Mad.Derive.atoms_visited stats, Mad.Derive.links_traversed stats)

let compare_plans db p =
  (run db p, run db (T.optimize p))

let same_molecules a b =
  Mad.Molecule.Set.equal
    (Mad.Molecule_type.molecule_set a)
    (Mad.Molecule_type.molecule_set b)

let test_optimized_equals_naive () =
  let b, db = brazil () in
  let naive, optimized = compare_plans db (q2 b) in
  check "same result" true (same_molecules naive optimized);
  check_int "one molecule" 1 (Mad.Molecule_type.cardinality optimized)

let test_pushdown_reduces_work () =
  let b, db = brazil () in
  let f (a, l) = a + l in
  let naive = f (work db (q2 b)) and optimized = f (work db (T.optimize (q2 b))) in
  check "optimized does less work" true (optimized < naive);
  (* the naive plan derives all 18 point molecules; optimized derives 1 *)
  check "at least 5x less" true (naive >= 5 * optimized)

let test_pushdown_plan_shape () =
  let b, _ = brazil () in
  match T.optimize (q2 b) with
  | T.P_define { push = Some _; _ } -> ()
  | _ -> Alcotest.fail "expected the whole qualification in the root scan"

let test_non_root_predicate_not_pushed () =
  let b, _ = brazil () in
  match
    T.optimize
      (query
         ~where:Mad.Qual.(attr "point" "name" =% str "pn")
         (Geo_brazil.mt_state_desc b))
  with
  | T.P_restrict (_, T.P_define { push = None; _ }) -> ()
  | _ -> Alcotest.fail "expected a residual Σ over an unrestricted scan"

let test_mixed_predicate_split () =
  let b, db = brazil () in
  let q =
    query
      ~where:
        Mad.Qual.(
          attr "state" "hectare" >% int 500
          &&% (attr "point" "name" =% str "pn"))
      (Geo_brazil.mt_state_desc b)
  in
  (match T.optimize q with
   | T.P_restrict (_, T.P_define { push = Some _; _ }) -> ()
   | _ -> Alcotest.fail "expected root part pushed, non-root part residual");
  let naive, optimized = compare_plans db q in
  check "same result" true (same_molecules naive optimized);
  (* hectare > 500 and touching pn: GO(800) MS(700) SP(2000) MG(900) *)
  check_int "four states" 4 (Mad.Molecule_type.cardinality optimized)

let test_pruning () =
  let b, db = brazil () in
  let q =
    query
      ~where:Mad.Qual.(attr "state" "hectare" >% int 900)
      ~select:[ ("state", None); ("area", None) ]
      (Geo_brazil.mt_state_desc b)
  in
  (match T.optimize q with
   | T.P_project (_, T.P_define a) ->
     check_int "pruned to 2 nodes" 2 (List.length (Mad.Mdesc.nodes a.derive))
   | _ -> Alcotest.fail "expected Π over a pruned scan");
  let naive, optimized = compare_plans db q in
  check_int "same cardinality"
    (Mad.Molecule_type.cardinality naive)
    (Mad.Molecule_type.cardinality optimized);
  (* pruned derivation never touches edges/points *)
  check "pruning cuts traversals" true
    (snd (work db (T.optimize q)) < snd (work db q));
  (* the projected components agree molecule by molecule *)
  List.iter2
    (fun (m1 : Mad.Molecule.t) (m2 : Mad.Molecule.t) ->
      check "same state" true (Aid.equal m1.Mad.Molecule.root m2.Mad.Molecule.root);
      check "same area" true
        (Aid.Set.equal
           (Mad.Molecule.component m1 "area")
           (Mad.Molecule.component m2 "area")))
    (List.sort Mad.Molecule.compare (Mad.Molecule_type.occ naive))
    (List.sort Mad.Molecule.compare (Mad.Molecule_type.occ optimized))

let test_statistics () =
  let _, db = brazil () in
  let t = Prima.Stats.collect db in
  Alcotest.(check int)
    "state count" 10
    (Prima.Stats.Smap.find "state" t.Prima.Stats.atom_counts);
  (* every state name distinct *)
  Alcotest.(check int)
    "state.name ndv" 10
    (Prima.Stats.Smap.find "state.name" t.Prima.Stats.distinct);
  (* area-edge: 40 links over 10 areas -> fanout 4 forward *)
  let ls = Prima.Stats.Smap.find "area-edge" t.Prima.Stats.link_stats in
  check "area fanout 4" true (abs_float (ls.Prima.Stats.fanout_fwd -. 4.0) < 0.01)

let test_selectivity_rules () =
  let _, db = brazil () in
  let t = Prima.Stats.collect db in
  let s_eq = Prima.Stats.selectivity t Mad.Qual.(attr "state" "name" =% str "SP") in
  check "eq = 1/ndv" true (abs_float (s_eq -. 0.1) < 0.001);
  let s_and =
    Prima.Stats.selectivity t
      Mad.Qual.(
        attr "state" "name" =% str "SP" &&% (attr "state" "hectare" >% int 0))
  in
  check "and multiplies" true (s_and < s_eq);
  check "true is 1" true (Prima.Stats.selectivity t Mad.Qual.True = 1.0);
  check "false is 0" true (Prima.Stats.selectivity t Mad.Qual.False = 0.0);
  let s_not = Prima.Stats.selectivity t Mad.Qual.(Not (attr "state" "name" =% str "SP")) in
  check "not complements" true (abs_float (s_not -. 0.9) < 0.001)

let test_estimates_track_counters () =
  (* the optimizer's estimates must rank naive above optimized, and be
     within an order of magnitude of the real counters *)
  let b, db = brazil () in
  let t = Prima.Stats.collect db in
  let desc = Geo_brazil.point_neighborhood_desc b in
  let naive_est = Prima.Stats.estimate t ~root_pred:None desc in
  let root_pred =
    match T.optimize (q2 b) with
    | T.P_define a -> a.push
    | _ -> Alcotest.fail "expected a pushed scan"
  in
  let opt_est = Prima.Stats.estimate t ~root_pred desc in
  check "naive estimated costlier" true
    (naive_est.Prima.Stats.est_links > opt_est.Prima.Stats.est_links);
  let within_10x est actual =
    actual = 0 || (est > float_of_int actual /. 10.0 && est < float_of_int actual *. 10.0)
  in
  check "naive links within 10x" true
    (within_10x naive_est.Prima.Stats.est_links (snd (work db (q2 b))));
  check "optimized links within 10x" true
    (within_10x opt_est.Prima.Stats.est_links (snd (work db (T.optimize (q2 b)))))

(* ------------------------------------------------------------------ *)
(* Adaptive statistics: refining with recorded actuals closes the gap   *)

(* one profiled run of [plan] with estimates from [catalog] *)
let analyze ~catalog db plan =
  let stats = Mad.Derive.stats_in (Mad_obs.Registry.create ()) in
  let rc = Profile.start db stats in
  let mt =
    match T.run ~stats ~observe:(Profile.observe rc) db (fun _ -> None) plan with
    | T.Molecules mt -> mt
    | T.Recursive _ | T.Cycles _ -> Alcotest.fail "expected molecules"
  in
  Profile.finish rc ~catalog ~plan:(Some plan)
    ~rows:(Mad.Molecule_type.cardinality mt)

(* one EXPLAIN ANALYZE / refine round trip on [q]: the estimate error
   of the refined catalog must be strictly below the static catalog's *)
let refine_shrinks_error db q =
  let stats0 = Prima.Stats.collect db in
  let r0 = analyze ~catalog:stats0 db q in
  let e0 = Profile.error r0 in
  check "static catalog has error to close" true (e0 > 0.0);
  let stats1 = Profile.refine stats0 r0 in
  let r1 = analyze ~catalog:stats1 db q in
  let e1 = Profile.error r1 in
  check
    (Printf.sprintf "refined error %.2f < static %.2f" e1 e0)
    true (e1 < e0)

let test_refine_brazil () =
  let b, db = brazil () in
  refine_shrinks_error db (query (Geo_brazil.mt_state_desc b))

let test_refine_geo_grid () =
  let g = Geo_gen.build Geo_gen.default in
  let db = g.Geo_grid.db in
  refine_shrinks_error db (query (Geo_schema.mt_state_desc db))

(* refinement converges: repeating the same query stops drifting — the
   second refined round is no worse than the first, and drift entries
   over the default factor disappear once the catalog has learned *)
let test_refine_converges () =
  let b, db = brazil () in
  let q = query (Geo_brazil.mt_state_desc b) in
  let stats0 = Prima.Stats.collect db in
  let r0 = analyze ~catalog:stats0 db q in
  let stats1 = Profile.refine stats0 r0 in
  let r1 = analyze ~catalog:stats1 db q in
  let stats2 = Profile.refine stats1 r1 in
  let r2 = analyze ~catalog:stats2 db q in
  check "second round no worse" true (Profile.error r2 <= Profile.error r1);
  check "learned catalog under drift factor" true
    (List.length (Profile.drift r2) <= List.length (Profile.drift r0))

let test_explain_mentions_rewrites () =
  let b, _ = brazil () in
  check "the scan carries the pushed restriction" true
    (List.mem "  scan point where point.name = 'pn'"
       (T.lines (T.optimize (q2 b))))

let suite =
  [
    Alcotest.test_case "optimized = naive (Q2)" `Quick
      test_optimized_equals_naive;
    Alcotest.test_case "pushdown reduces work" `Quick
      test_pushdown_reduces_work;
    Alcotest.test_case "pushdown plan shape" `Quick test_pushdown_plan_shape;
    Alcotest.test_case "non-root predicate stays residual" `Quick
      test_non_root_predicate_not_pushed;
    Alcotest.test_case "mixed predicate splits" `Quick
      test_mixed_predicate_split;
    Alcotest.test_case "projection pruning" `Quick test_pruning;
    Alcotest.test_case "explain mentions rewrites" `Quick
      test_explain_mentions_rewrites;
    Alcotest.test_case "statistics collection" `Quick test_statistics;
    Alcotest.test_case "selectivity rules" `Quick test_selectivity_rules;
    Alcotest.test_case "estimates track counters" `Quick
      test_estimates_track_counters;
    Alcotest.test_case "refine shrinks error (brazil)" `Quick
      test_refine_brazil;
    Alcotest.test_case "refine shrinks error (geo grid)" `Quick
      test_refine_geo_grid;
    Alcotest.test_case "refine converges" `Quick test_refine_converges;
  ]
