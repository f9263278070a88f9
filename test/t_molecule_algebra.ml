(* Molecule algebra: α Σ Π X Ω Δ Ψ with propagation and the closure
   theorems (Defs. 8-10, Theorems 2-3). *)

open Mad_store
open Workloads
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let brazil () =
  let b = Geo_brazil.build () in
  (b, Geo_brazil.db b)

let mt_state b db = MA.define db ~name:"mt_state" (Geo_brazil.mt_state_desc b)

(* Def. 9 on demand: operator results stay over the operand's types *)
let propagate db (mt : MT.t) : Mad.Propagate.t =
  Mad.Propagate.prop db ~name:mt.MT.name ~desc:mt.MT.desc
    ~attr_proj:mt.MT.attr_proj mt.MT.occ

let closure_ok db mt =
  let report = Mad.Closure.check_molecule_type db mt in
  if not (Mad.Closure.ok report) then
    Alcotest.failf "%s" (Format.asprintf "%a" Mad.Closure.pp_report report);
  true

let test_define_alpha () =
  let b, db = brazil () in
  let mt = mt_state b db in
  check_int "10 molecules" 10 (MT.cardinality mt);
  check "closure" true (closure_ok db mt)

let test_restrict_sigma () =
  let b, db = brazil () in
  let mt = mt_state b db in
  let big =
    MA.restrict ~name:"big_states" db
      Mad.Qual.(attr "state" "hectare" >% int 900)
      mt
  in
  (* hectare > 900: BA=1000, SP=2000, RS=1500 *)
  check_int "three big states" 3 (MT.cardinality big);
  check "closure" true (closure_ok db big);
  check "shared propagation suffices" true
    ((propagate db big).strategy = `Shared);
  (* restriction referencing a non-root node: states bordered by the
     Parana's net — via implicit existential semantics over point *)
  let sigma_pn =
    MA.restrict ~name:"touch_pn" db
      Mad.Qual.(attr "point" "name" =% str "pn")
      mt
  in
  check_int "four states touch pn" 4 (MT.cardinality sigma_pn)

let test_restrict_empty_and_full () =
  let b, db = brazil () in
  let mt = mt_state b db in
  let none = MA.restrict db Mad.Qual.False mt in
  check_int "empty restriction" 0 (MT.cardinality none);
  check "closure of empty" true (closure_ok db none);
  let all = MA.restrict db Mad.Qual.True mt in
  check_int "full restriction" 10 (MT.cardinality all)

let test_project_pi () =
  let b, db = brazil () in
  let mt = mt_state b db in
  let proj =
    MA.project ~name:"state_area" db
      [ ("state", Some [ "name" ]); ("area", None) ]
      mt
  in
  check_int "still 10 molecules" 10 (MT.cardinality proj);
  check "closure" true (closure_ok db proj);
  (* projected-away node rejected downstream *)
  (match
     MA.restrict db Mad.Qual.(attr "edge" "length" >% int 0) proj
   with
  | _ -> Alcotest.fail "restriction on projected-away node must fail"
  | exception Err.Mad_error _ -> ());
  (* projected-away attribute rejected *)
  match MA.restrict db Mad.Qual.(attr "state" "hectare" >% int 0) proj with
  | _ -> Alcotest.fail "restriction on projected-away attribute must fail"
  | exception Err.Mad_error _ -> ()

let test_project_invalid () =
  let b, db = brazil () in
  let mt = mt_state b db in
  (* dropping an inner node disconnects the structure *)
  match MA.project db [ ("state", None); ("edge", None) ] mt with
  | _ -> Alcotest.fail "disconnected projection must fail"
  | exception Err.Mad_error _ -> ()

let test_union_diff_intersect () =
  let b, db = brazil () in
  let mt = mt_state b db in
  let big = MA.restrict db Mad.Qual.(attr "state" "hectare" >% int 900) mt in
  let touches =
    MA.restrict db Mad.Qual.(attr "point" "name" =% str "pn") mt
  in
  let u = MA.union big touches in
  (* big: BA SP RS; touches: GO MG MS SP; SP common *)
  check_int "union" 6 (MT.cardinality u);
  check "closure union" true (closure_ok db u);
  let d = MA.diff big touches in
  check_int "difference" 2 (MT.cardinality d);
  check "closure diff" true (closure_ok db d);
  let i = MA.intersect big touches in
  check_int "intersection" 1 (MT.cardinality i);
  check "closure intersect" true (closure_ok db i);
  (* Ψ = Δ(mt1, Δ(mt1, mt2)) is exactly the intersection *)
  let i' = MA.diff big (MA.diff big touches) in
  check "psi = delta twice" true
    (Mad.Molecule.Set.equal (MT.molecule_set i) (MT.molecule_set i'))

let test_union_incompatible () =
  let b, db = brazil () in
  let mt = mt_state b db in
  let pn = MA.define db ~name:"pn_mt" (Geo_brazil.point_neighborhood_desc b) in
  match MA.union mt pn with
  | _ -> Alcotest.fail "union of different structures must fail"
  | exception Err.Mad_error _ -> ()

let test_product_x () =
  let b, db = brazil () in
  let mt = mt_state b db in
  let big = MA.restrict db Mad.Qual.(attr "state" "hectare" >% int 1400) mt in
  (* SP, RS *)
  let small = MA.restrict db Mad.Qual.(attr "state" "hectare" <% int 300) mt in
  (* ES *)
  let x = MA.product ~name:"bigxsmall" db big small in
  check_int "2 x 1 pairs" 2 (MT.cardinality x);
  (* the product is itself a valid molecule type over the enlarged db *)
  List.iter
    (fun m ->
      check "pair molecule satisfies spec" true
        (Mad.Molecule.mv_graph db x.MT.desc m))
    x.MT.occ

let test_operator_pipeline_stays_closed () =
  let b, db = brazil () in
  let mt = mt_state b db in
  (* Σ ∘ Π ∘ Σ — every stage a valid molecule type *)
  let s1 = MA.restrict db Mad.Qual.(attr "state" "hectare" >=% int 400) mt in
  let p1 = MA.project db [ ("state", None); ("area", None); ("edge", None) ] s1 in
  let s2 = MA.restrict db Mad.Qual.(Count "edge" >=% int 4) p1 in
  check "pipeline closure" true (closure_ok db s2);
  check_int "hectare>=400 states with >=4 edges" 8 (MT.cardinality s2);
  check "db still valid" true (Integrity.is_valid db)

let test_propagated_types_are_queryable () =
  (* The outcome of propagation is a first-class molecule type over the
     enlarged database: deriving it again must work (Def. 9). *)
  let b, db = brazil () in
  let mt = mt_state b db in
  let big = MA.restrict ~name:"bigp" db Mad.Qual.(attr "state" "hectare" >% int 900) mt in
  let m = propagate db big in
  let re = MA.define db ~name:"re_derived" m.mdesc in
  check "re-derivation equals propagated occurrence" true
    (Mad.Molecule.Set.equal (MT.molecule_set re)
       (Mad.Molecule.Set.of_list m.mocc))

let suite =
  [
    Alcotest.test_case "alpha (define)" `Quick test_define_alpha;
    Alcotest.test_case "sigma (restrict)" `Quick test_restrict_sigma;
    Alcotest.test_case "sigma empty/full" `Quick test_restrict_empty_and_full;
    Alcotest.test_case "pi (project)" `Quick test_project_pi;
    Alcotest.test_case "pi rejects disconnection" `Quick test_project_invalid;
    Alcotest.test_case "omega/delta/psi" `Quick test_union_diff_intersect;
    Alcotest.test_case "omega rejects incompatible" `Quick
      test_union_incompatible;
    Alcotest.test_case "x (product)" `Quick test_product_x;
    Alcotest.test_case "pipeline stays closed" `Quick
      test_operator_pipeline_stays_closed;
    Alcotest.test_case "propagated types queryable" `Quick
      test_propagated_types_are_queryable;
  ]
