(* Closure corner cases: the Def. 9 exactness check and its
   per-molecule-copies fallback, operator chains over enlarged
   databases, closure after X, and reads that leave the schema and
   epoch alone. *)

open Mad_store
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Def. 9 on demand: operator results stay over the operand's types *)
let propagate db (mt : MT.t) : Mad.Propagate.t =
  Mad.Propagate.prop db ~name:mt.MT.name ~desc:mt.MT.desc
    ~attr_proj:mt.MT.attr_proj mt.MT.occ

(* The diamond that breaks shared propagation of a projection:
     r -> x, r -> y, x -> z, y -> z
   with two molecules m1 (root r1) and m2 (root r2) sharing a y atom,
   where a z atom belongs to m2 only (its x-parent is in m2).  After
   projecting away x, re-derivation over shared propagated types would
   grow m1 by that z atom (the x-constraint is gone and the shared y
   supplies a link); the fallback must kick in. *)
let diamond_db () =
  let db = Database.create () in
  List.iter
    (fun n ->
      ignore (Database.declare_atom_type db n [ Schema.Attr.v "v" Domain.Int ]))
    [ "r"; "x"; "y"; "z" ];
  ignore (Database.declare_link_type db "rx" ("r", "x"));
  ignore (Database.declare_link_type db "ry" ("r", "y"));
  ignore (Database.declare_link_type db "xz" ("x", "z"));
  ignore (Database.declare_link_type db "yz" ("y", "z"));
  let atom t v = (Database.insert_atom db ~atype:t [ Value.Int v ]).Atom.id in
  let r1 = atom "r" 1 and r2 = atom "r" 2 in
  let x1 = atom "x" 1 and x2 = atom "x" 2 in
  let y = atom "y" 1 in
  (* y shared by both molecules *)
  let z1 = atom "z" 1 and z2 = atom "z" 2 in
  Database.add_link db "rx" ~left:r1 ~right:x1;
  Database.add_link db "rx" ~left:r2 ~right:x2;
  Database.add_link db "ry" ~left:r1 ~right:y;
  Database.add_link db "ry" ~left:r2 ~right:y;
  Database.add_link db "xz" ~left:x1 ~right:z1;
  Database.add_link db "xz" ~left:x2 ~right:z2;
  Database.add_link db "yz" ~left:y ~right:z1;
  Database.add_link db "yz" ~left:y ~right:z2;
  (db, r1, r2, z1, z2)

let desc_of db =
  Mad.Mdesc.v db ~nodes:[ "r"; "x"; "y"; "z" ]
    ~edges:[ ("rx", "r", "x"); ("ry", "r", "y"); ("xz", "x", "z"); ("yz", "y", "z") ]

let test_projection_triggers_copy_fallback () =
  let db, r1, _, z1, z2 = diamond_db () in
  let mt = MA.define db ~name:"dia" (desc_of db) in
  check_int "two molecules" 2 (MT.cardinality mt);
  (* m1 holds z1 only, m2 holds z2 only (each z has one x-parent) *)
  let m1 =
    match MT.find_by_root mt r1 with Some m -> m | None -> assert false
  in
  check "m1 has z1" true (Aid.Set.mem z1 (Mad.Molecule.component m1 "z"));
  check "m1 lacks z2" false (Aid.Set.mem z2 (Mad.Molecule.component m1 "z"));
  (* project away x: the diamond constraint disappears *)
  let proj = MA.project db [ ("r", None); ("y", None); ("z", None) ] mt in
  let m = propagate db proj in
  check "fallback to per-molecule copies" true
    (m.strategy = `Copied);
  check "still exact (Def. 9)" true
    (Mad.Propagate.exact db m.mdesc m.mocc);
  (* the projected occurrence itself is unchanged in content *)
  check_int "still two molecules" 2 (MT.cardinality proj);
  let p1 =
    match MT.find_by_root proj r1 with Some m -> m | None -> assert false
  in
  check "projection kept m1's z only" true
    (Aid.Set.equal (Mad.Molecule.component p1 "z") (Aid.Set.singleton z1));
  check "closure report clean" true
    (Mad.Closure.ok (Mad.Closure.check_molecule_type db proj))

let test_sigma_stays_shared_on_diamond () =
  (* restriction of the same diamond keeps maximality, so shared
     propagation remains exact *)
  let db, _, _, _, _ = diamond_db () in
  let mt = MA.define db ~name:"dia2" (desc_of db) in
  let s = MA.restrict db Mad.Qual.(attr "r" "v" =% int 1) mt in
  check "shared suffices for Sigma" true
    ((propagate db s).strategy = `Shared)

let test_product_result_is_derivable () =
  (* X output is an ordinary molecule type: define over the enlarged
     database and compare *)
  let db, _, _, _, _ = diamond_db () in
  let mt = MA.define db ~name:"dia3" (desc_of db) in
  let x = MA.product ~name:"xx" db mt mt in
  check_int "2x2 pairs" 4 (MT.cardinality x);
  let re = MA.define db ~name:"re_x" (MT.desc x) in
  check "re-derivation gives the same occurrence" true
    (Mad.Molecule.Set.equal (MT.molecule_set x) (MT.molecule_set re))

let test_operator_chain_over_propagated_types () =
  (* keep operating on propagated results: Σ over the propagated type
     of a previous Σ, three levels deep *)
  let b = Workloads.Geo_brazil.build () in
  let db = Workloads.Geo_brazil.db b in
  let mt = MA.define db ~name:"c0" (Workloads.Geo_brazil.mt_state_desc b) in
  let s1 = MA.restrict db Mad.Qual.(attr "state" "hectare" >=% int 400) mt in
  let m1 = propagate db s1 in
  let mt1 = MA.define db ~name:"c1" m1.mdesc in
  check_int "as many molecules as s1" (MT.cardinality s1) (MT.cardinality mt1);
  (* the propagated root type name differs; restrict on it *)
  let root1 = Mad.Mdesc.root m1.mdesc in
  let s2 = MA.restrict db Mad.Qual.(attr root1 "hectare" >=% int 900) mt1 in
  let m2 = propagate db s2 in
  let mt2 = MA.define db ~name:"c2" m2.mdesc in
  check_int "four states at >=900" 4 (MT.cardinality mt2);
  check "integrity after three levels" true (Integrity.is_valid db)

(* Σ Π Ω Δ Ψ return result sets over the operand's types: no epoch
   move, no new atom or link type.  X is the documented exception (its
   pair root needs fresh types). *)
let test_reads_do_not_write () =
  let schema db =
    ( Database.epoch db,
      Database.atom_type_names db,
      Database.link_type_names db )
  in
  let reads db mt pred =
    let s = MA.restrict db pred mt in
    let root = Mad.Mdesc.root mt.MT.desc in
    ignore (MA.project db [ (root, None) ] mt);
    ignore (MA.union s mt);
    ignore (MA.diff mt s);
    ignore (MA.intersect mt s)
  in
  let b = Workloads.Geo_brazil.build () in
  let brazil = Workloads.Geo_brazil.db b in
  let dia, _, _, _, _ = diamond_db () in
  List.iter
    (fun (label, db, mt, pred) ->
      let ((epoch, atypes, _) as before) = schema db in
      reads db mt pred;
      check (label ^ ": Sigma Pi Omega Delta Psi write nothing") true
        (schema db = before);
      ignore (MA.product db mt mt);
      let epoch', atypes', _ = schema db in
      check (label ^ ": X enlarges the schema") true
        (epoch' > epoch && List.length atypes' > List.length atypes))
    [
      ( "brazil",
        brazil,
        MA.define brazil ~name:"rw" (Workloads.Geo_brazil.mt_state_desc b),
        Mad.Qual.(attr "state" "hectare" >% int 900) );
      ( "diamond",
        dia,
        MA.define dia ~name:"rw_dia" (desc_of dia),
        Mad.Qual.(attr "r" "v" =% int 1) );
    ]

let test_atom_op_chain_closure () =
  (* Theorem 1 chains: op results feed further ops indefinitely *)
  let b = Workloads.Geo_brazil.build () in
  let db = Workloads.Geo_brazil.db b in
  let module AA = Mad.Atom_algebra in
  let r1 =
    AA.restrict db ~name:"t1"
      ~pred:Mad.Qual.(attr "state" "hectare" >% int 300)
      "state"
  in
  let r2 = AA.project db ~name:"t2" ~attrs:[ "name" ] "t1" in
  let r3 = AA.product db ~name:"t3" "t2" "river" in
  let r4 =
    AA.restrict db ~name:"t4"
      ~pred:Mad.Qual.(attr "t3" "length" >% int 2000)
      "t3"
  in
  List.iter
    (fun r ->
      check "closure" true (Mad.Closure.ok (Mad.Closure.check_atom_result db r)))
    [ r1; r2; r3; r4 ];
  (* 8 states > 300 ha x 2 rivers longer than 2000 *)
  check_int "chained result" 16 (Database.count_atoms db "t4")

let suite =
  [
    Alcotest.test_case "projection triggers copy fallback (Def. 9)" `Quick
      test_projection_triggers_copy_fallback;
    Alcotest.test_case "sigma stays shared on diamond" `Quick
      test_sigma_stays_shared_on_diamond;
    Alcotest.test_case "X result derivable" `Quick
      test_product_result_is_derivable;
    Alcotest.test_case "operator chain over propagated types" `Quick
      test_operator_chain_over_propagated_types;
    Alcotest.test_case "reads do not write (X excepted)" `Quick
      test_reads_do_not_write;
    Alcotest.test_case "atom-op chain closure (Thm 1)" `Quick
      test_atom_op_chain_closure;
  ]
