(* Property-based tests (qcheck): algebraic laws, derivation vs. the
   Def. 6 specification, closure on random pipelines, cross-engine
   equivalence, nest/unnest inverses, recursion vs. reference closure,
   MOL print/parse round-trips. *)

open Mad_store
open Workloads
module Q = QCheck
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)

let geo_params_gen =
  Q.Gen.(
    map
      (fun (rows, cols, rivers, river_len, shared, seed) ->
        {
          Geo_gen.rows = 1 + rows;
          cols = 1 + cols;
          rivers;
          river_len = 1 + river_len;
          cities = 2;
          shared_rivers = shared;
          seed;
        })
      (tup6 (int_bound 3) (int_bound 3) (int_bound 3) (int_bound 3) bool
         (int_bound 1000)))

let geo_params =
  Q.make geo_params_gen
    ~print:(fun p ->
      Printf.sprintf "geo(%dx%d, rivers=%d, len=%d, shared=%b, seed=%d)"
        p.Geo_gen.rows p.Geo_gen.cols p.Geo_gen.rivers p.Geo_gen.river_len
        p.Geo_gen.shared_rivers p.Geo_gen.seed)

let bom_params_gen =
  Q.Gen.(
    map
      (fun (depth, width, fanout, share, seed) ->
        {
          Bom_gen.depth = 2 + depth;
          width = 2 + width;
          fanout = 1 + fanout;
          share = float_of_int share /. 10.0;
          seed;
        })
      (tup5 (int_bound 3) (int_bound 4) (int_bound 2) (int_bound 10)
         (int_bound 1000)))

let bom_params =
  Q.make bom_params_gen ~print:(fun p ->
      Printf.sprintf "bom(d=%d,w=%d,f=%d,s=%.1f,seed=%d)" p.Bom_gen.depth
        p.Bom_gen.width p.Bom_gen.fanout p.Bom_gen.share p.Bom_gen.seed)

(* random qualification over the mt_state structure *)
let pred_gen =
  let open Q.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Mad.Qual.(attr "state" "hectare" >% int (n * 100))) (int_bound 20);
        map (fun n -> Mad.Qual.(attr "state" "hectare" <=% int (n * 100))) (int_bound 20);
        map
          (fun i ->
            Mad.Qual.(
              attr "state" "name"
              =% str (List.nth [ "SP"; "MG"; "RS"; "GO"; "XX" ] i)))
          (int_bound 4);
        map (fun n -> Mad.Qual.(Count "edge" >=% int n)) (int_bound 6);
        map (fun n -> Mad.Qual.(attr "point" "x" =% int n)) (int_bound 3);
        return Mad.Qual.True;
        return Mad.Qual.False;
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 2,
            map2 (fun a b -> Mad.Qual.And (a, b)) (tree (depth - 1))
              (tree (depth - 1)) );
          ( 2,
            map2 (fun a b -> Mad.Qual.Or (a, b)) (tree (depth - 1))
              (tree (depth - 1)) );
          (1, map (fun a -> Mad.Qual.Not a) (tree (depth - 1)));
          ( 1,
            map
              (fun a -> Mad.Qual.Exists ("point", a))
              (map (fun n -> Mad.Qual.(attr "point" "y" =% int n)) (int_bound 3)) );
        ]
  in
  tree 3

let pred = Q.make pred_gen ~print:Mad.Qual.to_string

(* a fixed Brazil instance shared by the pure-logic properties *)
let brazil = Geo_brazil.build ()
let brazil_db = Geo_brazil.db brazil

let fresh_brazil () =
  let db = Database.copy brazil_db in
  let mt = MA.define db ~name:(MA.gen_name "b") (Geo_brazil.mt_state_desc brazil) in
  (db, mt)

let mset = MT.molecule_set

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)

let prop_derivation_satisfies_spec =
  Q.Test.make ~count:30 ~name:"derivation satisfies mv_graph (random geo)"
    geo_params (fun p ->
      let g = Geo_gen.build p in
      let db = g.Geo_grid.db in
      List.for_all
        (fun desc ->
          List.for_all
            (fun m -> Mad.Molecule.mv_graph db desc m)
            (Mad.Derive.m_dom db desc))
        [
          Geo_schema.mt_state_desc db;
          Geo_schema.mt_river_desc db;
          Geo_schema.point_neighborhood_desc db;
        ])

let prop_integrity_random_geo =
  Q.Test.make ~count:50 ~name:"generated databases are integrity-clean"
    geo_params (fun p ->
      Integrity.is_valid (Geo_gen.build p).Geo_grid.db)

let prop_sigma_commutes =
  Q.Test.make ~count:40 ~name:"Sigma_p . Sigma_q = Sigma_q . Sigma_p"
    (Q.pair pred pred) (fun (p, q) ->
      let db, mt = fresh_brazil () in
      let a = MA.restrict db q (MA.restrict db p mt) in
      let b = MA.restrict db p (MA.restrict db q mt) in
      Mad.Molecule.Set.equal (mset a) (mset b))

let prop_sigma_conjunction =
  Q.Test.make ~count:40 ~name:"Sigma_p . Sigma_q = Sigma_{p AND q}"
    (Q.pair pred pred) (fun (p, q) ->
      let db, mt = fresh_brazil () in
      let a = MA.restrict db q (MA.restrict db p mt) in
      let b = MA.restrict db (Mad.Qual.And (p, q)) mt in
      Mad.Molecule.Set.equal (mset a) (mset b))

let prop_union_laws =
  Q.Test.make ~count:30 ~name:"Omega commutative/idempotent, Delta(x,x)=0"
    (Q.pair pred pred) (fun (p, q) ->
      let db, mt = fresh_brazil () in
      let a = MA.restrict db p mt and b = MA.restrict db q mt in
      let u1 = MA.union a b and u2 = MA.union b a in
      Mad.Molecule.Set.equal (mset u1) (mset u2)
      && Mad.Molecule.Set.equal (mset (MA.union a a)) (mset a)
      && MT.cardinality (MA.diff a a) = 0)

let prop_psi_is_intersection =
  Q.Test.make ~count:30 ~name:"Psi = set intersection, symmetric"
    (Q.pair pred pred) (fun (p, q) ->
      let db, mt = fresh_brazil () in
      let a = MA.restrict db p mt and b = MA.restrict db q mt in
      let i1 = MA.intersect a b and i2 = MA.intersect b a in
      Mad.Molecule.Set.equal (mset i1) (mset i2)
      && Mad.Molecule.Set.equal (mset i1)
           (Mad.Molecule.Set.inter (mset a) (mset b)))

let prop_demorgan =
  Q.Test.make ~count:30 ~name:"Sigma_not(p) = Delta(all, Sigma_p)" pred
    (fun p ->
      let db, mt = fresh_brazil () in
      let not_p = MA.restrict db (Mad.Qual.Not p) mt in
      let complement = MA.diff mt (MA.restrict db p mt) in
      Mad.Molecule.Set.equal (mset not_p) (mset complement))

(* A propagated molecule read back over the source types through the
   propagation's maps: Def. 9's bijection, right to left. *)
let unpropagate desc (p : Mad.Propagate.t) (m : Mad.Molecule.t) =
  let source id = Aid.Map.find id p.atom_map in
  let node_of =
    MT.Smap.fold (fun src t acc -> MT.Smap.add t src acc) p.node_map
      MT.Smap.empty
  in
  let by_node =
    MT.Smap.fold
      (fun t atoms acc ->
        MT.Smap.add (MT.Smap.find t node_of) (Aid.Set.map source atoms) acc)
      m.by_node MT.Smap.empty
  in
  let links =
    Link.Set.map
      (fun (l : Link.t) ->
        let e =
          List.find
            (fun (e : Mad.Mdesc.edge) ->
              String.equal (MT.Smap.find e.link p.link_map) l.lt)
            (Mad.Mdesc.edges desc)
        in
        let parent = source l.left and child = source l.right in
        match e.dir with
        | `Fwd -> Link.v e.link parent child
        | `Bwd -> Link.v e.link child parent)
      m.links
  in
  Mad.Molecule.v ~root:(source m.root) ~by_node ~links

let prop_closure_random_pipeline =
  Q.Test.make ~count:15 ~name:"random pipelines stay closed (Thm. 3)"
    (Q.pair pred pred) (fun (p, q) ->
      let db, mt = fresh_brazil () in
      let s = MA.restrict db p mt in
      let pr = MA.project db [ ("state", None); ("area", None) ] s in
      let u = MA.union pr (MA.project db [ ("state", None); ("area", None) ] (MA.restrict db q mt)) in
      let types () =
        (Database.atom_type_names db, Database.link_type_names db)
      in
      List.for_all
        (fun (t : MT.t) ->
          let before = types () in
          Mad.Closure.ok (Mad.Closure.check_molecule_type db t)
          && before = types ()
          &&
          let mat =
            Mad.Propagate.prop db ~name:t.name ~desc:t.desc
              ~attr_proj:t.attr_proj t.occ
          in
          let back = List.map (unpropagate t.desc mat) mat.mocc in
          Mad.Propagate.cleanup db mat;
          List.equal Mad.Molecule.equal back t.occ)
        [ s; pr; u ]
      && Integrity.is_valid db)

let prop_relational_equals_mad =
  Q.Test.make ~count:20 ~name:"relational join plan = MAD derivation"
    geo_params (fun p ->
      let g = Geo_gen.build p in
      let db = g.Geo_grid.db in
      let map = Relational.Mapping.of_database db in
      List.for_all
        (fun desc ->
          let mad = Mad.Derive.m_dom db desc in
          let rel = Relational.Emulate.derive map db desc in
          List.length mad = List.length rel
          && List.for_all2
               (fun (m : Mad.Molecule.t) (root, comps) ->
                 Aid.equal m.Mad.Molecule.root root
                 && List.for_all
                      (fun node ->
                        Aid.Set.equal
                          (Mad.Molecule.component m node)
                          (Option.value ~default:Aid.Set.empty
                             (Relational.Emulate.Smap.find_opt node comps)))
                      (Mad.Mdesc.nodes desc))
               mad rel)
        [
          Geo_schema.mt_state_desc db;
          Geo_schema.point_neighborhood_desc db;
        ])

let prop_inlined_mapping_equiv =
  Q.Test.make ~count:15 ~name:"inlined 1:n mapping gives same derivation"
    geo_params (fun p ->
      let g = Geo_gen.build p in
      let db = g.Geo_grid.db in
      let m1 = Relational.Mapping.of_database db in
      let m2 = Relational.Mapping.of_database ~inline_1n:true db in
      let desc = Geo_schema.mt_state_desc db in
      let c1 = Relational.Emulate.derive m1 db desc in
      let c2 = Relational.Emulate.derive m2 db desc in
      List.for_all2
        (fun (r1, comps1) (r2, comps2) ->
          Aid.equal r1 r2
          && List.for_all
               (fun node ->
                 Aid.Set.equal
                   (Option.value ~default:Aid.Set.empty
                      (Relational.Emulate.Smap.find_opt node comps1))
                   (Option.value ~default:Aid.Set.empty
                      (Relational.Emulate.Smap.find_opt node comps2)))
               (Mad.Mdesc.nodes desc))
        c1 c2)

let prop_nest_unnest =
  Q.Test.make ~count:50 ~name:"unnest . nest = id (NF2)"
    Q.(list_of_size Q.Gen.(int_range 1 15) (pair (int_bound 5) (int_bound 5)))
    (fun pairs ->
      let r =
        Nf2.Nested.create
          [ ("a", Nf2.Nested.Scalar Domain.Int); ("b", Nf2.Nested.Scalar Domain.Int) ]
      in
      List.iter
        (fun (a, b) ->
          Nf2.Nested.insert r
            [ Nf2.Nested.Atom (Value.Int a); Nf2.Nested.Atom (Value.Int b) ])
        pairs;
      let back =
        Nf2.Nested.unnest (Nf2.Nested.nest r ~attrs:[ "b" ] ~as_name:"bs") ~attr:"bs"
      in
      Nf2.Nested.compare_rows r.Nf2.Nested.rows back.Nf2.Nested.rows = 0)

let prop_recursion_equals_closure =
  Q.Test.make ~count:25 ~name:"recursive derivation = transitive closure"
    bom_params (fun p ->
      let bom = Bom_gen.build p in
      let db = bom.Bom_gen.db in
      let d =
        Mad_recursive.Recursive.v db ~root_type:"part" ~link:"composition" ()
      in
      List.for_all
        (fun (m : Mad_recursive.Recursive.molecule) ->
          Aid.Set.equal m.Mad_recursive.Recursive.members
            (Bom_gen.explosion_reference bom m.Mad_recursive.Recursive.root))
        (Mad_recursive.Recursive.m_dom db d))

let prop_recursion_depth_monotone =
  Q.Test.make ~count:20 ~name:"recursion monotone in depth bound"
    bom_params (fun p ->
      let bom = Bom_gen.build p in
      let db = bom.Bom_gen.db in
      let root = bom.Bom_gen.levels.(0).(0) in
      let members k =
        (Mad_recursive.Recursive.derive_one db
           (Mad_recursive.Recursive.v db ~root_type:"part" ~link:"composition"
              ~max_depth:k ())
           root)
          .Mad_recursive.Recursive.members
      in
      let rec check k prev =
        if k > p.Bom_gen.depth + 1 then true
        else
          let cur = members k in
          Aid.Set.subset prev cur && check (k + 1) cur
      in
      check 1 (members 0))

let prop_rel_join_algorithms_agree =
  Q.Test.make ~count:40 ~name:"hash join = nested-loop join"
    Q.(
      pair
        (list_of_size Q.Gen.(int_range 0 20) (pair (int_bound 6) (int_bound 6)))
        (list_of_size Q.Gen.(int_range 0 20) (pair (int_bound 6) (int_bound 6))))
    (fun (ls, rs) ->
      let mk name pairs =
        let r =
          Relational.Relation.create name
            [ Schema.Attr.v "k" Domain.Int; Schema.Attr.v "v" Domain.Int ]
        in
        List.iter
          (fun (k, v) ->
            Relational.Relation.insert_list r [ Value.Int k; Value.Int v ])
          pairs;
        r
      in
      let l = mk "l" ls and r = mk "r" rs in
      let h = Relational.Rel_algebra.hash_join l r ~lkey:"k" ~rkey:"k" in
      let n =
        Relational.Rel_algebra.nl_join
          (fun t1 t2 -> Value.equal_sem t1.(0) t2.(0))
          l r
      in
      let m = Relational.Rel_algebra.merge_join l r ~lkey:"k" ~rkey:"k" in
      let same a b =
        List.equal
          (fun x y ->
            List.compare Value.compare (Array.to_list x) (Array.to_list y) = 0)
          (Relational.Relation.sorted_tuples a)
          (Relational.Relation.sorted_tuples b)
      in
      same h n && same m h)

let prop_mad_atom_ops_equal_relational =
  Q.Test.make ~count:25 ~name:"atom algebra = relational algebra (link-free)"
    (Q.pair (Q.list_of_size Q.Gen.(int_range 0 15) Q.(pair small_nat (int_bound 10)))
       Q.small_nat)
    (fun (rows, threshold) ->
      (* a single link-free atom type / relation with the same rows *)
      let db = Database.create () in
      ignore
        (Database.declare_atom_type db "t"
           [ Schema.Attr.v "a" Domain.Int; Schema.Attr.v "b" Domain.Int ]);
      let rel =
        Relational.Relation.create "t"
          [ Schema.Attr.v "a" Domain.Int; Schema.Attr.v "b" Domain.Int ]
      in
      List.iter
        (fun (a, b) ->
          ignore (Database.insert_atom db ~atype:"t" [ Value.Int a; Value.Int b ]);
          Relational.Relation.insert_list rel [ Value.Int a; Value.Int b ])
        rows;
      (* σ *)
      let mad_sigma =
        Mad.Atom_algebra.restrict db ~name:"s"
          ~pred:Mad.Qual.(attr "t" "a" >% int threshold)
          "t"
      in
      let rel_sigma =
        Relational.Rel_algebra.select
          (fun t -> Value.compare_sem t.(0) (Value.Int threshold) > 0)
          rel
      in
      let mad_values name =
        Database.atoms db name
        |> List.map (fun (a : Atom.t) -> Array.to_list a.values)
        |> List.sort (List.compare Value.compare)
      in
      let rel_values r =
        Relational.Relation.sorted_tuples r |> List.map Array.to_list
      in
      ignore mad_sigma;
      (* note: σ keeps duplicates 1-1 with source atoms; compare as sets *)
      let as_set l = List.sort_uniq (List.compare Value.compare) l in
      as_set (mad_values "s") = as_set (rel_values rel_sigma)
      &&
      (* π *)
      let _ = Mad.Atom_algebra.project db ~name:"p" ~attrs:[ "b" ] "t" in
      let rel_pi = Relational.Rel_algebra.project [ "b" ] rel in
      as_set (mad_values "p") = as_set (rel_values rel_pi))

let prop_mol_roundtrip =
  (* random SELECT statements print/parse to a fixed point *)
  let stmt_gen =
    Q.Gen.(
      map
        (fun (pred_opt, all) ->
          let select = if all then Mad_mql.Ast.All else Mad_mql.Ast.Items [ ("state", None); ("area", Some [ "name" ]) ] in
          Mad_mql.Ast.Query
            (Mad_mql.Ast.Q
               {
                 Mad_mql.Ast.select;
                 from =
                   Mad_mql.Ast.From_named_def
                     ( "m",
                       {
                         Mad_mql.Ast.s_nodes = [ "state"; "area"; "edge"; "point" ];
                         s_edges =
                           [
                             (Mad_mql.Ast.Auto, "state", "area");
                             (Mad_mql.Ast.Auto, "area", "edge");
                             (Mad_mql.Ast.Via "edge-point", "edge", "point");
                           ];
                       } );
                 where = pred_opt;
               }))
        (pair
           (opt
              (frequency
                 [
                   (3, pred_gen);
                   (* DEPTH, a keyword elsewhere, as an attribute name *)
                   ( 1,
                     map2
                       (fun n p -> Mad.Qual.(And (attr "state" "DEPTH" >=% int n, p)))
                       (int_bound 3) pred_gen );
                 ]))
           bool))
  in
  let arb =
    Q.make stmt_gen ~print:(fun s -> Mad_mql.Ast.to_string s)
  in
  Q.Test.make ~count:60 ~name:"MOL print/parse round-trip" arb (fun stmt ->
      let printed = Mad_mql.Ast.to_string stmt in
      let reparsed = Mad_mql.Parser.parse printed in
      String.equal (Mad_mql.Ast.to_string reparsed) printed)

let vlsi_params_gen =
  Q.Gen.(
    map
      (fun (leaves, levels, mods, insts, seed) ->
        {
          Vlsi_gen.leaf_cells = 2 + leaves;
          levels = 1 + levels;
          modules_per_level = 1 + mods;
          instances_per_module = 1 + insts;
          pins_per_cell = 2;
          seed;
        })
      (tup5 (int_bound 4) (int_bound 2) (int_bound 3) (int_bound 3)
         (int_bound 1000)))

let vlsi_params =
  Q.make vlsi_params_gen ~print:(fun p ->
      Printf.sprintf "vlsi(l=%d,lv=%d,m=%d,i=%d,seed=%d)" p.Vlsi_gen.leaf_cells
        p.Vlsi_gen.levels p.Vlsi_gen.modules_per_level
        p.Vlsi_gen.instances_per_module p.Vlsi_gen.seed)

let prop_cycle_equals_reference =
  Q.Test.make ~count:20 ~name:"cycle recursion = composed closure (random VLSI)"
    vlsi_params (fun p ->
      let design = Vlsi_gen.build p in
      let db = design.Vlsi_gen.db in
      let module R = Mad_recursive.Recursive in
      let d =
        R.cycle db ~root_type:"cell"
          ~steps:
            [
              ("cell-pin", `Fwd); ("net-pin", `Bwd); ("net-pin", `Fwd);
              ("cell-pin", `Bwd);
            ]
          ()
      in
      let step frontier =
        let hop link dir s =
          Aid.Set.fold
            (fun id acc -> Aid.Set.union acc (Database.neighbors db link ~dir id))
            s Aid.Set.empty
        in
        frontier |> hop "cell-pin" `Fwd |> hop "net-pin" `Bwd
        |> hop "net-pin" `Fwd |> hop "cell-pin" `Bwd
      in
      let reference root =
        let rec go seen frontier =
          if Aid.Set.is_empty frontier then seen
          else
            let fresh = Aid.Set.diff (step frontier) seen in
            go (Aid.Set.union seen fresh) fresh
        in
        go (Aid.Set.singleton root) (Aid.Set.singleton root)
      in
      List.for_all
        (fun (m : R.cycle_molecule) ->
          Aid.Set.equal m.R.c_members (reference m.R.c_root_atom))
        (R.cycle_m_dom db d))

let prop_parser_total =
  (* the MOL front end must never crash: any input either parses or
     raises Mad_error *)
  let fragment_gen =
    Q.Gen.(
      map (String.concat " ")
        (list_size (int_bound 12)
           (oneofl
              [
                "SELECT"; "FROM"; "WHERE"; "ALL"; "AND"; "OR"; "state";
                "area"; "-"; "("; ")"; ","; ";"; "."; "'x'"; "42"; "3.5";
                "=%"; "="; "<"; "COUNT"; "SUM"; "RECURSIVE"; "BY"; "DEPTH";
                "WITH"; "DELETE"; "INSERT"; "INTO"; "VALUES"; "LINK"; "@7";
                "~"; "-[state-area]-"; "UNION"; "mt_state"; "--c"; "*";
              ])))
  in
  Q.Test.make ~count:300 ~name:"parser totality (fuzz)"
    (Q.make fragment_gen ~print:Fun.id) (fun src ->
      match Mad_mql.Parser.parse src with
      | _ -> true
      | exception Err.Mad_error _ -> true)

let prop_value_order_total =
  let value_gen =
    Q.Gen.(
      sized_size (int_bound 3) (fix (fun self n ->
          if n = 0 then
            oneof
              [
                map (fun i -> Value.Int i) small_int;
                map (fun f -> Value.Float (float_of_int f)) small_int;
                map (fun b -> Value.Bool b) bool;
                map (fun s -> Value.String s) (string_size (int_bound 4));
              ]
          else
            frequency
              [
                (3, self 0);
                (1, map (fun l -> Value.List l) (list_size (int_bound 3) (self 0)));
              ])))
  in
  let arb = Q.make value_gen ~print:Value.to_string in
  Q.Test.make ~count:100 ~name:"value ordering is a total order"
    (Q.triple arb arb arb) (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry *)
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      && (* transitivity on a sorted triple *)
      (let l = List.sort Value.compare [ a; b; c ] in
       match l with
       | [ x; y; z ] ->
         Value.compare x y <= 0 && Value.compare y z <= 0
         && Value.compare x z <= 0
       | _ -> false))

let prop_serialize_roundtrip =
  Q.Test.make ~count:25 ~name:"dump/load round-trip (random geo)" geo_params
    (fun p ->
      let db = (Geo_gen.build p).Geo_grid.db in
      let db' = Serialize.load (Serialize.dump db) in
      String.equal (Serialize.dump db) (Serialize.dump db')
      && Integrity.is_valid db')

let prop_delete_preserves_validity =
  Q.Test.make ~count:25 ~name:"random deletes keep the database valid"
    (Q.pair pred Q.bool) (fun (p, detach) ->
      let db, mt = fresh_brazil () in
      let victims =
        List.filter
          (fun m -> MA.molecule_satisfies db mt m p)
          (MT.occ mt)
      in
      let mode = if detach then `Unlink_only else `Shared_safe in
      let _ = Mad.Manipulate.delete_molecules ~mode db mt victims in
      Integrity.is_valid db)

let prop_delete_survivors_unchanged =
  Q.Test.make ~count:25 ~name:"shared-safe delete leaves survivors intact"
    pred (fun p ->
      let db, mt = fresh_brazil () in
      let victims, survivors =
        List.partition (fun m -> MA.molecule_satisfies db mt m p) (MT.occ mt)
      in
      let _ = Mad.Manipulate.delete_molecules db mt victims in
      (* every survivor's molecule re-derives to exactly its old self *)
      List.for_all
        (fun (m : Mad.Molecule.t) ->
          let m' =
            Mad.Derive.derive_one db (MT.desc mt) m.Mad.Molecule.root
          in
          Mad.Molecule.equal m m')
        survivors)

let prop_paged_equals_direct =
  Q.Test.make ~count:15 ~name:"paged derivation = direct derivation"
    (Q.pair geo_params (Q.make Q.Gen.(int_range 1 16) ~print:string_of_int))
    (fun (p, buffer_pages) ->
      let db = (Geo_gen.build p).Geo_grid.db in
      let desc = Geo_schema.mt_state_desc db in
      let direct = Mad.Derive.m_dom db desc in
      List.for_all
        (fun placement ->
          let s =
            Prima.Paged.load ~placement ~page_size:4 ~buffer_pages db
          in
          List.equal Mad.Molecule.equal direct (Prima.Paged.m_dom s desc))
        [ `By_type; `By_molecule desc ])

let prop_recursive_setop_laws =
  Q.Test.make ~count:25 ~name:"recursive set-operation laws" bom_params
    (fun p ->
      let bom = Bom_gen.build p in
      let db = bom.Bom_gen.db in
      let module R = Mad_recursive.Recursive in
      let t = R.define db ~name:"t" (R.v db ~root_type:"part" ~link:"composition" ()) in
      let half =
        R.restrict db
          Mad.Qual.(Exists ("part", attr "part" "level" >=% int 1))
          t ~name:"h"
      in
      let u = R.union ~name:"u" half t in
      let i = R.intersect ~name:"i" half t in
      let d = R.diff ~name:"d" t half in
      List.length u.R.occ = List.length t.R.occ
      && List.length i.R.occ = List.length half.R.occ
      && List.length d.R.occ + List.length half.R.occ = List.length t.R.occ)

let prop_estimates_rank_plans =
  Q.Test.make ~count:25 ~name:"optimizer estimates rank optimized <= naive"
    pred (fun p ->
      let db = Database.copy brazil_db in
      let t = Prima.Stats.collect db in
      let desc = Geo_brazil.mt_state_desc brazil in
      let root_pred =
        match
          Mad_mql.Translate.optimize
            (Mad_mql.Translate.P_restrict
               (p, Mad_mql.Translate.alpha ~name:"q" desc))
        with
        | Mad_mql.Translate.P_define a
        | Mad_mql.Translate.P_restrict (_, Mad_mql.Translate.P_define a) ->
          a.Mad_mql.Translate.push
        | _ -> None
      in
      let naive = Prima.Stats.estimate t ~root_pred:None desc in
      let opt = Prima.Stats.estimate t ~root_pred desc in
      opt.Prima.Stats.est_links <= naive.Prima.Stats.est_links +. 1e-9)

(* ------------------------------------------------------------------ *)
(* The rewritten plan against the naive plan                            *)

module T = Mad_mql.Translate
module R = Mad_recursive.Recursive

(* where a random qualification ranges: the structure's nodes (the
   root first) over a database; [members] for recursive and cycle
   types, whose root also carries the DEPTH pseudo-attribute *)
type qctx = { db : Database.t; nodes : string array; members : bool }

let attrs ctx node =
  Array.of_list
    (List.map
       (fun (a : Schema.Attr.t) -> (a.Schema.Attr.name, a.Schema.Attr.domain))
       (Database.atom_type ctx.db node).Schema.Atom_type.attrs)

(* the k-th atom's value, so equalities hit real data *)
let value_of ctx node attr k =
  match Database.atoms ctx.db node with
  | [] -> Value.Int 0
  | atoms ->
    let a = List.nth atoms (k mod List.length atoms) in
    Atom.value a (Database.atom_type ctx.db node) attr

let int_attr ctx node =
  List.find_opt
    (fun (_, d) -> d = Domain.Int)
    (Array.to_list (attrs ctx node))
  |> Option.map fst

(* a random qualification as a function of its context: root-only
   conjuncts half the time, COUNT, SUM and DEPTH among the leaves *)
let qual_gen : (qctx -> Mad.Qual.t) Q.Gen.t =
  let open Q.Gen in
  let node = frequency [ (3, return 0); (2, int_bound 5) ] in
  let pick ctx i = ctx.nodes.(i mod Array.length ctx.nodes) in
  let cmp = oneofl Mad.Qual.[ Eq; Ne; Lt; Ge ] in
  let leaf =
    frequency
      [
        ( 4,
          map3
            (fun i j (c, k) ctx ->
              let n = pick ctx i in
              let a = attrs ctx n in
              let attr, _ = a.(j mod Array.length a) in
              Mad.Qual.Cmp (c, Mad.Qual.attr n attr, Mad.Qual.Const (value_of ctx n attr k)))
            node nat (pair cmp nat) );
        ( 1,
          map2
            (fun i k ctx -> Mad.Qual.(Count (pick ctx i) >=% int k))
            node (int_bound 4) );
        ( 1,
          map2
            (fun i k ctx ->
              let n = pick ctx i in
              match int_attr ctx n with
              | Some a -> Mad.Qual.(Agg (Sum, n, a) >% int (k * 10))
              | None -> Mad.Qual.(Count n >=% int k))
            node (int_bound 20) );
        ( 1,
          map
            (fun k ctx ->
              if ctx.members then Mad.Qual.(attr ctx.nodes.(0) "DEPTH" <=% int k)
              else Mad.Qual.True)
            (int_bound 3) );
        (1, return (fun _ -> Mad.Qual.False));
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 3,
            map2 (fun a b ctx -> Mad.Qual.And (a ctx, b ctx)) (tree (depth - 1))
              (tree (depth - 1)) );
          ( 1,
            map2 (fun a b ctx -> Mad.Qual.Or (a ctx, b ctx)) (tree (depth - 1))
              (tree (depth - 1)) );
          (1, map (fun a ctx -> Mad.Qual.Not (a ctx)) (tree (depth - 1)));
          ( 1,
            map2
              (fun i a ctx ->
                let n = pick ctx i in
                Mad.Qual.Exists (n, a { ctx with nodes = [| n |] }))
              node leaf );
        ]
  in
  tree 3

let qual = Q.make qual_gen ~print:(fun _ -> "<qualification>")

(* a random SELECT: ALL, or the root plus some nodes, some with one
   attribute *)
let select_gen : (qctx -> (string * string list option) list option) Q.Gen.t =
  Q.Gen.(
    map2
      (fun all picks ctx ->
        if all then None
        else
          let n = Array.length ctx.nodes in
          Some
            ((ctx.nodes.(0), None)
            :: List.sort_uniq compare
                 (List.filter_map
                    (fun (i, one) ->
                      let node = ctx.nodes.(1 + (i mod max 1 (n - 1))) in
                      if n = 1 then None
                      else if one then
                        Some (node, Some [ fst (attrs ctx node).(0) ])
                      else Some (node, None))
                    picks)))
      bool
      (list_size (int_bound 3) (pair nat bool)))

(* the reply as a session renders it, without the generated type name
   on its first line; an error is its message *)
let reply db plan =
  match T.run db (fun _ -> None) plan with
  | result ->
    let text =
      match result with
      | T.Molecules mt ->
        Format.asprintf "%a" (fun ppf () -> Mad.Render.pp_molecule_type db ppf mt) ()
      | T.Recursive r -> Format.asprintf "%a" R.pp (db, r)
      | T.Cycles c -> Format.asprintf "%a" R.pp_cycle (db, c)
    in
    List.tl (String.split_on_char '\n' text)
  | exception Err.Mad_error msg -> [ "error: " ^ msg ]

(* a recursive or cycle scan never takes COUNT, an aggregate or DEPTH *)
let rec pushes_plain_attrs = function
  | T.P_recursive (_, Some q) | T.P_cycle (_, Some q) ->
    let rec expr = function
      | Mad.Qual.Const _ -> true
      | Mad.Qual.Attr { attr; _ } -> attr <> "DEPTH"
      | Mad.Qual.Count _ | Mad.Qual.Agg _ -> false
      | Mad.Qual.Add (a, b) | Mad.Qual.Sub (a, b) | Mad.Qual.Mul (a, b)
      | Mad.Qual.Div (a, b) ->
        expr a && expr b
    in
    let rec ok = function
      | Mad.Qual.True | Mad.Qual.False -> true
      | Mad.Qual.Cmp (_, a, b) -> expr a && expr b
      | Mad.Qual.And (a, b) | Mad.Qual.Or (a, b) -> ok a && ok b
      | Mad.Qual.Not a -> ok a
      | Mad.Qual.Exists _ | Mad.Qual.Forall _ -> false
    in
    ok q
  | T.P_restrict (_, p) | T.P_project (_, p) -> pushes_plain_attrs p
  | T.P_union (a, b) | T.P_diff (a, b) | T.P_intersect (a, b) | T.P_product (a, b)
    ->
    pushes_plain_attrs a && pushes_plain_attrs b
  | T.P_define _ | T.P_ref _ | T.P_recursive (_, None) | T.P_cycle (_, None) ->
    true

let same_reply db plan =
  let optimized = T.optimize plan in
  let naive = reply db plan and rewritten = reply db optimized in
  if naive = rewritten && pushes_plain_attrs optimized then true
  else
    Q.Test.fail_reportf "plan:@.%s@.rewritten:@.%s@.naive:@.%s@.rewritten:@.%s"
      (String.concat "\n" (T.lines plan))
      (String.concat "\n" (T.lines optimized))
      (String.concat "\n" naive) (String.concat "\n" rewritten)

let prop_rewrite_alpha =
  Q.Test.make ~count:60 ~name:"rewritten plan = naive plan (random geo α)"
    (Q.triple geo_params qual (Q.make select_gen)) (fun (p, q, select) ->
      let db = (Geo_gen.build p).Geo_grid.db in
      List.for_all
        (fun desc ->
          let ctx =
            {
              db;
              nodes =
                Array.of_list
                  (Mad.Mdesc.root desc
                  :: List.filter
                       (fun n -> n <> Mad.Mdesc.root desc)
                       (Mad.Mdesc.nodes desc));
              members = false;
            }
          in
          let plan = T.P_restrict (q ctx, T.alpha ~name:"q" desc) in
          same_reply db
            (match select ctx with
             | None -> plan
             | Some items -> T.P_project (items, plan)))
        [
          Geo_schema.mt_state_desc db;
          Geo_schema.point_neighborhood_desc db;
          Geo_schema.mt_river_desc db;
        ])

let prop_rewrite_recursive =
  Q.Test.make ~count:40
    ~name:"rewritten plan = naive plan (random BOM recursion)"
    (Q.quad bom_params qual Q.bool (Q.option (Q.int_bound 3)))
    (fun (p, q, sub, max_depth) ->
      let db = (Bom_gen.build p).Bom_gen.db in
      let d =
        R.v db ~root_type:"part" ~link:"composition"
          ~view:(if sub then R.Sub else R.Super)
          ?max_depth ()
      in
      same_reply db
        (T.P_restrict
           (q { db; nodes = [| "part" |]; members = true }, T.P_recursive (d, None))))

let prop_rewrite_cycle =
  Q.Test.make ~count:30 ~name:"rewritten plan = naive plan (random VLSI cycles)"
    (Q.triple vlsi_params qual (Q.option (Q.int_bound 2)))
    (fun (p, q, max_depth) ->
      let db = (Vlsi_gen.build p).Vlsi_gen.db in
      let d =
        R.cycle db ~root_type:"cell"
          ~steps:
            [
              ("cell-pin", `Fwd); ("net-pin", `Bwd); ("net-pin", `Fwd);
              ("cell-pin", `Bwd);
            ]
          ?max_depth ()
      in
      same_reply db
        (T.P_restrict
           (q { db; nodes = [| "cell" |]; members = true }, T.P_cycle (d, None))))

(* DELETE over an anonymous structure derives the whole occurrence: an
   atom a surviving molecule shares (a border edge, a corner point)
   stays *)
let prop_anon_delete_shared_safe =
  Q.Test.make ~count:30 ~name:"anonymous DELETE spares atoms survivors share"
    (Q.pair geo_params Q.small_nat) (fun (p, k) ->
      let db = (Geo_gen.build p).Geo_grid.db in
      let desc = Geo_schema.mt_state_desc db in
      let before = Mad.Derive.m_dom db desc in
      let victim = List.nth before (k mod List.length before) in
      let survivors =
        List.filter
          (fun (m : Mad.Molecule.t) -> not (Aid.equal m.root victim.root))
          before
      in
      let name =
        match Atom.value (Database.atom db victim.root) (Database.atom_type db "state") "name" with
        | Value.String s -> s
        | _ -> Q.Test.fail_report "state name is not a string"
      in
      let s = Mad_mql.Session.create ~obs:(Mad_obs.Obs.create ()) db in
      ignore
        (Mad_mql.Session.run s
           (Printf.sprintf
              "DELETE FROM state-area-edge-point WHERE state.name = '%s';" name));
      let alive id = Database.find_atom db id <> None in
      let shared = Aid.Set.inter (Mad.Molecule.atoms victim)
          (List.fold_left
             (fun acc m -> Aid.Set.union acc (Mad.Molecule.atoms m))
             Aid.Set.empty survivors)
      in
      (not (alive victim.root))
      && Aid.Set.for_all alive shared
      && List.for_all
           (fun m -> Aid.Set.for_all alive (Mad.Molecule.atoms m))
           survivors
      && Aid.Set.for_all
           (fun id -> Aid.Set.mem id shared || not (alive id))
           (Mad.Molecule.atoms victim))

(* ------------------------------------------------------------------ *)
(* The child-index walker against the reference fold                    *)

(* Molecule sets over geo, VLSI and BOM structures: as derived, then
   with atoms dropped from non-root components, random links along
   each edge (endpoints anywhere in the database), reflexive links
   among the molecule's atoms, and random Π projections. *)
let prop_render_oracle =
  Q.Test.make ~count:40 ~name:"buffer walker = reference renderer (random molecule sets)"
    (Q.quad geo_params bom_params vlsi_params Q.int) (fun (gp, bp, vp, seed) ->
      let rng = Random.State.make [| seed |] in
      let coin () = Random.State.bool rng in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let ids db node = Aid.Set.elements (Database.atom_ids db node) in
      let perturb db (mt : MT.t) reflexive =
        let molecule (m : Mad.Molecule.t) =
          let by_node =
            Mad.Molecule.Smap.mapi
              (fun n atoms ->
                if n = Mad.Mdesc.root mt.desc then atoms
                else Aid.Set.filter (fun _ -> Random.State.int rng 4 > 0) atoms)
              m.by_node
          in
          let along (e : Mad.Mdesc.edge) =
            match (ids db e.from_at, ids db e.to_at) with
            | [], _ | _, [] -> []
            | ps, cs ->
              List.init (Random.State.int rng 4) (fun _ ->
                  let p = pick ps and c = pick cs in
                  match e.dir with `Fwd -> Link.v e.link p c | `Bwd -> Link.v e.link c p)
          in
          let self =
            match (reflexive, Aid.Set.elements (Mad.Molecule.atoms m)) with
            | Some (lt, node), _ :: _ ->
              let mine = Aid.Set.elements (Mad.Molecule.component m node) in
              List.init (Random.State.int rng 4) (fun _ ->
                  Link.v lt (pick (if mine = [] then ids db node else mine)) (pick (ids db node)))
            | _ -> []
          in
          let extra = self @ List.concat_map along (Mad.Mdesc.edges mt.desc) in
          Mad.Molecule.v ~root:m.root ~by_node
            ~links:(List.fold_left (fun s l -> Link.Set.add l s) m.links extra)
        in
        { mt with occ = List.map molecule mt.occ }
      in
      let project db (mt : MT.t) =
        let items =
          List.filter_map
            (fun n ->
              if n <> Mad.Mdesc.root mt.desc && coin () then None
              else if coin () then Some (n, None)
              else
                let attrs = (Database.atom_type db n).Schema.Atom_type.attrs in
                Some (n, Some [ (pick attrs).Schema.Attr.name ]))
            (Mad.Mdesc.nodes mt.desc)
        in
        try [ MA.project db ~name:"p" items mt ] with Err.Mad_error _ -> []
      in
      let sets db reflexive desc =
        let mt = MA.define db ~name:"t" desc in
        [ mt; perturb db mt reflexive ] @ project db mt @ project db (perturb db mt reflexive)
        |> List.map (fun mt -> (mt, db))
      in
      let geo = (Geo_gen.build gp).Geo_grid.db
      and vlsi = (Vlsi_gen.build vp).Vlsi_gen.db
      and bom = (Bom_gen.build bp).Bom_gen.db in
      let cases =
        List.concat_map (sets geo None)
          [
            Geo_schema.mt_state_desc geo;
            Geo_schema.point_neighborhood_desc geo;
            Geo_schema.mt_river_desc geo;
          ]
        @ List.concat_map
            (sets vlsi (Some ("instantiates", "cell")))
            [
              Mad.Mdesc.v vlsi ~nodes:[ "cell"; "pin"; "net" ]
                ~edges:[ ("cell-pin", "cell", "pin"); ("net-pin", "pin", "net") ];
              Mad.Mdesc.v vlsi ~nodes:[ "net"; "pin"; "cell" ]
                ~edges:[ ("net-pin", "net", "pin"); ("cell-pin", "pin", "cell") ];
            ]
        @ sets bom (Some ("composition", "part")) (Mad.Mdesc.v bom ~nodes:[ "part" ] ~edges:[])
      in
      List.for_all
        (fun ((mt : MT.t), db) ->
          let want = Render_ref.molecule_type db mt in
          let got = Format.asprintf "%a" (Mad.Render.pp_molecule_type db) mt in
          String.equal want got
          || Q.Test.fail_reportf "%s over %s:@.reference:@.%s@.walker:@.%s" mt.name
               (Mad.Mdesc.to_string mt.desc) want got)
        cases)

let suite =
  List.map to_alcotest
    [
      prop_serialize_roundtrip;
      prop_delete_preserves_validity;
      prop_delete_survivors_unchanged;
      prop_paged_equals_direct;
      prop_recursive_setop_laws;
      prop_estimates_rank_plans;
      prop_rewrite_alpha;
      prop_rewrite_recursive;
      prop_rewrite_cycle;
      prop_anon_delete_shared_safe;
      prop_parser_total;
      prop_cycle_equals_reference;
      prop_derivation_satisfies_spec;
      prop_integrity_random_geo;
      prop_sigma_commutes;
      prop_sigma_conjunction;
      prop_union_laws;
      prop_psi_is_intersection;
      prop_demorgan;
      prop_closure_random_pipeline;
      prop_relational_equals_mad;
      prop_inlined_mapping_equiv;
      prop_nest_unnest;
      prop_recursion_equals_closure;
      prop_recursion_depth_monotone;
      prop_rel_join_algorithms_agree;
      prop_mad_atom_ops_equal_relational;
      prop_mol_roundtrip;
      prop_value_order_total;
      prop_render_oracle;
    ]
