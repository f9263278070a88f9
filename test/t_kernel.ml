(* Kernel/scalar parity: the bitset derivation kernel (CSR snapshots)
   must produce exactly the molecules — and exactly the work
   accounting — of the scalar walk, on every workload shape:
   hierarchical grids, diamonds, reflexive closures; and across
   mutation epochs. *)

open Mad_store
open Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let same_molecules what expected actual =
  check_int (what ^ ": cardinality") (List.length expected) (List.length actual);
  List.iter2
    (fun (e : Mad.Molecule.t) (a : Mad.Molecule.t) ->
      check (what ^ ": molecule " ^ Aid.to_string e.root) true
        (Mad.Molecule.equal e a);
      (* Molecule.equal compares the atom union; the node partition
         must match too (explicitly empty components included) *)
      check (what ^ ": partition " ^ Aid.to_string e.root) true
        (Mad.Molecule.Smap.equal Aid.Set.equal e.Mad.Molecule.by_node
           a.Mad.Molecule.by_node))
    expected actual

(* scalar vs kernel: same molecules, same stats *)
let parity_on what db desc =
  let s_scalar = Mad.Derive.stats () in
  let scalar = Mad.Derive.m_dom_scalar ~stats:s_scalar db desc in
  let s_k = Mad.Derive.stats () in
  let k = Mad.Derive.m_dom ~stats:s_k ~kernel:true db desc in
  same_molecules what scalar k;
  check_int (what ^ ": atoms_visited")
    (Mad.Derive.atoms_visited s_scalar)
    (Mad.Derive.atoms_visited s_k);
  check_int (what ^ ": links_traversed")
    (Mad.Derive.links_traversed s_scalar)
    (Mad.Derive.links_traversed s_k)

let grid () =
  Geo_grid.build ~rows:6 ~cols:6
    (List.init 36 (Printf.sprintf "S%02d"))

let test_geo_grid_parity () =
  let g = grid () in
  let db = g.Geo_grid.db in
  ignore
    (Geo_grid.add_river g ~name:"R" ~length:120
       [ g.Geo_grid.h_edges.(1).(1); g.Geo_grid.h_edges.(1).(2) ]);
  ignore (Geo_grid.add_private_river g ~name:"P" ~length:80 3);
  parity_on "mt_state" db (Geo_schema.mt_state_desc db);
  parity_on "point_neighborhood" db (Geo_schema.point_neighborhood_desc db)

let test_vlsi_parity () =
  let v = Vlsi_gen.build Vlsi_gen.default in
  let db = v.Vlsi_gen.db in
  let desc =
    Mad.Mdesc.v db ~nodes:[ "cell"; "pin"; "net" ]
      ~edges:[ ("cell-pin", "cell", "pin"); ("net-pin", "pin", "net") ]
  in
  parity_on "vlsi cell-pin-net" db desc

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
  let atom ty v = (Database.insert_atom db ~atype:ty [ Value.Int v ]).Atom.id in
  (* several roots, z atoms with 0/1/2 supplying parents *)
  for i = 0 to 7 do
    let r = atom "r" (10 * i) in
    let x = atom "x" (10 * i + 1) in
    let y = atom "y" (10 * i + 2) in
    let z_both = atom "z" (10 * i + 3) in
    let z_x = atom "z" (10 * i + 4) in
    Database.add_link db "rx" ~left:r ~right:x;
    Database.add_link db "ry" ~left:r ~right:y;
    Database.add_link db "xz" ~left:x ~right:z_both;
    Database.add_link db "yz" ~left:y ~right:z_both;
    Database.add_link db "xz" ~left:x ~right:z_x
  done;
  let desc =
    Mad.Mdesc.v db ~nodes:[ "r"; "x"; "y"; "z" ]
      ~edges:
        [ ("rx", "r", "x"); ("ry", "r", "y"); ("xz", "x", "z"); ("yz", "y", "z") ]
  in
  (db, desc)

let test_diamond_parity () =
  let db, desc = diamond_db () in
  parity_on "diamond" db desc;
  (* the conjunctive rule itself, through the kernel *)
  let m = List.hd (Mad.Derive.m_dom ~kernel:true db desc) in
  check_int "z has only the both-parents atom" 1
    (Aid.Set.cardinal (Mad.Molecule.component m "z"))

let test_derive_one_warm_path () =
  let db, desc = diamond_db () in
  let roots = Database.atoms db "r" in
  let root = (List.hd roots).Atom.id in
  let cold = Mad.Derive.derive_one db desc root in
  (* warm a snapshot, then the default one-shot path goes kernel *)
  ignore (Mad.Derive.m_dom ~kernel:true db desc);
  let warm = Mad.Derive.derive_one db desc root in
  check "cold (scalar) = warm (kernel)" true (Mad.Molecule.equal cold warm);
  check_string "path reports warm snapshot"
    (Printf.sprintf "kernel (epoch=%d, snapshot=warm)" (Database.epoch db))
    (Mad.Derive.describe_path db)

let test_epoch_invalidation () =
  let db, desc = diamond_db () in
  let k0 = Mad.Derive.m_dom ~kernel:true db desc in
  same_molecules "before mutation" (Mad.Derive.m_dom_scalar db desc) k0;
  let e0 = Database.epoch db in
  (* grow one molecule: a fresh z under both x and y of root 0 *)
  let m0 = List.hd k0 in
  let x = Aid.Set.min_elt (Mad.Molecule.component m0 "x") in
  let y = Aid.Set.min_elt (Mad.Molecule.component m0 "y") in
  let z = (Database.insert_atom db ~atype:"z" [ Value.Int 999 ]).Atom.id in
  Database.add_link db "xz" ~left:x ~right:z;
  Database.add_link db "yz" ~left:y ~right:z;
  check "epoch moved" true (Database.epoch db > e0);
  check "stale snapshot not peekable" true
    (match Mad_kernel.Snapshot.peek db with None -> true | Some _ -> false);
  let k1 = Mad.Derive.m_dom ~kernel:true db desc in
  same_molecules "after mutation" (Mad.Derive.m_dom_scalar db desc) k1;
  check "new atom derived" true
    (Aid.Set.mem z (Mad.Molecule.component (List.hd k1) "z"))

(* reflexive link types (no plain-structure coverage) go through the
   closure kernel of the recursive extension *)
let test_bom_closure_parity () =
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  List.iter
    (fun (view, max_depth) ->
      let d =
        Mad_recursive.Recursive.v db ~root_type:"part" ~link:"composition"
          ~view ?max_depth ()
      in
      let s_s = Mad.Derive.stats () and s_k = Mad.Derive.stats () in
      let scalar = Mad_recursive.Recursive.m_dom ~stats:s_s ~kernel:false db d in
      let kernel = Mad_recursive.Recursive.m_dom ~stats:s_k ~kernel:true db d in
      let what =
        Format.asprintf "bom %a depth=%a" Mad_recursive.Recursive.pp_view view
          Fmt.(option ~none:(any "inf") int)
          max_depth
      in
      check_int (what ^ ": cardinality") (List.length scalar)
        (List.length kernel);
      List.iter2
        (fun (a : Mad_recursive.Recursive.molecule)
             (b : Mad_recursive.Recursive.molecule) ->
          check (what ^ ": molecule") true
            (Mad_recursive.Recursive.equal_molecule a b);
          check (what ^ ": depths") true
            (Aid.Map.equal Int.equal a.depth_of b.depth_of))
        scalar kernel;
      check_int (what ^ ": atoms_visited") (Mad.Derive.atoms_visited s_s)
        (Mad.Derive.atoms_visited s_k);
      check_int (what ^ ": links_traversed") (Mad.Derive.links_traversed s_s)
        (Mad.Derive.links_traversed s_k))
    [ (Mad_recursive.Recursive.Sub, None);
      (Mad_recursive.Recursive.Super, None);
      (Mad_recursive.Recursive.Sub, Some 2) ]

let test_closure_memo_invalidation () =
  (* the recursive kernel path memoizes shared member/link sets per
     (db, epoch); a mutation must invalidate them like the snapshot *)
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  let d =
    Mad_recursive.Recursive.v db ~root_type:"part" ~link:"composition" ()
  in
  ignore (Mad_recursive.Recursive.m_dom ~kernel:true db d);
  let top = bom.Bom_gen.levels.(0).(0) in
  let extra =
    (Database.insert_atom db ~atype:"part"
       [ Value.String "extra"; Value.Int 99; Value.Int 1 ])
      .Atom.id
  in
  Database.add_link db "composition" ~left:top ~right:extra;
  let scalar = Mad_recursive.Recursive.m_dom ~kernel:false db d in
  let kernel = Mad_recursive.Recursive.m_dom ~kernel:true db d in
  List.iter2
    (fun a b ->
      check "post-mutation molecule" true
        (Mad_recursive.Recursive.equal_molecule a b))
    scalar kernel;
  check "new part expanded under top" true
    (List.exists
       (fun (m : Mad_recursive.Recursive.molecule) ->
         m.root = top && Aid.Set.mem extra m.members)
       kernel)

let test_cyclic_closure_fallback () =
  (* a cycle defeats the DAG memo; the kernel must fall back to the
     per-root BFS and still agree with the scalar fixpoint *)
  let db = Database.create () in
  ignore
    (Database.declare_atom_type db "task" [ Schema.Attr.v "n" Domain.Int ]);
  ignore (Database.declare_link_type db "feeds" ("task", "task"));
  let atom v = (Database.insert_atom db ~atype:"task" [ Value.Int v ]).Atom.id in
  let a = atom 1 and b = atom 2 and c = atom 3 and d0 = atom 4 in
  Database.add_link db "feeds" ~left:a ~right:b;
  Database.add_link db "feeds" ~left:b ~right:c;
  Database.add_link db "feeds" ~left:c ~right:a;
  Database.add_link db "feeds" ~left:c ~right:d0;
  let d = Mad_recursive.Recursive.v db ~root_type:"task" ~link:"feeds" () in
  let scalar = Mad_recursive.Recursive.m_dom ~kernel:false db d in
  let kernel = Mad_recursive.Recursive.m_dom ~kernel:true db d in
  check_int "cycle: cardinality" (List.length scalar) (List.length kernel);
  List.iter2
    (fun (x : Mad_recursive.Recursive.molecule)
         (y : Mad_recursive.Recursive.molecule) ->
      check "cycle: molecule" true (Mad_recursive.Recursive.equal_molecule x y);
      check "cycle: depths" true (Aid.Map.equal Int.equal x.depth_of y.depth_of))
    scalar kernel;
  let m_a =
    List.find (fun (m : Mad_recursive.Recursive.molecule) -> m.root = a) kernel
  in
  check_int "cycle closure reaches every task" 4 (Aid.Set.cardinal m_a.members)

let test_vlsi_instantiates_closure () =
  let v = Vlsi_gen.build Vlsi_gen.default in
  let db = v.Vlsi_gen.db in
  let d =
    Mad_recursive.Recursive.v db ~root_type:"cell" ~link:"instantiates" ()
  in
  let scalar = Mad_recursive.Recursive.m_dom ~kernel:false db d in
  let kernel = Mad_recursive.Recursive.m_dom ~kernel:true db d in
  check_int "vlsi instantiates: cardinality" (List.length scalar)
    (List.length kernel);
  List.iter2
    (fun a b ->
      check "vlsi instantiates: molecule" true
        (Mad_recursive.Recursive.equal_molecule a b))
    scalar kernel

let test_registry_stats_parity () =
  (* registry-backed handles: per-node accounting must agree between
     the scalar walk and the kernel flush *)
  let db, desc = diamond_db () in
  let reg_s = Mad_obs.Registry.create () and reg_k = Mad_obs.Registry.create () in
  ignore (Mad.Derive.m_dom_scalar ~stats:(Mad.Derive.stats_in reg_s) db desc);
  ignore
    (Mad.Derive.m_dom ~stats:(Mad.Derive.stats_in reg_k) ~kernel:true db desc);
  List.iter
    (fun node ->
      let labels = [ ("node", node) ] in
      check_int ("derive.atoms node=" ^ node)
        (Mad_obs.Registry.counter_value reg_s ~labels "derive.atoms")
        (Mad_obs.Registry.counter_value reg_k ~labels "derive.atoms");
      check_int ("derive.links node=" ^ node)
        (Mad_obs.Registry.counter_value reg_s ~labels "derive.links")
        (Mad_obs.Registry.counter_value reg_k ~labels "derive.links"))
    [ "r"; "x"; "y"; "z" ];
  check "kernel.runs accounted" true
    (Mad_obs.Registry.counter_value reg_k "kernel.runs" >= 1)

let suite =
  [
    Alcotest.test_case "geo grid parity (scalar/kernel, molecules and stats)" `Quick
      test_geo_grid_parity;
    Alcotest.test_case "vlsi cell-pin-net parity" `Quick test_vlsi_parity;
    Alcotest.test_case "diamond parity (conjunctive AND)" `Quick
      test_diamond_parity;
    Alcotest.test_case "derive_one uses warm snapshot" `Quick
      test_derive_one_warm_path;
    Alcotest.test_case "epoch invalidation on mutation" `Quick
      test_epoch_invalidation;
    Alcotest.test_case "bom closure parity (reflexive, depths)" `Quick
      test_bom_closure_parity;
    Alcotest.test_case "closure memo invalidated by mutation" `Quick
      test_closure_memo_invalidation;
    Alcotest.test_case "cyclic link graph falls back to BFS" `Quick
      test_cyclic_closure_fallback;
    Alcotest.test_case "vlsi instantiates closure parity" `Quick
      test_vlsi_instantiates_closure;
    Alcotest.test_case "registry per-node stats parity" `Quick
      test_registry_stats_parity;
  ]
