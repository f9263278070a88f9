(* Bill of material: the paper's example for reflexive link types
   (ch. 3.1) and recursive molecule types (ch. 5 outlook).  One
   reflexive 'composition' link type gives both the sub-component view
   (parts explosion) and the super-component view (where-used), thanks
   to link symmetry.

   Run with: dune exec examples/bill_of_material.exe *)

open Mad_store
open Workloads
module R = Mad_recursive.Recursive

let rule title =
  Format.printf "@.=== %s %s@." title
    (String.make (max 0 (66 - String.length title)) '=')

let () =
  let bom =
    Bom_gen.build { Bom_gen.default with Bom_gen.depth = 4; width = 5; fanout = 2; share = 0.4 }
  in
  let db = bom.Bom_gen.db in
  Format.printf "%a@." Database.pp_summary db;

  rule "parts explosion (sub-component view)";
  let root = bom.Bom_gen.levels.(0).(0) in
  let sub = R.v db ~root_type:"part" ~link:"composition" () in
  let m = R.derive_one db sub root in
  let t = { R.name = "explosion"; desc = sub; occ = [ m ] } in
  Format.printf "%a@." (R.pp_molecule db t) m;
  Format.printf "explosion of %s: %d parts over %d links@."
    (Mad.Render.atom_label db "part" root)
    (Aid.Set.cardinal m.R.members)
    (Link.Set.cardinal m.R.links);

  rule "where-used (super-component view), same link type";
  let leaf = bom.Bom_gen.levels.(3).(2) in
  let super = R.v db ~root_type:"part" ~link:"composition" ~view:R.Super () in
  let w = R.derive_one db super leaf in
  let tw = { R.name = "where_used"; desc = super; occ = [ w ] } in
  Format.printf "%a@." (R.pp_molecule db tw) w;

  rule "depth-bounded explosion (DEPTH 1 = direct components)";
  let one = R.v db ~root_type:"part" ~link:"composition" ~max_depth:1 () in
  let m1 = R.derive_one db one root in
  Format.printf "direct components of %s: %d@."
    (Mad.Render.atom_label db "part" root)
    (Aid.Set.cardinal m1.R.members - 1);

  rule "the same through MOL";
  let session = Mad_mql.Session.create db in
  let run src =
    Format.printf ">> %s@.%s@." src (Mad_mql.Session.run_to_string session src)
  in
  run "SELECT ALL FROM part RECURSIVE BY composition DEPTH 1 WHERE part.pname = 'P0_0';";
  run "SELECT ALL FROM part RECURSIVE BY composition SUPER WHERE part.pname = 'P3_2';";

  rule "cost comparison: MAD recursion vs iterated relational self-joins";
  let mstats = Mad.Derive.stats () in
  ignore (R.m_dom ~stats:mstats db sub);
  let map = Relational.Mapping.of_database db in
  let rstats = Relational.Rel_algebra.stats () in
  (* iterated self-join of the auxiliary 'composition' relation until
     fixpoint, per root — the relational way to compute the closure *)
  let aux = Relational.Mapping.relation map "composition" in
  let closure root =
    let rec go frontier members =
      let joined =
        Relational.Rel_algebra.hash_join ~stats:rstats frontier aux
          ~lkey:"member" ~rkey:"part_id"
      in
      let next =
        Relational.Rel_algebra.project ~stats:rstats [ "root"; "part_id2" ]
          joined
        |> Relational.Rel_algebra.rename [ ("part_id2", "member") ]
      in
      let fresh =
        Relational.Rel_algebra.diff ~stats:rstats next members
      in
      if Relational.Relation.cardinality fresh = 0 then members
      else go fresh (Relational.Rel_algebra.union ~stats:rstats members fresh)
    in
    let f0 = Relational.Emulate.frontier "f0" [ (root, root) ] in
    go f0 f0
  in
  List.iter
    (fun (a : Atom.t) -> ignore (closure a.id))
    (Database.atoms db "part");
  Format.printf "MAD:        %d atoms visited, %d links traversed@."
    (Mad.Derive.atoms_visited mstats)
    (Mad.Derive.links_traversed mstats);
  Format.printf "relational: %d tuples scanned, %d emitted, %d probes@."
    rstats.Relational.Rel_algebra.tuples_scanned
    rstats.Relational.Rel_algebra.tuples_emitted
    rstats.Relational.Rel_algebra.probes
