(* The paper's running example end to end: the Brazil database of
   Fig. 1, its formal specification (Fig. 4), the two molecule types of
   Fig. 2 with their shared subobjects, and the two MOL queries of
   ch. 4 — each shown as MOL text, compiled algebra plan, and result.

   Run with: dune exec examples/geography.exe *)

open Mad_store
open Workloads

let rule title =
  Format.printf "@.=== %s %s@."
    title
    (String.make (max 0 (66 - String.length title)) '=')

let () =
  let brazil = Geo_brazil.build () in
  let db = Geo_brazil.db brazil in

  rule "Fig. 1 - the geographic database (MAD diagram + atom networks)";
  Format.printf "%a@.@." Database.pp_summary db;
  List.iter
    (fun at ->
      Format.printf "  atom type %-6s : %3d atoms@." at (Database.count_atoms db at))
    (Database.atom_type_names db);
  List.iter
    (fun lt ->
      let l = Database.link_type db lt in
      Format.printf "  link type %-12s {%s,%s} : %3d links@." lt
        (fst l.Schema.Link_type.ends) (snd l.Schema.Link_type.ends)
        (Database.count_links db lt))
    (Database.link_type_names db);

  rule "Fig. 4 - formal specification (excerpt)";
  Format.printf "%s@." (Notation.database_to_string ~name:"GEO_DB" db);

  rule "Fig. 2 - molecule type 'mt state'";
  let session = Mad_mql.Session.create db in
  let q1 = "SELECT ALL FROM mt_state(state-area-edge-point);" in
  Format.printf "MOL>  %s@." q1;
  Format.printf "plan: %s@.@." (Mad_mql.Session.explain session q1);
  (match Mad_mql.Session.run session q1 with
   | Mad_mql.Session.Result (Mad_mql.Translate.Molecules mt) ->
     (* print the two molecules the figure shows: SP and MG *)
     List.iter
       (fun wanted ->
         match
           Mad.Molecule_type.find_by_root mt (Geo_brazil.state brazil wanted)
         with
         | Some m -> Format.printf "%a@." (Mad.Render.pp_molecule db mt) m
         | None -> ())
       [ "SP"; "MG" ];
     Format.printf "%a@." (fun ppf () -> Mad.Render.pp_shared db ppf mt) ();
     Format.printf "duplication factor without sharing: %.2f@."
       (Mad.Render.duplication_factor mt)
   | _ -> assert false);

  rule "Fig. 2 / ch. 4 - 'point neighborhood' (symmetric link use)";
  let q2 =
    "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.name='pn';"
  in
  Format.printf "MOL>  %s@." q2;
  Format.printf "plan: %s@.@." (Mad_mql.Session.explain session q2);
  Format.printf "%s@." (Mad_mql.Session.run_to_string session q2);

  rule "ch. 3 - atom-type algebra (the border example)";
  let border = Mad.Atom_algebra.product db ~name:"border" "area" "edge" in
  Format.printf
    "x(area,edge) = border: %d atoms, %d inherited link types@."
    (Database.count_atoms db "border")
    (List.length border.Mad.Atom_algebra.inherited);
  let big =
    Mad.Atom_algebra.restrict db ~name:"big_border"
      ~pred:Mad.Qual.(attr "border" "size" >=% int 1)
      "border"
  in
  Format.printf "sigma[size>=1](border) = %d atoms@."
    (Aid.Set.cardinal (Mad.Atom_algebra.result_ids big));

  rule "ch. 3 - molecule algebra composition (closure, Thm. 3)";
  let mt =
    match Mad_mql.Session.lookup session "mt_state" with
    | Some mt -> mt
    | None -> assert false
  in
  let big_states =
    Mad.Molecule_algebra.restrict db
      Mad.Qual.(attr "state" "hectare" >% int 900)
      mt
  in
  let touching =
    Mad.Molecule_algebra.restrict db
      Mad.Qual.(attr "point" "name" =% str "pn")
      mt
  in
  let both = Mad.Molecule_algebra.intersect big_states touching in
  Format.printf
    "Sigma[hectare>900]: %d, Sigma[touches pn]: %d, Psi(intersection): %d@."
    (Mad.Molecule_type.cardinality big_states)
    (Mad.Molecule_type.cardinality touching)
    (Mad.Molecule_type.cardinality both);
  let report = Mad.Closure.check_molecule_type db both in
  Format.printf "%a@." Mad.Closure.pp_report report;

  rule "EXPLAIN ANALYZE - the rewritten plan for the pn query";
  (* the root restriction runs in the point scan: one molecule derived *)
  Format.printf "%s@.@." (Mad_mql.Session.explain ~estimates:true session q2);
  Format.printf "%s@."
    (Mad_mql.Session.run_to_string session ("EXPLAIN ANALYZE " ^ q2))
