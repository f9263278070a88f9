(* VLSI design: the paper's motivating domain (ch. 1).  A cell library
   with a design hierarchy over the reflexive n:m 'instantiates' link
   type: standard cells are shared subobjects of every module using
   them; the hierarchy is flattened recursively and cross-referenced
   with where-used — both views over the same symmetric links.

   Run with: dune exec examples/vlsi_design.exe *)

open Mad_store
open Workloads
module R = Mad_recursive.Recursive

let rule title =
  Format.printf "@.=== %s %s@." title
    (String.make (max 0 (66 - String.length title)) '=')

let () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let db = design.Vlsi_gen.db in
  Format.printf "%a@." Database.pp_summary db;

  rule "cell interfaces as molecules (cell - pin)";
  let session = Mad_mql.Session.create db in
  let run src =
    Format.printf ">> %s@.%s@." src (Mad_mql.Session.run_to_string session src)
  in
  run "SELECT ALL FROM iface(cell-pin) WHERE cell.cname = 'NAND';";

  rule "flatten: recursive cell explosion of TOP";
  let sub = R.v db ~root_type:"cell" ~link:"instantiates" () in
  let m = R.derive_one db sub design.Vlsi_gen.top in
  let t = { R.name = "flatten"; desc = sub; occ = [ m ] } in
  Format.printf "%a@." (R.pp_molecule db t) m;
  Format.printf "TOP flattens to %d distinct cells (shared standard cells \
                 appear once)@."
    (Aid.Set.cardinal m.R.members - 1);

  rule "where-used: which modules use NAND?";
  run "SELECT ALL FROM cell RECURSIVE BY instantiates SUPER WHERE cell.cname = 'NAND';";

  rule "sharing report across module molecules";
  let mt =
    Mad.Molecule_algebra.define' db ~name:"mod_cells"
      ~nodes:[ "cell" ] ~edges:[] ()
  in
  ignore mt;
  let one_level =
    R.v db ~root_type:"cell" ~link:"instantiates" ~max_depth:1 ()
  in
  let occ = R.m_dom db one_level in
  let owners = Hashtbl.create 64 in
  List.iter
    (fun (m : R.molecule) ->
      Aid.Set.iter
        (fun id ->
          if not (Aid.equal id m.R.root) then
            Hashtbl.replace owners id
              (m.R.root :: Option.value ~default:[] (Hashtbl.find_opt owners id)))
        m.R.members)
    occ;
  let shared =
    Hashtbl.fold (fun id os acc -> if List.length os > 1 then (id, os) :: acc else acc) owners []
  in
  Format.printf "%d cells are instantiated by more than one parent:@."
    (List.length shared);
  List.iter
    (fun (id, os) ->
      Format.printf "  %s used by %d parents@."
        (Mad.Render.atom_label db "cell" id) (List.length os))
    (List.sort compare shared |> List.filteri (fun i _ -> i < 6));

  rule "engineering change through MOL DML";
  run "MODIFY cell.area = 2 FROM iface WHERE cell.cname = 'INV';";
  run "SELECT ALL FROM iface WHERE cell.cname = 'INV';";

  rule "net connectivity (n:m over pins)";
  run "SELECT ALL FROM net-pin-cell WHERE net.nname = 'n0';";

  rule "cycle recursion: cells transitively connected through nets";
  (* ch. 5: recursion over 'other cycles in the database schema' —
     cell -> pin -> net -> pin -> cell iterated to a fixpoint *)
  let d =
    R.cycle db ~root_type:"cell"
      ~steps:
        [
          ("cell-pin", `Fwd); ("net-pin", `Bwd); ("net-pin", `Fwd);
          ("cell-pin", `Bwd);
        ]
      ()
  in
  let occ = R.cycle_m_dom db d in
  let nand =
    List.find
      (fun (m : R.cycle_molecule) ->
        Aid.equal m.R.c_root_atom design.Vlsi_gen.leaves.(1))
      occ
  in
  Format.printf "cells electrically reachable from %s: %d (via %d nets)@."
    (Mad.Render.atom_label db "cell" nand.R.c_root_atom)
    (Aid.Set.cardinal nand.R.c_members - 1)
    (Aid.Set.cardinal
       (Option.value ~default:Aid.Set.empty
          (R.Smap.find_opt "net" nand.R.c_intermediates)))
