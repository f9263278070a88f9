(* The reference renderer of a molecule set: the Fig. 2 walk as first
   written, which for every out-edge of every atom folds over all of
   the molecule's links.  It costs O(atoms × links) per molecule and
   survives only as the oracle the child-index walker of
   [Mad.Render] is checked against. *)

open Mad_store

let atom_label db (mt : Mad.Molecule_type.t) node id =
  let at = Database.atom_type db node in
  let a = Database.get_atom db ~atype:node id in
  let labelled =
    List.find_map
      (fun attr ->
        match Atom.value a at attr with
        | Value.String s -> Some s
        | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Id _ | Value.List _ -> None)
      (Mad.Molecule_type.visible_attrs db mt node)
  in
  match labelled with
  | Some s -> Printf.sprintf "%s[%s]" (Aid.to_string id) s
  | None -> Aid.to_string id

let pp_molecule db (mt : Mad.Molecule_type.t) ppf (m : Mad.Molecule.t) =
  let desc = mt.desc in
  let rec walk indent node id =
    Fmt.pf ppf "%s%s %s@." indent node (atom_label db mt node id);
    List.iter
      (fun (e : Mad.Mdesc.edge) ->
        let children =
          Link.Set.fold
            (fun (l : Link.t) acc ->
              if not (String.equal l.lt e.link) then acc
              else
                let p, c =
                  match e.dir with `Fwd -> (l.left, l.right) | `Bwd -> (l.right, l.left)
                in
                if Aid.equal p id && Aid.Set.mem c (Mad.Molecule.component m e.to_at) then
                  Aid.Set.add c acc
                else acc)
            m.links Aid.Set.empty
        in
        Aid.Set.iter (fun c -> walk (indent ^ "  ") e.to_at c) children)
      (Mad.Mdesc.out_edges desc node)
  in
  walk "" (Mad.Mdesc.root desc) m.root

let molecule_type db (mt : Mad.Molecule_type.t) =
  Format.asprintf "%a"
    (fun ppf () ->
      Fmt.pf ppf "molecule type %s (%d molecules)@." mt.name (List.length mt.occ);
      List.iter
        (fun m ->
          pp_molecule db mt ppf m;
          Fmt.pf ppf "@.")
        mt.occ)
    ()
