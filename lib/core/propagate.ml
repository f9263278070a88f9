(** Propagation of result sets (Def. 9).

    [prop(rst, DB) = <mt, DB'>]: the database is enlarged by renamed
    atom types (same descriptions, occurrences restricted to the atoms
    occurring in the result set — optionally attribute-projected for
    molecule projection) and by inherited link types (restricted to the
    links used by the result set), such that the result set is exactly
    derivable as a molecule type over the enlarged database.

    Def. 9 promises a bijection between the result set and the derived
    occurrence.  With one propagated copy per *distinct* source atom
    ([`Shared] — sharing of subobjects preserved), the bijection holds
    for the operators whose result molecules stay maximal w.r.t. the
    restricted occurrence (restriction, union, difference; the proof of
    Theorem 2 rides on rsv ⊆ mv).  Molecule projection can break it:
    dropping a diamond branch drops a containment constraint, so
    re-derivation may grow a molecule beyond its projected image.  This
    implementation therefore *checks* exactness after shared
    propagation and falls back to per-molecule copies ([`Copied]),
    which makes the bijection unconditional.  The check doubles as a
    machine-verified instance of Theorem 2/3.

    The molecule-algebra operators do not call this: their results stay
    over the operand's types.  Propagation is the closure check's
    oracle ({!Closure.check_molecule_type}, which drops what it built
    with {!cleanup}) and the way X materializes its operands. *)

open Mad_store
module Smap = Map.Make (String)

type t = {
  mdesc : Mdesc.t;  (** description over the propagated (renamed) types *)
  node_map : string Smap.t;  (** source node -> propagated atom-type name *)
  link_map : string Smap.t;  (** source link -> propagated link-type name *)
  atom_map : Aid.t Aid.Map.t;  (** propagated copy -> its source atom *)
  mocc : Molecule.t list;  (** the occurrence over the propagated types *)
  strategy : [ `Shared | `Copied ];
      (** [`Shared]: one propagated copy per distinct source atom
          (sharing preserved); [`Copied]: per-molecule copies (the
          fallback that guarantees Def. 9's exactness). *)
}

let fresh_name db base =
  let rec go k =
    let candidate = if k = 0 then base else Printf.sprintf "%s#%d" base k in
    if Database.has_atom_type db candidate || Database.has_link_type db candidate
    then go (k + 1)
    else candidate
  in
  go 0

(* Collect, per node, the source atoms occurring in the result set, and
   the set of links used. *)
let footprint desc (occ : Molecule.t list) =
  let atoms_by_node =
    List.fold_left
      (fun acc node ->
        let s =
          List.fold_left
            (fun s m -> Aid.Set.union s (Molecule.component m node))
            Aid.Set.empty occ
        in
        Smap.add node s acc)
      Smap.empty (Mdesc.nodes desc)
  in
  let links =
    List.fold_left (fun s (m : Molecule.t) -> Link.Set.union s m.links)
      Link.Set.empty occ
  in
  (atoms_by_node, links)

let project_values db attr_proj node (a : Atom.t) =
  match Smap.find_opt node attr_proj with
  | None -> Array.to_list a.values
  | Some attrs ->
    let at = Database.atom_type db node in
    List.map (fun attr -> Atom.value a at attr) attrs

let node_description db attr_proj node =
  let at = Database.atom_type db node in
  match Smap.find_opt node attr_proj with
  | None -> at.attrs
  | Some attrs ->
    List.map
      (fun attr -> List.nth at.attrs (Schema.Atom_type.attr_index at attr))
      attrs

(* Create the renamed (propagated) atom types and link types for [desc]
   in [db]; returns the node and link name maps and the new Mdesc. *)
let create_types db ~name ~desc ~attr_proj =
  let node_map =
    List.fold_left
      (fun acc node ->
        let tname = fresh_name db (Printf.sprintf "%s.%s" name node) in
        let attrs = node_description db attr_proj node in
        ignore (Database.declare_atom_type db tname attrs);
        Smap.add node tname acc)
      Smap.empty (Mdesc.nodes desc)
  in
  let link_map =
    List.fold_left
      (fun acc (e : Mdesc.edge) ->
        let lname = fresh_name db (Printf.sprintf "%s.%s" name e.link) in
        let ends = (Smap.find e.from_at node_map, Smap.find e.to_at node_map) in
        ignore (Database.declare_link_type db lname ends);
        Smap.add e.link lname acc)
      Smap.empty (Mdesc.edges desc)
  in
  let mdesc =
    Mdesc.rename desc
      ~f_node:(fun n -> Smap.find n node_map)
      ~f_link:(fun e -> Smap.find e.Mdesc.link link_map)
  in
  (* renamed edges are oriented ends = (from, to), i.e. `Fwd *)
  let mdesc =
    {
      mdesc with
      Mdesc.edges =
        List.map (fun e -> { e with Mdesc.dir = `Fwd }) mdesc.Mdesc.edges;
    }
  in
  (node_map, link_map, mdesc)

let remap_molecule ~node_map ~link_map ~atom_of desc (m : Molecule.t) =
  let by_node =
    Smap.fold
      (fun node s acc ->
        match Smap.find_opt node node_map with
        | None -> acc
        | Some tname ->
          Smap.add tname
            (Aid.Set.map (fun id -> atom_of node id) s)
            acc)
      m.by_node Smap.empty
  in
  let links =
    Link.Set.fold
      (fun (l : Link.t) acc ->
        match
          List.find_opt
            (fun (e : Mdesc.edge) -> String.equal e.link l.lt)
            (Mdesc.edges desc)
        with
        | None -> acc
        | Some e ->
          let p, c =
            match e.dir with `Fwd -> (l.left, l.right) | `Bwd -> (l.right, l.left)
          in
          let p' = atom_of e.from_at p and c' = atom_of e.to_at c in
          Link.Set.add (Link.v (Smap.find e.link link_map) p' c') acc)
      m.links Link.Set.empty
  in
  Molecule.v ~root:(atom_of (Mdesc.root desc) m.root) ~by_node ~links

(* Shared propagation: one copy per distinct source atom. *)
let propagate_shared db ~name ~desc ~attr_proj occ =
  let atoms_by_node, links = footprint desc occ in
  let node_map, link_map, mdesc = create_types db ~name ~desc ~attr_proj in
  let copy_of = ref Aid.Map.empty in
  Smap.iter
    (fun node s ->
      let tname = Smap.find node node_map in
      Aid.Set.iter
        (fun id ->
          let a = Database.get_atom db ~atype:node id in
          let values = project_values db attr_proj node a in
          let copy = Database.insert_atom db ~atype:tname values in
          copy_of := Aid.Map.add id copy.id !copy_of)
        s)
    atoms_by_node;
  let atom_of _node id = Aid.Map.find id !copy_of in
  Link.Set.iter
    (fun (l : Link.t) ->
      match
        List.find_opt
          (fun (e : Mdesc.edge) -> String.equal e.link l.lt)
          (Mdesc.edges desc)
      with
      | None -> ()
      | Some e ->
        let p, c =
          match e.dir with `Fwd -> (l.left, l.right) | `Bwd -> (l.right, l.left)
        in
        Database.add_link db (Smap.find e.link link_map)
          ~left:(atom_of e.from_at p) ~right:(atom_of e.to_at c))
    links;
  let mocc = List.map (remap_molecule ~node_map ~link_map ~atom_of desc) occ in
  let atom_map =
    Aid.Map.fold (fun src copy m -> Aid.Map.add copy src m) !copy_of
      Aid.Map.empty
  in
  { mdesc; node_map; link_map; atom_map; mocc; strategy = `Shared }

(* Per-molecule copies: unconditional exactness. *)
let propagate_copied db ~name ~desc ~attr_proj occ =
  let node_map, link_map, mdesc = create_types db ~name ~desc ~attr_proj in
  let atom_map = ref Aid.Map.empty in
  let mocc =
    List.map
      (fun (m : Molecule.t) ->
        let local = Hashtbl.create 16 in
        let atom_of node id =
          match Hashtbl.find_opt local (node, id) with
          | Some copy -> copy
          | None ->
            let a = Database.get_atom db ~atype:node id in
            let values = project_values db attr_proj node a in
            let copy =
              Database.insert_atom db ~atype:(Smap.find node node_map) values
            in
            Hashtbl.replace local (node, id) copy.id;
            atom_map := Aid.Map.add copy.id id !atom_map;
            copy.id
        in
        let m' = remap_molecule ~node_map ~link_map ~atom_of desc m in
        Link.Set.iter
          (fun (l : Link.t) -> Database.add_link db l.lt ~left:l.left ~right:l.right)
          m'.links;
        m')
      occ
  in
  { mdesc; node_map; link_map; atom_map = !atom_map; mocc; strategy = `Copied }

(** Does re-derivation over the propagated types return exactly the
    propagated occurrence (Def. 9's bijection)? *)
let exact ?stats db mdesc mocc =
  let derived = Derive.m_dom ?stats db mdesc in
  Molecule.Set.equal (Molecule.Set.of_list derived) (Molecule.Set.of_list mocc)

let cleanup db p =
  Database.unjournaled db @@ fun () ->
  Smap.iter (fun _ l -> Database.drop_link_type db l) p.link_map;
  Smap.iter (fun _ t -> Database.drop_atom_type db t) p.node_map

(** The propagation function of Def. 9.  [strategy] defaults to
    [`Auto]: try shared propagation, verify exactness, fall back to
    per-molecule copies if the bijection fails.

    Everything materialized here is the {e enlarged database} — scratch
    types the closure check and X build on demand — so the whole
    propagation runs with the journal detached: derived types never
    reach a write-ahead log. *)
let prop ?stats ?(strategy = `Auto) db ~name ~desc ~attr_proj occ =
  Database.unjournaled db @@ fun () ->
  let shared () = propagate_shared db ~name ~desc ~attr_proj occ in
  let copied () = propagate_copied db ~name ~desc ~attr_proj occ in
  match strategy with
  | `Shared -> shared ()
  | `Copied -> copied ()
  | `Auto ->
    let p = shared () in
    if exact ?stats db p.mdesc p.mocc then p
    else begin
      cleanup db p;
      copied ()
    end
