(** Rendering of molecules and molecule sets in the hierarchical style
    of Fig. 2's lower part, as buffer walkers: each molecule an indented
    tree from its root atom, atoms labelled by node and key attribute. *)

open Mad_store

exception Too_large

let check ?(limit = max_int) b = if Buffer.length b > limit then raise Too_large

let label_attrs ?mt db node =
  let at = Database.atom_type db node in
  let all = List.map (fun (a : Schema.Attr.t) -> a.name) at.attrs in
  let names = Option.fold mt ~none:all ~some:(fun mt -> Molecule_type.visible_attrs db mt node) in
  Array.of_list (List.map (Schema.Atom_type.attr_index at) names)

let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else (if n >= 10 then add_int b (n / 10); Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10))))

let add_line b db ~depth head node attrs id =
  for _ = 1 to depth do Buffer.add_string b "  " done;
  Buffer.add_string b head;
  Buffer.add_char b '@';
  add_int b id;
  let a = Database.get_atom db ~atype:node id in
  let text i = match Atom.value_by_index a i with Value.String s -> Some s | _ -> None in
  Option.iter
    (fun s -> Buffer.add_char b '['; Buffer.add_string b s; Buffer.add_char b ']')
    (Array.find_map text attrs)

let to_string f = let b = Buffer.create 4096 in f b; Buffer.contents b

let atom_label db node id =
  to_string (fun b -> add_line b db ~depth:0 "" node (label_attrs db node) id)

module Itbl = Hashtbl.Make (Int)

(* The description is resolved once per result: each node's label
   attributes and numbered out-edges.  Each molecule then gets a child
   index, built in one pass over its links and keyed by (parent, edge). *)
let walker ?limit db b (mt : Molecule_type.t) =
  let nodes = Array.of_list (Mdesc.nodes mt.desc) in
  let edges = Array.of_list (Mdesc.edges mt.desc) and heads = Array.map (fun n -> n ^ " ") nodes in
  let pos n = Option.get (Array.find_index (String.equal n) nodes) and ne = Array.length edges in
  let from n k = if edges.(k).from_at = n then Some (k, pos edges.(k).to_at) else None in
  let out = Array.map (fun n -> List.filter_map (from n) (List.init ne Fun.id)) nodes in
  let labels = Array.map (label_attrs ~mt db) nodes in
  let children = Itbl.create 64 in
  let kids key = Option.value ~default:[] (Itbl.find_opt children key) in
  let rec walk depth i id =
    add_line b db ~depth heads.(i) nodes.(i) labels.(i) id;
    Buffer.add_char b '\n';
    check ?limit b;
    List.iter (fun (k, c) -> List.iter (walk (depth + 1) c) (kids ((id * ne) + k))) out.(i)
  in
  fun (m : Molecule.t) ->
    Itbl.reset children;
    let comps = Array.map (fun (e : Mdesc.edge) -> Molecule.component m e.to_at) edges in
    (* descending links, prepended: each child list ends up ascending *)
    Link.Set.to_rev_seq m.links
    |> Seq.iter (fun (l : Link.t) ->
           Array.iteri
             (fun k (e : Mdesc.edge) ->
               let p, c = match e.dir with `Fwd -> (l.left, l.right) | `Bwd -> (l.right, l.left) in
               if String.equal e.link l.lt && Aid.Set.mem c comps.(k) then
                 Itbl.replace children ((p * ne) + k) (c :: kids ((p * ne) + k)))
             edges);
    walk 0 (pos (Mdesc.root mt.desc)) m.root

let add_molecule_type ?limit db b (mt : Molecule_type.t) =
  Printf.bprintf b "molecule type %s (%d molecules)\n" mt.name (List.length mt.occ);
  let walk = walker ?limit db b mt in
  List.iter (fun m -> walk m; Buffer.add_char b '\n') mt.occ

let pp_molecule db mt ppf m = Fmt.string ppf (to_string (fun b -> walker db b mt m))
let pp_molecule_type db ppf mt = Fmt.string ppf (to_string (fun b -> add_molecule_type db b mt))

(** Report the shared subobjects across a molecule set: every atom that
    belongs to more than one molecule, with the roots sharing it. *)
let shared_subobjects (mt : Molecule_type.t) =
  let owners = Hashtbl.create 64 in
  List.iter
    (fun (m : Molecule.t) ->
      Aid.Set.iter
        (fun id ->
          Hashtbl.replace owners id
            (m.root :: Option.value ~default:[] (Hashtbl.find_opt owners id)))
        (Molecule.atoms m))
    mt.occ;
  Hashtbl.fold
    (fun id roots acc ->
      if List.length roots > 1 then (id, List.sort Aid.compare roots) :: acc
      else acc)
    owners []
  |> List.sort compare

let pp_shared db ppf (mt : Molecule_type.t) =
  match shared_subobjects mt with
  | [] -> Fmt.pf ppf "no shared subobjects@."
  | shared ->
    Fmt.pf ppf "shared subobjects (%d atoms):@." (List.length shared);
    List.iter
      (fun (id, roots) ->
        let a = Database.atom db id in
        Fmt.pf ppf "  %s atom %s shared by molecules rooted {%s}@." a.atype
          (Aid.to_string id)
          (String.concat "," (List.map Aid.to_string roots)))
      shared

(** Duplication factor if the molecule set were represented without
    shared subobjects (the NF² comparison of EXPeriment FIG2): total
    atom slots across molecules / distinct atoms. *)
let duplication_factor (mt : Molecule_type.t) =
  let slots =
    List.fold_left (fun n m -> n + Molecule.atom_count m) 0 mt.occ
  in
  let distinct =
    List.fold_left
      (fun s (m : Molecule.t) -> Aid.Set.union s (Molecule.atoms m))
      Aid.Set.empty mt.occ
    |> Aid.Set.cardinal
  in
  if distinct = 0 then 1.0 else float_of_int slots /. float_of_int distinct
