(** Molecule types (Def. 7): a name, a molecule-type description and the
    corresponding molecule-type occurrence.

    A molecule type carries its occurrence in the coordinates of the
    database types its description mentions (the "result set" [rst] view
    of Def. 9/10).  Operators compose on that view: a Σ/Π/Ω/Δ/Ψ result
    points at base atoms and links and adds nothing to the database.
    Def. 9 propagation into an enlarged database — what Theorems 2/3
    quantify over — is {!Propagate.prop}'s job, run on demand by the
    closure check. *)

open Mad_store
module Smap = Map.Make (String)

type t = {
  name : string;
  desc : Mdesc.t;
  attr_proj : string list Smap.t;
      (** node -> attribute names visible after molecule projection;
          nodes absent from the map expose all attributes *)
  occ : Molecule.t list;
}

let v ?(attr_proj = Smap.empty) ~name ~desc occ = { name; desc; attr_proj; occ }

let name t = t.name
let desc t = t.desc
let occ t = t.occ
let cardinality t = List.length t.occ

let visible_attrs db t node =
  match Smap.find_opt node t.attr_proj with
  | Some attrs -> attrs
  | None ->
    let at = Database.atom_type db node in
    List.map (fun (a : Schema.Attr.t) -> a.name) at.attrs

let attr_visible t node attr =
  match Smap.find_opt node t.attr_proj with
  | Some attrs -> List.mem attr attrs
  | None -> true

let find_by_root t root =
  List.find_opt (fun (m : Molecule.t) -> Aid.equal m.root root) t.occ

(** Structural compatibility in the sense of Def. 4/10's "same
    description" requirement, lifted to molecule types: same structure
    graph over the same database types and the same visible
    attributes. *)
let compatible a b =
  Mdesc.equal a.desc b.desc
  && List.for_all
       (fun node ->
         (match (Smap.find_opt node a.attr_proj, Smap.find_opt node b.attr_proj) with
          | None, None -> true
          | Some xs, Some ys -> List.equal String.equal xs ys
          | Some _, None | None, Some _ -> false))
       (Mdesc.nodes a.desc)

let molecule_set t = Molecule.Set.of_list t.occ

let pp_summary ppf t =
  Fmt.pf ppf "molecule type %s: %a, %d molecules" t.name Mdesc.pp t.desc
    (List.length t.occ)
