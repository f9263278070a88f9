(** The atom-type algebra (Def. 4, Theorem 1).

    Five operations — projection π, restriction σ, cartesian product ×,
    union ω, difference δ — each consuming one or two atom types of a
    database and producing a *new atom type registered in the same
    (thereby enlarged) database*, together with *inherited link types*:
    every link type incident to an operand is re-created on the result
    atom type, its occurrence re-pointed at the result atoms via the
    provenance of the operation.  This inheritance is what makes result
    atom types reusable by subsequent (in particular molecule)
    operations, and it is the substance of Theorem 1's closure claim.

    Occurrences follow the paper's set semantics (an atom-type
    occurrence is a subset of the description's domain): π, ω and δ
    de-duplicate result atoms by attribute values. *)

open Mad_store

module Vmap = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

type t = {
  at : Schema.Atom_type.t;  (** the result atom type (registered in the db) *)
  inherited : (string * Schema.Link_type.t) list;
      (** (original link-type name, inherited link type) *)
  provenance : Aid.t list Aid.Map.t;
      (** result atom id -> source atom id(s) it was built from *)
}

let result_ids r =
  Aid.Map.fold (fun id _ s -> Aid.Set.add id s) r.provenance Aid.Set.empty

(* ------------------------------------------------------------------ *)
(* Link-type inheritance                                                *)

(* Reverse the provenance: source atom id -> result atom ids. *)
let reverse_provenance provenance =
  Aid.Map.fold
    (fun res srcs acc ->
      List.fold_left
        (fun acc src ->
          let cur = Option.value ~default:[] (Aid.Map.find_opt src acc) in
          Aid.Map.add src (res :: cur) acc)
        acc srcs)
    provenance Aid.Map.empty

(** Inherit every link type incident to [operands] (a list of source
    atom-type names, one entry per operand side) onto the result type
    [res_name].  For each inherited link type, the operand end is
    replaced by the result type and each link is re-pointed through the
    provenance.  Cardinality restrictions are dropped on inherited link
    types: a result atom may legitimately aggregate several sources. *)
let inherit_links db ~res_name ~operands ~provenance =
  let rev = reverse_provenance provenance in
  let results_of src = Option.value ~default:[] (Aid.Map.find_opt src rev) in
  let mk_name base side =
    let candidate =
      if List.length operands > 1 then
        Printf.sprintf "%s~%s.%d" base res_name side
      else Printf.sprintf "%s~%s" base res_name
    in
    candidate
  in
  (* snapshot the incident link types of every operand before creating
     any inherited ones (they would otherwise feed back into later
     operands' incident lists) *)
  let plans =
    List.mapi
      (fun side src_at -> (side, src_at, Database.incident_link_types db src_at))
      operands
  in
  List.concat
    (List.map
       (fun (side, src_at, incident) ->
         List.map
           (fun (lt : Schema.Link_type.t) ->
             let e1, e2 = lt.ends in
             let new_name = mk_name lt.name (side + 1) in
             let reflexive = Schema.Link_type.reflexive lt in
             let ends' =
               if reflexive then (res_name, res_name)
               else if String.equal e1 src_at then (res_name, e2)
               else (e1, res_name)
             in
             let lt' = Schema.Link_type.v new_name ends' in
             let lt' = Database.define_link_type db lt' in
             List.iter
               (fun (l, r) ->
                 if reflexive then
                   List.iter
                     (fun l' ->
                       List.iter
                         (fun r' ->
                           Database.add_link db new_name ~left:l' ~right:r')
                         (results_of r))
                     (results_of l)
                 else if String.equal e1 src_at then
                   List.iter
                     (fun l' -> Database.add_link db new_name ~left:l' ~right:r)
                     (results_of l)
                 else
                   List.iter
                     (fun r' -> Database.add_link db new_name ~left:l ~right:r')
                     (results_of r))
               (Database.links db lt.name);
             (lt.name, lt'))
           incident)
       plans)

(* ------------------------------------------------------------------ *)
(* The five operations                                                  *)

(* One span per operator application plus an op.latency_us histogram
   record — the operator-level accounting the observability layer is
   built around.  Every operator materializes its result type in the
   enlarged database — scratch state rebuilt on demand, kept out of
   any journal (write-ahead log) the database carries. *)
let op_span obs db op f =
  Mad_obs.Obs.timed obs ("atom_algebra." ^ op) @@ fun () ->
  Database.unjournaled db f

(** π — atom-type projection. [attrs] selects (and orders) the kept
    attribute descriptions; result atoms are de-duplicated by their
    projected values, provenance collects every source atom that
    projected onto them. *)
let project ?(obs = Mad_obs.Obs.noop) db ~name ~attrs src =
  op_span obs db "project" @@ fun () ->
  let at = Database.atom_type db src in
  let kept =
    List.map
      (fun a ->
        (a, Schema.Atom_type.attr_index at a))
      attrs
  in
  if kept = [] then Err.failf "projection of %s onto no attributes" src;
  let desc =
    List.map (fun (a, i) -> ignore a; List.nth at.attrs i) kept
  in
  let res_at = Database.declare_atom_type db name desc in
  let groups =
    List.fold_left
      (fun acc (a : Atom.t) ->
        let tuple = List.map (fun (_, i) -> a.values.(i)) kept in
        let cur = Option.value ~default:[] (Vmap.find_opt tuple acc) in
        Vmap.add tuple (a.id :: cur) acc)
      Vmap.empty (Database.atoms db src)
  in
  let provenance =
    Vmap.fold
      (fun tuple srcs acc ->
        let atom = Database.insert_atom db ~atype:name tuple in
        Aid.Map.add atom.id (List.rev srcs) acc)
      groups Aid.Map.empty
  in
  let inherited = inherit_links db ~res_name:name ~operands:[ src ] ~provenance in
  { at = res_at; inherited; provenance }

(** σ — atom-type restriction by a qualification formula. *)
let restrict ?(obs = Mad_obs.Obs.noop) db ~name ~pred src =
  op_span obs db "restrict" @@ fun () ->
  let at = Database.atom_type db src in
  Qual.typecheck ~allowed:[ src ] db pred;
  let res_at = Database.declare_atom_type db name at.attrs in
  let provenance =
    List.fold_left
      (fun acc (a : Atom.t) ->
        if Qual.eval_atom at a pred then begin
          let atom =
            Database.insert_atom db ~atype:name (Array.to_list a.values)
          in
          Aid.Map.add atom.id [ a.id ] acc
        end
        else acc)
      Aid.Map.empty (Database.atoms db src)
  in
  let inherited = inherit_links db ~res_name:name ~operands:[ src ] ~provenance in
  { at = res_at; inherited; provenance }

(** × — cartesian product; attribute descriptions are concatenated,
    result atoms concatenate the operand values ('&'), links of both
    operands are inherited.  Def. 4 requires the descriptions pairwise
    disjoint; attributes of the second operand that would collide are
    qualified as [<operand>_<attr>] to restore disjointness (the
    relational rename ρ folded into ×). *)
let product ?(obs = Mad_obs.Obs.noop) db ~name src1 src2 =
  op_span obs db "product" @@ fun () ->
  let at1 = Database.atom_type db src1 and at2 = Database.atom_type db src2 in
  let taken =
    ref (List.map (fun (a : Schema.Attr.t) -> a.name) at1.attrs)
  in
  let attrs2 =
    List.map
      (fun (a : Schema.Attr.t) ->
        let rec fresh candidate =
          if List.mem candidate !taken then fresh (src2 ^ "_" ^ candidate)
          else candidate
        in
        let name' = fresh a.name in
        taken := name' :: !taken;
        { a with Schema.Attr.name = name' })
      at2.attrs
  in
  let res_at = Database.declare_atom_type db name (at1.attrs @ attrs2) in
  let provenance =
    List.fold_left
      (fun acc (a1 : Atom.t) ->
        List.fold_left
          (fun acc (a2 : Atom.t) ->
            let values = Array.to_list a1.values @ Array.to_list a2.values in
            let atom = Database.insert_atom db ~atype:name values in
            Aid.Map.add atom.id [ a1.id; a2.id ] acc)
          acc (Database.atoms db src2))
      Aid.Map.empty (Database.atoms db src1)
  in
  let inherited =
    inherit_links db ~res_name:name ~operands:[ src1; src2 ] ~provenance
  in
  { at = res_at; inherited; provenance }

let check_same_description op at1 at2 =
  if not (Schema.Atom_type.same_description at1 at2) then
    Err.failf "%s requires identically described operands (%s vs %s)" op
      at1.Schema.Atom_type.name at2.Schema.Atom_type.name

(** ω — atom-type union (identical descriptions required); result
    de-duplicated by values. *)
let union ?(obs = Mad_obs.Obs.noop) db ~name src1 src2 =
  op_span obs db "union" @@ fun () ->
  let at1 = Database.atom_type db src1 and at2 = Database.atom_type db src2 in
  check_same_description "union" at1 at2;
  let res_at = Database.declare_atom_type db name at1.attrs in
  let groups =
    List.fold_left
      (fun acc (a : Atom.t) ->
        let tuple = Array.to_list a.values in
        let cur = Option.value ~default:[] (Vmap.find_opt tuple acc) in
        Vmap.add tuple (a.id :: cur) acc)
      Vmap.empty
      (Database.atoms db src1 @ Database.atoms db src2)
  in
  let provenance =
    Vmap.fold
      (fun tuple srcs acc ->
        let atom = Database.insert_atom db ~atype:name tuple in
        Aid.Map.add atom.id (List.rev srcs) acc)
      groups Aid.Map.empty
  in
  let inherited =
    inherit_links db ~res_name:name ~operands:[ src1; src2 ] ~provenance
  in
  { at = res_at; inherited; provenance }

(** δ — atom-type difference (identical descriptions required):
    atoms of the first operand whose values do not occur in the second. *)
let diff ?(obs = Mad_obs.Obs.noop) db ~name src1 src2 =
  op_span obs db "diff" @@ fun () ->
  let at1 = Database.atom_type db src1 and at2 = Database.atom_type db src2 in
  check_same_description "difference" at1 at2;
  let res_at = Database.declare_atom_type db name at1.attrs in
  let right =
    List.fold_left
      (fun acc (a : Atom.t) -> Vmap.add (Array.to_list a.values) () acc)
      Vmap.empty (Database.atoms db src2)
  in
  let groups =
    List.fold_left
      (fun acc (a : Atom.t) ->
        let tuple = Array.to_list a.values in
        if Vmap.mem tuple right then acc
        else
          let cur = Option.value ~default:[] (Vmap.find_opt tuple acc) in
          Vmap.add tuple (a.id :: cur) acc)
      Vmap.empty (Database.atoms db src1)
  in
  let provenance =
    Vmap.fold
      (fun tuple srcs acc ->
        let atom = Database.insert_atom db ~atype:name tuple in
        Aid.Map.add atom.id (List.rev srcs) acc)
      groups Aid.Map.empty
  in
  let inherited = inherit_links db ~res_name:name ~operands:[ src1 ] ~provenance in
  { at = res_at; inherited; provenance }
