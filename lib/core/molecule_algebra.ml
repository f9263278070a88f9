(** The molecule algebra (Defs. 8 and 10, Theorems 2 and 3).

    Operators: molecule-type definition α, restriction Σ, projection Π,
    cartesian product X, union Ω, difference Δ, and the derived
    intersection Ψ(mt1,mt2) = Δ(mt1, Δ(mt1,mt2)).

    Fig. 5 defines every operator in three stages: operation-specific
    actions produce a result set over the operand's types, propagation
    (Def. 9) carries it into an enlarged database, and the result is
    again a molecule type (closure, Theorem 3).  Σ, Π, Ω, Δ and Ψ stop
    after the first stage: the result set, described over the operand's
    base types, already is the molecule type, and reading it declares,
    inserts and copies nothing.  Propagation is the closure check's
    oracle ({!Closure.check_molecule_type}).  X is the one read that
    enlarges the schema: its synthetic pair root needs new types. *)

open Mad_store
module Smap = Map.Make (String)

let counter = ref 0

let gen_name prefix =
  incr counter;
  Printf.sprintf "%s_%d" prefix !counter

(* One span per operator application plus an op.latency_us histogram
   record; the derivation work it triggers lands in the [derive.*]
   counters of the [stats] handle. *)
let op_span obs op f = Mad_obs.Obs.timed obs ("molecule_algebra." ^ op) f

(* ------------------------------------------------------------------ *)
(* α — molecule-type definition (Def. 8)                                *)

let define ?(obs = Mad_obs.Obs.noop) ?stats ?roots db ~name desc =
  op_span obs "define" @@ fun () ->
  let occ =
    match roots with
    | None -> Derive.m_dom ?stats db desc
    | Some roots -> Derive.derive_roots ?stats db desc roots
  in
  Molecule_type.v ~name ~desc occ

(** Convenience: build and validate the description, then define.
    [edges] are triples [(link, from_at, to_at)]. *)
let define' ?obs ?stats db ~name ~nodes ~edges () =
  define ?obs ?stats db ~name (Mdesc.v db ~nodes ~edges)

(* ------------------------------------------------------------------ *)
(* Qualification over molecule types                                    *)

let typecheck_qual db (mt : Molecule_type.t) pred =
  Qual.typecheck ~allowed:(Mdesc.nodes mt.desc) db pred;
  (* attribute visibility after molecule projection *)
  let module Sset = Set.Make (String) in
  let rec check_expr = function
    | Qual.Const _ | Qual.Count _ -> ()
    | Qual.Attr { node; attr } | Qual.Agg (_, node, attr) ->
      if not (Molecule_type.attr_visible mt node attr) then
        Err.failf "attribute %s.%s was projected away" node attr
    | Qual.Add (a, b) | Qual.Sub (a, b) | Qual.Mul (a, b) | Qual.Div (a, b) ->
      check_expr a;
      check_expr b
  in
  let rec check = function
    | Qual.True | Qual.False -> ()
    | Qual.Cmp (_, a, b) -> check_expr a; check_expr b
    | Qual.And (a, b) | Qual.Or (a, b) -> check a; check b
    | Qual.Not a -> check a
    | Qual.Exists (_, p) | Qual.Forall (_, p) -> check p
  in
  check pred

(** [qual(m, restr(md))] of Def. 10: does molecule [m] satisfy the
    qualification? *)
let molecule_satisfies db (mt : Molecule_type.t) (m : Molecule.t) pred =
  let component node = Molecule.component_list m node in
  let fetch node id attr =
    let at = Database.atom_type db node in
    Atom.value (Database.get_atom db ~atype:node id) at attr
  in
  Qual.eval_molecule ~component ~fetch ~root_node:(Mdesc.root mt.desc)
    ~root_atom:m.root pred

(* ------------------------------------------------------------------ *)
(* Σ — molecule-type restriction (Def. 10)                              *)

let restrict ?(obs = Mad_obs.Obs.noop) ?name db pred
    (mt : Molecule_type.t) =
  let name = Option.value name ~default:(gen_name (mt.name ^ "_sigma")) in
  op_span obs "restrict" @@ fun () ->
  typecheck_qual db mt pred;
  let rsv = List.filter (fun m -> molecule_satisfies db mt m pred) mt.occ in
  Molecule_type.v ~attr_proj:mt.attr_proj ~name ~desc:mt.desc rsv

(* ------------------------------------------------------------------ *)
(* Π — molecule-type projection                                         *)

(** [keep] lists the retained nodes, each with [None] (all visible
    attributes) or [Some attrs].  The retained node set must induce a
    coherent single-rooted sub-DAG containing the root. *)
let project ?(obs = Mad_obs.Obs.noop) ?name db keep
    (mt : Molecule_type.t) =
  let name = Option.value name ~default:(gen_name (mt.name ^ "_pi")) in
  op_span obs "project" @@ fun () ->
  let kept_nodes = List.map fst keep in
  let desc' = Mdesc.induced mt.desc kept_nodes in
  let attr_proj =
    List.fold_left
      (fun acc (node, attrs) ->
        match attrs with
        | None -> begin
          (* inherit the operand's visibility for this node *)
          match Smap.find_opt node mt.attr_proj with
          | None -> acc
          | Some prev -> Smap.add node prev acc
        end
        | Some attrs ->
          let at = Database.atom_type db node in
          List.iter
            (fun a ->
              if not (Schema.Atom_type.has_attr at a) then
                Err.failf "atom type %s has no attribute %s" node a;
              if not (Molecule_type.attr_visible mt node a) then
                Err.failf "attribute %s.%s was already projected away" node a)
            attrs;
          Smap.add node attrs acc)
      Smap.empty keep
  in
  let kept_edges = Mdesc.edges desc' in
  let rsv =
    List.map
      (fun (m : Molecule.t) ->
        let by_node =
          Smap.filter (fun node _ -> List.mem node kept_nodes) m.by_node
        in
        let links =
          Link.Set.filter
            (fun (l : Link.t) ->
              List.exists
                (fun (e : Mdesc.edge) -> String.equal e.link l.lt)
                kept_edges)
            m.links
        in
        Molecule.v ~root:m.root ~by_node ~links)
      mt.occ
  in
  Molecule_type.v ~attr_proj ~name ~desc:desc' rsv

(* ------------------------------------------------------------------ *)
(* Ω / Δ / Ψ — union, difference, intersection                          *)

let check_compatible op (a : Molecule_type.t) (b : Molecule_type.t) =
  if not (Molecule_type.compatible a b) then
    Err.failf "%s requires identically described molecule types (%s vs %s)" op
      a.name b.name

let union ?(obs = Mad_obs.Obs.noop) ?name (mt1 : Molecule_type.t)
    (mt2 : Molecule_type.t) =
  let name =
    Option.value name ~default:(gen_name (mt1.name ^ "_omega"))
  in
  op_span obs "union" @@ fun () ->
  check_compatible "molecule-type union" mt1 mt2;
  let rsv =
    Molecule.Set.elements
      (Molecule.Set.union (Molecule_type.molecule_set mt1)
         (Molecule_type.molecule_set mt2))
  in
  Molecule_type.v ~attr_proj:mt1.attr_proj ~name ~desc:mt1.desc rsv

let diff ?(obs = Mad_obs.Obs.noop) ?name (mt1 : Molecule_type.t)
    (mt2 : Molecule_type.t) =
  let name =
    Option.value name ~default:(gen_name (mt1.name ^ "_delta"))
  in
  op_span obs "diff" @@ fun () ->
  check_compatible "molecule-type difference" mt1 mt2;
  let rsv =
    Molecule.Set.elements
      (Molecule.Set.diff (Molecule_type.molecule_set mt1)
         (Molecule_type.molecule_set mt2))
  in
  Molecule_type.v ~attr_proj:mt1.attr_proj ~name ~desc:mt1.desc rsv

(** Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)) — the paper's worked example of
    operator composition under closure. *)
let intersect ?(obs = Mad_obs.Obs.noop) ?name mt1 mt2 =
  let name =
    Option.value name ~default:(gen_name (mt1.Molecule_type.name ^ "_psi"))
  in
  op_span obs "intersect" @@ fun () ->
  diff ~obs ~name mt1 (diff ~obs mt1 mt2)

(* ------------------------------------------------------------------ *)
(* X — molecule-type cartesian product                                  *)

(** X pairs every molecule of [mt1] with every molecule of [mt2].  The
    two operands are first propagated onto fresh (disjoint) types; a
    synthetic pair root (atom type [name.pair], one atom per pair, with
    link types to both operand roots) keeps the combined structure a
    single-rooted DAG, so the result is an ordinary molecule type over
    the enlarged database.  It is the only read that enlarges the
    schema; the types it declares are never dropped. *)
let product ?(obs = Mad_obs.Obs.noop) ?stats ?name db (mt1 : Molecule_type.t)
    (mt2 : Molecule_type.t) =
  let name = Option.value name ~default:(gen_name (mt1.name ^ "_x")) in
  op_span obs "product" @@ fun () ->
  (* the synthetic pair root and its link types are enlarged-database
     scratch, like everything [Propagate.prop] builds: keep them out of
     any journal the database carries *)
  Database.unjournaled db @@ fun () ->
  let p1 =
    Propagate.prop ?stats db ~name:(name ^ ".1") ~desc:mt1.desc
      ~attr_proj:mt1.attr_proj mt1.occ
  in
  let p2 =
    Propagate.prop ?stats db ~name:(name ^ ".2") ~desc:mt2.desc
      ~attr_proj:mt2.attr_proj mt2.occ
  in
  let pair_type = Propagate.fresh_name db (name ^ ".pair") in
  ignore
    (Database.declare_atom_type db pair_type
       [ Schema.Attr.v "pairno" Domain.Int ]);
  let root1 = Mdesc.root p1.mdesc and root2 = Mdesc.root p2.mdesc in
  let left_lt = Propagate.fresh_name db (name ^ ".left") in
  let right_lt = Propagate.fresh_name db (name ^ ".right") in
  ignore (Database.declare_link_type db left_lt (pair_type, root1));
  ignore (Database.declare_link_type db right_lt (pair_type, root2));
  let k = ref 0 in
  List.iter
    (fun (m1 : Molecule.t) ->
      List.iter
        (fun (m2 : Molecule.t) ->
          incr k;
          let pair =
            Database.insert_atom db ~atype:pair_type [ Value.Int !k ]
          in
          Database.add_link db left_lt ~left:pair.id ~right:m1.root;
          Database.add_link db right_lt ~left:pair.id ~right:m2.root)
        p2.mocc)
    p1.mocc;
  let nodes = (pair_type :: Mdesc.nodes p1.mdesc) @ Mdesc.nodes p2.mdesc in
  let edges =
    [ (left_lt, pair_type, root1); (right_lt, pair_type, root2) ]
    @ List.map
        (fun (e : Mdesc.edge) -> (e.link, e.from_at, e.to_at))
        (Mdesc.edges p1.mdesc)
    @ List.map
        (fun (e : Mdesc.edge) -> (e.link, e.from_at, e.to_at))
        (Mdesc.edges p2.mdesc)
  in
  let desc = Mdesc.v db ~nodes ~edges in
  define ?stats db ~name desc
