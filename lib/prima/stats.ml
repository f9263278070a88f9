(** Catalog statistics and cost estimation for the molecule-processing
    planner — the query-optimization groundwork ch. 5 announces ("we
    can conveniently exploit the algebra to considerably simplify and
    enhance query transformation and query optimization").

    Statistics: per atom type its cardinality and per-attribute
    distinct-value counts; per link type its average fanout in both
    directions (the symmetric link index makes both cheap to know).
    Estimation: textbook selectivity rules over the qualification and
    fanout products over the structure DAG. *)

open Mad_store
module Smap = Map.Make (String)

type link_stat = {
  pairs : int;
  fanout_fwd : float;  (** avg partners of a left-role atom *)
  fanout_bwd : float;
}

type learned_link = {
  lf_fwd : float option;  (** link traversals per parent atom, forward *)
  lf_bwd : float option;
  lr_fwd : float option;  (** distinct atoms reached per parent atom *)
  lr_bwd : float option;
}
(** Adaptive per-link-type factors, learned by {!refine_actuals} from
    recorded actuals.  Traversal fanout (lf) and distinct reach (lr) are kept
    separately: the catalog fanout conflates them, but under subobject
    sharing many traversals reach few distinct atoms (Fig. 1's edges
    sharing corner points), so links and component sizes need
    different factors. *)

type t = {
  atom_counts : int Smap.t;
  distinct : int Smap.t;  (** "type.attr" -> distinct values *)
  link_stats : link_stat Smap.t;
  learned : learned_link Smap.t;  (** link type -> refined factors *)
  learned_sel : float Smap.t;  (** "root|pred" -> observed selectivity *)
}

let key atype attr = atype ^ "." ^ attr

let collect db =
  let atom_counts =
    List.fold_left
      (fun m at -> Smap.add at (Database.count_atoms db at) m)
      Smap.empty (Database.atom_type_names db)
  in
  let distinct =
    List.fold_left
      (fun m atname ->
        let at = Database.atom_type db atname in
        List.fold_left
          (fun m (a : Schema.Attr.t) ->
            let i = Schema.Atom_type.attr_index at a.name in
            let seen = Hashtbl.create 64 in
            List.iter
              (fun (atom : Atom.t) ->
                Hashtbl.replace seen (Value.to_string atom.values.(i)) ())
              (Database.atoms db atname);
            Smap.add (key atname a.name) (Hashtbl.length seen) m)
          m at.attrs)
      Smap.empty (Database.atom_type_names db)
  in
  let link_stats =
    List.fold_left
      (fun m ltname ->
        let lt = Database.link_type db ltname in
        let pairs = Database.count_links db ltname in
        let e1, e2 = lt.ends in
        let n1 = max 1 (Database.count_atoms db e1) in
        let n2 = max 1 (Database.count_atoms db e2) in
        Smap.add ltname
          {
            pairs;
            fanout_fwd = float_of_int pairs /. float_of_int n1;
            fanout_bwd = float_of_int pairs /. float_of_int n2;
          }
          m)
      Smap.empty (Database.link_type_names db)
  in
  { atom_counts; distinct; link_stats; learned = Smap.empty;
    learned_sel = Smap.empty }

(* ------------------------------------------------------------------ *)
(* Selectivity of qualifications (textbook heuristics)                  *)

let rec selectivity t pred =
  match pred with
  | Mad.Qual.True -> 1.0
  | Mad.Qual.False -> 0.0
  | Mad.Qual.Cmp (op, a, b) -> begin
    let eq_sel =
      (* equality against an attribute: 1/ndv *)
      let of_attr = function
        | Mad.Qual.Attr { node; attr } ->
          Some
            (1.0
            /. float_of_int (max 1 (Option.value ~default:10 (Smap.find_opt (key node attr) t.distinct))))
        | _ -> None
      in
      match (of_attr a, of_attr b) with
      | Some s, _ | _, Some s -> s
      | None, None -> 0.5
    in
    match op with
    | Mad.Qual.Eq -> eq_sel
    | Mad.Qual.Ne -> 1.0 -. eq_sel
    | Mad.Qual.Lt | Mad.Qual.Le | Mad.Qual.Gt | Mad.Qual.Ge -> 1.0 /. 3.0
  end
  | Mad.Qual.And (a, b) -> selectivity t a *. selectivity t b
  | Mad.Qual.Or (a, b) ->
    let sa = selectivity t a and sb = selectivity t b in
    sa +. sb -. (sa *. sb)
  | Mad.Qual.Not a -> 1.0 -. selectivity t a
  | Mad.Qual.Exists (_, _) | Mad.Qual.Forall (_, _) -> 0.5

(* ------------------------------------------------------------------ *)
(* Derivation cost estimation                                           *)

type estimate = {
  est_roots : float;  (** molecules to derive *)
  est_atoms : float;  (** atoms fetched during derivation *)
  est_links : float;  (** link traversals *)
}

let pp_estimate ppf e =
  Fmt.pf ppf "est: %.1f molecules, %.1f atoms, %.1f link traversals"
    e.est_roots e.est_atoms e.est_links

type node_estimate = {
  ne_node : string;
  ne_atoms : float;  (** atoms expected at this node, over all molecules *)
  ne_links : float;  (** link traversals arriving at this node *)
}

type detail = { d_est : estimate; d_nodes : node_estimate list }

(** Estimate the work of executing a plan: qualifying roots, then per
    structure edge in topological order the expected component sizes
    (fanout products; diamonds take the min over incoming edges).
    The detail keeps the per-node totals — the "estimated" column of
    [EXPLAIN ANALYZE], matched against the per-node actuals recorded
    by {!Mad.Derive} under the same node names. *)
let sel_key root pred = root ^ "|" ^ Mad.Qual.to_string pred

(* the per-edge factors the estimator multiplies with: traversal
   fanout (how many link traversals a parent atom causes) and distinct
   reach (how many distinct atoms they arrive at).  The static catalog
   knows only the former; [refine_actuals] learns both from actuals. *)
let edge_factors t (e : Mad.Mdesc.edge) =
  let static =
    match (Smap.find_opt e.link t.link_stats, e.dir) with
    | Some s, `Fwd -> s.fanout_fwd
    | Some s, `Bwd -> s.fanout_bwd
    | None, (`Fwd | `Bwd) -> 1.0
  in
  match Smap.find_opt e.link t.learned with
  | None -> (static, static)
  | Some l ->
    let lf, lr =
      match e.dir with
      | `Fwd -> (l.lf_fwd, l.lr_fwd)
      | `Bwd -> (l.lf_bwd, l.lr_bwd)
    in
    let trav = Option.value ~default:static lf in
    (trav, Option.value ~default:trav lr)

let estimate_detail t ~root_pred desc =
  let root = Mad.Mdesc.root desc in
  let root_count =
    float_of_int (Option.value ~default:0 (Smap.find_opt root t.atom_counts))
  in
  let roots =
    match root_pred with
    | None -> root_count
    | Some q ->
      let sel =
        match Smap.find_opt (sel_key root q) t.learned_sel with
        | Some s -> s
        | None -> selectivity t q
      in
      root_count *. sel
  in
  (* sizes: expected atoms per molecule at each node; the root
     contributes exactly one *)
  let sizes = ref (Smap.singleton root 1.0) in
  let links = ref 0.0 in
  let atoms = ref 1.0 in
  let nodes = ref [ { ne_node = root; ne_atoms = roots; ne_links = 0.0 } ] in
  List.iter
    (fun node ->
      if not (String.equal node root) then begin
        let node_links = ref 0.0 in
        let per_edge =
          List.map
            (fun (e : Mad.Mdesc.edge) ->
              let parent = Option.value ~default:0.0 (Smap.find_opt e.from_at !sizes) in
              let trav, reach = edge_factors t e in
              let traversed = parent *. trav in
              links := !links +. traversed;
              node_links := !node_links +. traversed;
              parent *. reach)
            (Mad.Mdesc.in_edges desc node)
        in
        let size =
          match per_edge with
          | [] -> 0.0
          | xs -> List.fold_left Float.min Float.infinity xs
        in
        atoms := !atoms +. size;
        sizes := Smap.add node size !sizes;
        nodes :=
          {
            ne_node = node;
            ne_atoms = roots *. size;
            ne_links = roots *. !node_links;
          }
          :: !nodes
      end)
    (Mad.Mdesc.topo_order desc);
  {
    d_est =
      {
        est_roots = roots;
        est_atoms = roots *. !atoms;
        est_links = roots *. !links;
      };
    d_nodes = List.rev !nodes;
  }

let estimate t ~root_pred desc = (estimate_detail t ~root_pred desc).d_est

(* ------------------------------------------------------------------ *)
(* Adaptive statistics: feeding recorded actuals back into the catalog *)

type node_actual = {
  na_node : string;
  na_atoms : int;  (** atoms included at this node, over all molecules *)
  na_links : int;  (** link traversals arriving at this node *)
}

(** The per-node actuals a registry-backed derivation recorded (the
    ["derive.atoms"]/["derive.links"] counters of an [EXPLAIN ANALYZE]
    or {!Profile} run). *)
let actuals_of_registry reg desc =
  List.map
    (fun node ->
      let labels = [ ("node", node) ] in
      {
        na_node = node;
        na_atoms = Mad_obs.Registry.counter_value reg ~labels "derive.atoms";
        na_links = Mad_obs.Registry.counter_value reg ~labels "derive.links";
      })
    (Mad.Mdesc.nodes desc)

(** Refine the catalog with one plan's recorded actuals,
    exponentially weighted: each learned factor moves [alpha] of the
    way from its previous value (or the static estimate, on first
    observation) toward the observed one, so repeated queries
    converge geometrically while one outlier run cannot wreck the
    catalog.  Learned per edge: traversal fanout (links per parent
    atom) and distinct reach (atoms per parent atom); per root
    predicate: observed selectivity.  Only nodes with a single
    incoming edge teach fanouts — a diamond's aggregate counters
    cannot be attributed to one edge. *)
let refine_actuals ?(alpha = 0.5) t ~root_pred desc actuals =
  let find node = List.find_opt (fun a -> String.equal a.na_node node) actuals in
  let root = Mad.Mdesc.root desc in
  let blend prev obs = ((1.0 -. alpha) *. prev) +. (alpha *. obs) in
  (* root selectivity: qualifying roots over the type's cardinality *)
  let learned_sel =
    match (root_pred, find root) with
    | Some q, Some na ->
      let root_count =
        float_of_int
          (Option.value ~default:0 (Smap.find_opt root t.atom_counts))
      in
      if root_count <= 0.0 then t.learned_sel
      else begin
        let k = sel_key root q in
        let obs = float_of_int na.na_atoms /. root_count in
        let prev =
          match Smap.find_opt k t.learned_sel with
          | Some s -> s
          | None -> selectivity t q
        in
        Smap.add k (blend prev obs) t.learned_sel
      end
    | (None | Some _), _ -> t.learned_sel
  in
  (* per-link-type factors from single-in-edge nodes *)
  let learned =
    List.fold_left
      (fun learned node ->
        if String.equal node root then learned
        else
          match Mad.Mdesc.in_edges desc node with
          | [ e ] -> begin
            match (find e.Mad.Mdesc.from_at, find node) with
            | Some pa, Some na when pa.na_atoms > 0 ->
              let parent = float_of_int pa.na_atoms in
              let obs_lf = float_of_int na.na_links /. parent in
              let obs_lr = float_of_int na.na_atoms /. parent in
              let static, _ = edge_factors t e in
              let prior =
                Option.value
                  ~default:{ lf_fwd = None; lf_bwd = None; lr_fwd = None; lr_bwd = None }
                  (Smap.find_opt e.Mad.Mdesc.link learned)
              in
              let upd prev obs =
                Some (blend (Option.value ~default:static prev) obs)
              in
              let prior =
                match e.Mad.Mdesc.dir with
                | `Fwd ->
                  { prior with
                    lf_fwd = upd prior.lf_fwd obs_lf;
                    lr_fwd = upd prior.lr_fwd obs_lr }
                | `Bwd ->
                  { prior with
                    lf_bwd = upd prior.lf_bwd obs_lf;
                    lr_bwd = upd prior.lr_bwd obs_lr }
              in
              Smap.add e.Mad.Mdesc.link prior learned
            | _, _ -> learned
          end
          | _ -> learned)
      t.learned (Mad.Mdesc.nodes desc)
  in
  { t with learned; learned_sel }

(* ------------------------------------------------------------------ *)
(* Stats-driven conjunct order                                          *)

(** Order residual conjuncts by estimated evaluation cost: a conjunct
    touching small expected components runs (and usually rejects)
    first, so the expensive quantified checks over large components
    only see survivors.  The component sizes flow from
    {!edge_factors}, so learned factors ({!refine_actuals}) genuinely
    move the order — this is the stats-driven plan decision whose flips the
    workload digest surfaces as [plan.switch]. *)
let order t ~root_pred desc = function
  | ([] | [ _ ]) as cs -> cs
  | cs ->
    let detail = estimate_detail t ~root_pred desc in
    let size n =
      match
        List.find_opt (fun ne -> String.equal ne.ne_node n) detail.d_nodes
      with
      | Some ne -> ne.ne_atoms
      | None -> 0.0
    in
    let cost c =
      Mad.Qual.Sset.fold (fun n acc -> acc +. size n) (Mad.Qual.nodes c) 0.0
    in
    (* cheap first; equally cheap conjuncts run the more selective one
       first; the sort is stable so ties keep statement order *)
    List.map (fun c -> ((cost c, selectivity t c), c)) cs
    |> List.stable_sort (fun (k1, _) (k2, _) -> compare k1 k2)
    |> List.map snd
