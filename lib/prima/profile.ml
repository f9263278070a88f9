(** EXPLAIN ANALYZE for the molecule engine: run a query under a
    private observability context, then line the planner's estimates
    ({!Stats.estimate_detail}) up against the actuals the derivation
    recorded — per structure node, plus the stage latencies the
    executor's timed spans observed.

    {!analyze_stmt} is the [EXPLAIN ANALYZE] report
    {!Adaptive.install} registers in the session's hook. *)

module Obs = Mad_obs.Obs
module Metric = Mad_obs.Metric
module Registry = Mad_obs.Registry
module Json = Mad_obs.Json

type node_report = {
  nr_node : string;
  nr_est_atoms : float;
  nr_est_links : float;
  nr_atoms : int;  (** actual atoms included at this node *)
  nr_links : int;  (** actual link traversals arriving at this node *)
}

type t = {
  plan : Planner.plan;
  est : Stats.estimate;
  actual_roots : int;
  actual_atoms : int;
  actual_links : int;
  nodes : node_report list;
  stages : (string * float) list;  (** executor stage -> duration ms *)
  duration_ms : float;
  counters : Atom_interface.counters;
}

(** Run [q] in a fresh context (its own registry, so the actuals start
    at zero) and pair the recorded work with the plan's estimates.
    [stats] supplies the catalog the estimates come from (default: a
    fresh {!Stats.collect}); pass a refined catalog to see how much an
    adaptive run closed the gap. *)
let analyze ?(optimize = true) ?stats:catalog db (q : Planner.query) =
  let obs = Obs.create () in
  let reg = Obs.registry obs in
  let stats = Mad.Derive.stats_in reg in
  let catalog =
    match catalog with Some c -> c | None -> Stats.collect db
  in
  (* the executor plans under the same catalog the estimates come
     from, so the profiled plan (and its hash) is exactly the one a
     digest-recorded execution of this statement would run *)
  let outcome = Executor.run ~obs ~stats ~catalog ~optimize db q in
  let detail = Stats.estimate_detail catalog outcome.Executor.plan in
  let nodes =
    List.map
      (fun (ne : Stats.node_estimate) ->
        let labels = [ ("node", ne.Stats.ne_node) ] in
        {
          nr_node = ne.Stats.ne_node;
          nr_est_atoms = ne.Stats.ne_atoms;
          nr_est_links = ne.Stats.ne_links;
          nr_atoms = Registry.counter_value reg ~labels "derive.atoms";
          nr_links = Registry.counter_value reg ~labels "derive.links";
        })
      detail.Stats.d_nodes
  in
  (* the registry is fresh, so its op.latency_us series appear in the
     order the executor first timed them: prima.execute, then its
     stages in executor order *)
  let latencies =
    List.filter_map
      (function
        | Metric.Histogram h when String.equal h.Metric.h_name "op.latency_us"
          -> (
          match List.assoc_opt "op" h.Metric.h_labels with
          | Some op when String.starts_with ~prefix:"prima." op ->
            Some (op, Metric.sum h /. 1e3)
          | Some _ | None -> None)
        | Metric.Counter _ | Metric.Gauge _ | Metric.Histogram _ -> None)
      (Registry.to_list reg)
  in
  let duration_ms =
    Option.value ~default:0.0 (List.assoc_opt "prima.execute" latencies)
  in
  let stages = List.remove_assoc "prima.execute" latencies in
  {
    plan = outcome.Executor.plan;
    est = detail.Stats.d_est;
    actual_roots =
      List.length (Mad.Molecule_type.occ outcome.Executor.mt);
    actual_atoms = Mad.Derive.atoms_visited stats;
    actual_links = Mad.Derive.links_traversed stats;
    nodes;
    stages;
    duration_ms;
    counters = outcome.Executor.counters;
  }

(* ------------------------------------------------------------------ *)
(* Estimate error, drift, and the feedback edge                         *)

(** Total absolute estimate error of a report: |est - actual| summed
    over roots, per-node atoms and per-node links.  The quantity
    {!Stats.refine} drives down. *)
let error (r : t) =
  List.fold_left
    (fun acc nr ->
      acc
      +. Float.abs (nr.nr_est_atoms -. float_of_int nr.nr_atoms)
      +. Float.abs (nr.nr_est_links -. float_of_int nr.nr_links))
    (Float.abs (r.est.Stats.est_roots -. float_of_int r.actual_roots))
    r.nodes

type drift = {
  dd_node : string;
  dd_metric : string;  (** ["atoms"] or ["links"] *)
  dd_est : float;
  dd_actual : int;
  dd_ratio : float;  (** how far off, as a >= 1 factor *)
}

let pp_drift ppf d =
  Fmt.pf ppf "%s %s est=%.1f actual=%d (%.1fx off)" d.dd_node d.dd_metric
    d.dd_est d.dd_actual d.dd_ratio

(* over/under-estimation factor; both sides are floored at 1 so a
   0-vs-small mismatch does not report an infinite ratio *)
let off_ratio est actual =
  let a = Float.max 1.0 est and b = Float.max 1.0 (float_of_int actual) in
  Float.max a b /. Float.min a b

(** The nodes whose estimate was off by more than [factor] — the
    statements worth re-planning once the catalog has been refined. *)
let drift ?(factor = 2.0) (r : t) =
  List.concat_map
    (fun nr ->
      let check metric est actual =
        let ratio = off_ratio est actual in
        if ratio >= factor then
          [ { dd_node = nr.nr_node; dd_metric = metric; dd_est = est;
              dd_actual = actual; dd_ratio = ratio } ]
        else []
      in
      check "atoms" nr.nr_est_atoms nr.nr_atoms
      @ check "links" nr.nr_est_links nr.nr_links)
    r.nodes

(** Feed this report's actuals back into a catalog
    ({!Stats.refine_actuals} on the per-node records). *)
let refine ?alpha catalog (r : t) =
  Stats.refine_actuals ?alpha catalog r.plan
    (List.map
       (fun nr ->
         { Stats.na_node = nr.nr_node; na_atoms = nr.nr_atoms;
           na_links = nr.nr_links })
       r.nodes)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

(* the derive structure as an indented tree (diamond nodes appear once,
   at their first parent) with estimated vs. actual work per node *)
let pp_tree ppf (r : t) =
  let desc = r.plan.Planner.derive_desc in
  let report node =
    List.find_opt (fun nr -> String.equal nr.nr_node node) r.nodes
  in
  let seen = Hashtbl.create 8 in
  let rec walk indent via node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      let prefix = match via with None -> "" | Some l -> "-[" ^ l ^ "]- " in
      (match report node with
       | None -> Fmt.pf ppf "%s%s%s@." indent prefix node
       | Some nr ->
         if String.equal node (Mad.Mdesc.root desc) then
           Fmt.pf ppf
             "%s%s%s  (roots est=%.1f actual=%d; atoms est=%.1f actual=%d)@."
             indent prefix node r.est.Stats.est_roots r.actual_roots
             nr.nr_est_atoms nr.nr_atoms
         else
           Fmt.pf ppf
             "%s%s%s  (atoms est=%.1f actual=%d; links est=%.1f actual=%d)@."
             indent prefix node nr.nr_est_atoms nr.nr_atoms nr.nr_est_links
             nr.nr_links);
      List.iter
        (fun (e : Mad.Mdesc.edge) ->
          walk (indent ^ "  ") (Some e.Mad.Mdesc.link) e.Mad.Mdesc.to_at)
        (Mad.Mdesc.out_edges desc node)
    end
  in
  walk "" None (Mad.Mdesc.root desc)

let pp ppf (r : t) =
  Fmt.pf ppf "%a" Planner.pp r.plan;
  pp_tree ppf r;
  Fmt.pf ppf "totals: roots est=%.1f actual=%d; atoms est=%.1f actual=%d; \
              links est=%.1f actual=%d@."
    r.est.Stats.est_roots r.actual_roots r.est.Stats.est_atoms r.actual_atoms
    r.est.Stats.est_links r.actual_links;
  Fmt.pf ppf "access: %a@." Atom_interface.pp_counters r.counters;
  if r.stages <> [] then
    Fmt.pf ppf "stages: %a (total %.2f ms)@."
      Fmt.(
        list ~sep:(any ", ") (fun ppf (n, ms) -> Fmt.pf ppf "%s %.2f ms" n ms))
      r.stages r.duration_ms

let to_string r = Format.asprintf "%a" pp r

let to_json (r : t) =
  let node_json nr =
    Json.Obj
      [
        ("node", Json.Str nr.nr_node);
        ("est_atoms", Json.Num nr.nr_est_atoms);
        ("actual_atoms", Json.Num (float_of_int nr.nr_atoms));
        ("est_links", Json.Num nr.nr_est_links);
        ("actual_links", Json.Num (float_of_int nr.nr_links));
      ]
  in
  Json.Obj
    [
      ("query", Json.Str r.plan.Planner.query.Planner.name);
      ("est_roots", Json.Num r.est.Stats.est_roots);
      ("actual_roots", Json.Num (float_of_int r.actual_roots));
      ("est_atoms", Json.Num r.est.Stats.est_atoms);
      ("actual_atoms", Json.Num (float_of_int r.actual_atoms));
      ("est_links", Json.Num r.est.Stats.est_links);
      ("actual_links", Json.Num (float_of_int r.actual_links));
      ("nodes", Json.List (List.map node_json r.nodes));
      ( "stages",
        Json.Obj (List.map (fun (n, ms) -> (n, Json.Num ms)) r.stages) );
      ("duration_ms", Json.Num r.duration_ms);
    ]

(* ------------------------------------------------------------------ *)
(* The MOL hook                                                         *)

(** The physical query a plain restricted/projected SELECT maps to, if
    any (set combinators and recursion stay with the algebra layer). *)
let query_of_stmt db (stmt : Mad_mql.Ast.stmt) =
  match stmt with
  | Mad_mql.Ast.Query
      (Mad_mql.Ast.Q
         {
           select;
           from =
             ( Mad_mql.Ast.From_anon s
             | Mad_mql.Ast.From_named_def (_, s) );
           where;
         }) ->
    let desc = Mad_mql.Translate.resolve_structure db s in
    let select =
      match select with
      | Mad_mql.Ast.All -> None
      | Mad_mql.Ast.Items items -> Some items
    in
    Some { Planner.name = "q"; desc; where; select }
  | _ -> None

let analyze_stmt (session : Mad_mql.Session.t) stmt =
  match query_of_stmt session.Mad_mql.Session.db stmt with
  | Some q ->
    Format.asprintf "%a" pp
      (analyze session.Mad_mql.Session.db q)
  | None ->
    (* not a physical-plan query: report the algebra plan and the
       session-level actuals of executing it *)
    let s = session.Mad_mql.Session.stats in
    let a0 = Mad.Derive.atoms_visited s
    and l0 = Mad.Derive.links_traversed s in
    let t0 = !Mad_obs.Monotonic.clock () in
    ignore (Mad_mql.Session.eval_stmt session stmt);
    let ms = (!Mad_obs.Monotonic.clock () -. t0) *. 1000. in
    Format.asprintf
      "%s@.actual: %d atoms visited, %d links traversed (%.2f ms)"
      (Mad_mql.Session.explain_stmt session stmt)
      (Mad.Derive.atoms_visited s - a0)
      (Mad.Derive.links_traversed s - l0)
      ms
