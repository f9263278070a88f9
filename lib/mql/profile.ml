(** EXPLAIN ANALYZE for the molecule engine: watch the one run of a
    statement's plan, then line the catalog's estimates
    ({!Prima.Stats.estimate_detail}) up against the actuals each α's
    derivation recorded — per structure node. *)

module Stats = Prima.Stats
module AI = Prima.Atom_interface
module Json = Mad_obs.Json

type node_report = {
  nr_node : string;
  nr_est_atoms : float;
  nr_est_links : float;
  nr_atoms : int;
  nr_links : int;
}

type scan = {
  alpha : Translate.alpha;
  est : Stats.estimate;
  roots : int;
  nodes : node_report list;
  access : AI.counters;
  ms : float;
}

type t = {
  plan : Translate.plan option;
  scans : scan list;
  rows : int;
  actual_atoms : int;
  actual_links : int;
  duration_ms : float;
}

type observed = {
  o_alpha : Translate.alpha;
  o_roots : int;
  o_nodes : Stats.node_actual list;
  o_access : AI.counters;
  o_ms : float;
}

type recorder = {
  db : Mad_store.Database.t;
  stats : Mad.Derive.stats;
  a0 : int;
  l0 : int;
  t0 : float;
  mutable seen : observed list;  (** newest first *)
}

let now () = !Mad_obs.Monotonic.clock ()

let start db stats =
  {
    db;
    stats;
    a0 = Mad.Derive.atoms_visited stats;
    l0 = Mad.Derive.links_traversed stats;
    t0 = now ();
    seen = [];
  }

(* the per-node counters a registry-backed derivation keeps *)
let per_node (stats : Mad.Derive.stats) desc =
  match stats.Mad.Derive.registry with
  | Some reg -> Stats.actuals_of_registry reg desc
  | None ->
    List.map
      (fun n -> { Stats.na_node = n; na_atoms = 0; na_links = 0 })
      (Mad.Mdesc.nodes desc)

let observe rc (a : Translate.alpha) f =
  let before = per_node rc.stats a.derive in
  let access = AI.counters () in
  let t0 = now () in
  let mt = f (AI.v ~c:access rc.db) in
  let ms = (now () -. t0) *. 1e3 in
  let nodes =
    List.map2
      (fun (b : Stats.node_actual) (x : Stats.node_actual) ->
        { x with na_atoms = x.na_atoms - b.na_atoms;
                 na_links = x.na_links - b.na_links })
      before (per_node rc.stats a.derive)
  in
  (* the derivation's atom fetches and link traversals, as the atom
     interface's cost model counts them *)
  List.iter
    (fun (n : Stats.node_actual) ->
      access.fetches <- access.fetches + n.na_atoms;
      access.links_followed <- access.links_followed + n.na_links)
    nodes;
  rc.seen <-
    { o_alpha = a; o_roots = Mad.Molecule_type.cardinality mt; o_nodes = nodes;
      o_access = access; o_ms = ms }
    :: rc.seen;
  mt

let finish rc ~catalog ~plan ~rows =
  let scan o =
    let a = o.o_alpha in
    let d = Stats.estimate_detail catalog ~root_pred:a.push a.derive in
    let nodes =
      List.map
        (fun (ne : Stats.node_estimate) ->
          let na =
            List.find
              (fun (na : Stats.node_actual) ->
                String.equal na.na_node ne.ne_node)
              o.o_nodes
          in
          { nr_node = ne.ne_node; nr_est_atoms = ne.ne_atoms;
            nr_est_links = ne.ne_links; nr_atoms = na.na_atoms;
            nr_links = na.na_links })
        d.Stats.d_nodes
    in
    { alpha = a; est = d.Stats.d_est; roots = o.o_roots; nodes;
      access = o.o_access; ms = o.o_ms }
  in
  {
    plan;
    scans = List.rev_map scan rc.seen;
    rows;
    actual_atoms = Mad.Derive.atoms_visited rc.stats - rc.a0;
    actual_links = Mad.Derive.links_traversed rc.stats - rc.l0;
    duration_ms = (now () -. rc.t0) *. 1e3;
  }

(* ------------------------------------------------------------------ *)
(* Estimate error, drift, and the feedback edge                         *)

let error r =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc nr ->
          acc
          +. Float.abs (nr.nr_est_atoms -. float_of_int nr.nr_atoms)
          +. Float.abs (nr.nr_est_links -. float_of_int nr.nr_links))
        (acc +. Float.abs (s.est.Stats.est_roots -. float_of_int s.roots))
        s.nodes)
    0.0 r.scans

type drift = {
  dd_node : string;
  dd_metric : string;
  dd_est : float;
  dd_actual : int;
  dd_ratio : float;
}

let pp_drift ppf d =
  Fmt.pf ppf "%s %s est=%.1f actual=%d (%.1fx off)" d.dd_node d.dd_metric
    d.dd_est d.dd_actual d.dd_ratio

(* over/under-estimation factor; both sides are floored at 1 so a
   0-vs-small mismatch does not report an infinite ratio *)
let off_ratio est actual =
  let a = Float.max 1.0 est and b = Float.max 1.0 (float_of_int actual) in
  Float.max a b /. Float.min a b

let drift ?(factor = 2.0) r =
  List.concat_map
    (fun s ->
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
        s.nodes)
    r.scans

let refine ?alpha catalog r =
  List.fold_left
    (fun c s ->
      Stats.refine_actuals ?alpha c ~root_pred:s.alpha.push s.alpha.derive
        (List.map
           (fun nr ->
             { Stats.na_node = nr.nr_node; na_atoms = nr.nr_atoms;
               na_links = nr.nr_links })
           s.nodes))
    catalog r.scans

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

(* an α's derivation structure as an indented tree (diamond nodes
   appear once, at their first parent) with estimated vs. actual work
   per node *)
let tree s =
  let desc = s.alpha.derive in
  let out = ref [] in
  let seen = Hashtbl.create 8 in
  let rec walk indent via node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      let prefix = match via with None -> "" | Some l -> "-[" ^ l ^ "]- " in
      (match List.find_opt (fun nr -> String.equal nr.nr_node node) s.nodes with
       | None -> out := (indent ^ prefix ^ node) :: !out
       | Some nr ->
         out :=
           (if via = None then
              Printf.sprintf
                "%s%s%s  (roots est=%.1f actual=%d; atoms est=%.1f actual=%d)"
                indent prefix node s.est.Stats.est_roots s.roots nr.nr_est_atoms
                nr.nr_atoms
            else
              Printf.sprintf
                "%s%s%s  (atoms est=%.1f actual=%d; links est=%.1f actual=%d)"
                indent prefix node nr.nr_est_atoms nr.nr_atoms nr.nr_est_links
                nr.nr_links)
           :: !out);
      List.iter
        (fun (e : Mad.Mdesc.edge) -> walk (indent ^ "  ") (Some e.link) e.to_at)
        (Mad.Mdesc.out_edges desc node)
    end
  in
  walk "" None (Mad.Mdesc.root desc);
  List.rev
    (Format.asprintf "access: %a (%.2f ms)" AI.pp_counters s.access s.ms
    :: !out)

let sum f r = List.fold_left (fun acc s -> acc +. f s) 0.0 r.scans

let pp ppf r =
  Option.iter
    (fun plan ->
      let detail a =
        match List.find_opt (fun s -> s.alpha == a) r.scans with
        | Some s -> tree s
        | None -> []
      in
      Fmt.pf ppf "%a@\n" (Translate.pp_plan ~detail) plan)
    r.plan;
  if r.scans <> [] then
    Fmt.pf ppf
      "totals: roots est=%.1f actual=%d; atoms est=%.1f actual=%d; links \
       est=%.1f actual=%d@\n"
      (sum (fun s -> s.est.Stats.est_roots) r)
      (List.fold_left (fun acc s -> acc + s.roots) 0 r.scans)
      (sum (fun s -> s.est.Stats.est_atoms) r)
      r.actual_atoms
      (sum (fun s -> s.est.Stats.est_links) r)
      r.actual_links;
  Fmt.pf ppf
    "actual: %d molecule(s), %d atoms visited, %d links traversed (%.2f ms)"
    r.rows r.actual_atoms r.actual_links r.duration_ms

let to_string r = Format.asprintf "%a" pp r

let to_json r =
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
  let scan_json s =
    Json.Obj
      [
        ("alpha", Json.Str s.alpha.name);
        ("est_roots", Json.Num s.est.Stats.est_roots);
        ("actual_roots", Json.Num (float_of_int s.roots));
        ("est_atoms", Json.Num s.est.Stats.est_atoms);
        ("est_links", Json.Num s.est.Stats.est_links);
        ("nodes", Json.List (List.map node_json s.nodes));
        ("ms", Json.Num s.ms);
      ]
  in
  Json.Obj
    [
      ( "plan",
        match r.plan with
        | Some p -> Json.Str (String.concat "\n" (Translate.lines p))
        | None -> Json.Null );
      ("scans", Json.List (List.map scan_json r.scans));
      ("rows", Json.Num (float_of_int r.rows));
      ("actual_atoms", Json.Num (float_of_int r.actual_atoms));
      ("actual_links", Json.Num (float_of_int r.actual_links));
      ("duration_ms", Json.Num r.duration_ms);
    ]
