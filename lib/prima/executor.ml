(** The molecule-processing component's executor: runs a {!Planner}
    plan against the atom-oriented interface and returns a molecule
    type.  The counters in {!Atom_interface} record the logical work;
    the Q2 ablation compares naive vs. optimized plans on them.

    Each plan stage (plan, scan, derive, filter, project) runs under
    its own timed span so a profile shows where a query's time went
    ({!Profile} reads the stage latencies back); all spans nest under
    one [prima.execute] root. *)

open Mad_store
module Obs = Mad_obs.Obs

type outcome = {
  mt : Mad.Molecule_type.t;
  counters : Atom_interface.counters;
  plan : Planner.plan;
  stats : Mad.Derive.stats;  (** the derivation work of this run *)
}

(* molecule restriction against a throw-away molecule type wrapper *)
let satisfies db desc m pred =
  let mt = Mad.Molecule_type.v ~name:"tmp" ~desc [] in
  Mad.Molecule_algebra.molecule_satisfies db mt m pred

let run ?(obs = Obs.noop) ?stats ?catalog ?(optimize = true) db
    (q : Planner.query) =
  Obs.timed obs "prima.execute" @@ fun () ->
  let stats =
    match stats with
    | Some s -> s
    | None -> Mad.Derive.stats_in (Obs.registry obs)
  in
  let plan =
    Obs.timed obs "prima.plan" (fun () ->
        let p = Planner.plan ~optimize q in
        (* the catalog-driven pass on top of the algebraic rewrites:
           residual conjunct ordering from (possibly learned) stats *)
        match catalog with
        | Some c when optimize -> Stats.replan c p
        | Some _ | None -> p)
  in
  let iface = Atom_interface.v db in
  let root_node = Mad.Mdesc.root q.Planner.desc in
  let roots =
    Obs.timed obs "prima.scan" @@ fun () ->
    Atom_interface.scan ?pred:plan.Planner.root_pred iface root_node
  in
  let a0 = Mad.Derive.atoms_visited stats
  and l0 = Mad.Derive.links_traversed stats in
  let derived =
    Obs.timed obs "prima.derive" @@ fun () ->
    Mad.Derive.derive_roots ~stats db plan.Planner.derive_desc
      (List.map (fun (a : Atom.t) -> a.id) roots)
  in
  iface.Atom_interface.c.Atom_interface.links_followed <-
    iface.Atom_interface.c.Atom_interface.links_followed
    + (Mad.Derive.links_traversed stats - l0);
  iface.Atom_interface.c.Atom_interface.fetches <-
    iface.Atom_interface.c.Atom_interface.fetches
    + (Mad.Derive.atoms_visited stats - a0);
  let filtered =
    match plan.Planner.residual with
    | None -> derived
    | Some pred ->
      Obs.timed obs "prima.filter" @@ fun () ->
      List.filter (fun m -> satisfies db plan.Planner.derive_desc m pred) derived
  in
  let mt =
    Mad.Molecule_type.v ~name:q.Planner.name ~desc:plan.Planner.derive_desc
      filtered
  in
  let mt =
    match q.Planner.select with
    | None -> mt
    | Some items ->
      Obs.timed obs "prima.project" @@ fun () ->
      (* keep only selected nodes that survive in the derive structure *)
      let keep =
        List.filter
          (fun (n, _) -> List.mem n (Mad.Mdesc.nodes plan.Planner.derive_desc))
          items
      in
      Mad.Molecule_algebra.project ~obs ~name:q.Planner.name db keep mt
  in
  { mt; counters = iface.Atom_interface.c; plan; stats }

(** Convenience wrapper: evaluate a molecule query naive vs. optimized
    and report both outcomes (the ablation harness). *)
let compare_plans db q =
  let naive = run ~optimize:false db q in
  let optimized = run ~optimize:true db q in
  (naive, optimized)

let explain ?(optimize = true) q =
  Format.asprintf "%a" Planner.pp (Planner.plan ~optimize q)
