(** Molecule derivation — the function [m_dom] of Def. 6, implemented
    as the paper's operational reading: the molecule structure is laid
    over the atom networks as a template; for each atom of the root
    atom type one molecule is derived by hierarchical join along the
    specified branches, children before grandchildren, until the leaves
    are reached.

    A node with several incoming edges (a diamond in the type DAG)
    includes an atom only if *every* incoming edge supplies a linked,
    already-contained parent — the conjunctive reading of Def. 6's
    [contained].

    Two implementations produce identical molecules and identical work
    accounting:

    - the {e scalar} path walks the store's adjacency index with
      [Aid.Set] per node — always available, no preparation;
    - the {e kernel} path ({!Mad_kernel}) lowers the description to a
      plan over a CSR snapshot of the database and evaluates it with
      bitsets, one root after another.

    Selection: bulk derivations ([m_dom], [derive_roots]) use the
    kernel; a one-shot [derive_one] uses it only when a snapshot is
    already warm at the database's current epoch (building one for a
    single molecule would cost more than it saves).  The [?kernel]
    argument overrides either way; the scalar path is the parity
    oracle the tests run against the kernel.

    The [stats] handle counts the work done (atoms visited, links
    traversed); it is a thin shim over {!Mad_obs} counters, so the same
    numbers feed the PRIMA engine, the benchmarks, and — when the
    handle is registry-backed ({!stats_in}) — the per-structure-node
    accounting that EXPLAIN ANALYZE compares against the planner's
    estimates. *)

open Mad_store
module Smap = Map.Make (String)

type stats = {
  atoms_visited : Mad_obs.Metric.counter;
  links_traversed : Mad_obs.Metric.counter;
  registry : Mad_obs.Registry.t option;
      (** when present, derivation also accounts atoms/links per
          structure node under ["derive.atoms"]/["derive.links"] with a
          [node] label, and kernel runs under ["kernel.*"] *)
}

let stats () =
  {
    atoms_visited = Mad_obs.Metric.counter "derive.atoms_visited";
    links_traversed = Mad_obs.Metric.counter "derive.links_traversed";
    registry = None;
  }

(** A stats handle whose counters live in (and whose per-node
    accounting goes to) the given registry. *)
let stats_in reg =
  {
    atoms_visited = Mad_obs.Registry.counter reg "derive.atoms_visited";
    links_traversed = Mad_obs.Registry.counter reg "derive.links_traversed";
    registry = Some reg;
  }

let atoms_visited s = Mad_obs.Metric.value s.atoms_visited
let links_traversed s = Mad_obs.Metric.value s.links_traversed

let node_counter s metric node =
  match s.registry with
  | None -> None
  | Some reg ->
    Some (Mad_obs.Registry.counter ~labels:[ ("node", node) ] reg metric)

let opt_add c n = match c with None -> () | Some c -> Mad_obs.Metric.add c n

(* ------------------------------------------------------------------ *)
(* Scalar path                                                          *)

(** Derive the molecule rooted at [root_atom] (an atom of the
    description's root type) by walking the adjacency index. *)
let derive_one_scalar ?(stats = stats ()) db desc root_atom =
  let order = Mdesc.topo_order desc in
  let by_node = ref (Smap.singleton (Mdesc.root desc) (Aid.Set.singleton root_atom)) in
  let links = ref Link.Set.empty in
  Mad_obs.Metric.incr stats.atoms_visited;
  opt_add (node_counter stats "derive.atoms" (Mdesc.root desc)) 1;
  List.iter
    (fun node ->
      if not (String.equal node (Mdesc.root desc)) then begin
        let ins = Mdesc.in_edges desc node in
        let node_links = node_counter stats "derive.links" node in
        (* candidate set per incoming edge, remembering each parent's
           partner row so the link recording below reuses it instead of
           re-querying the adjacency index *)
        let reach (e : Mdesc.edge) =
          let parents =
            Option.value ~default:Aid.Set.empty (Smap.find_opt e.from_at !by_node)
          in
          Aid.Set.fold
            (fun p (acc, rows) ->
              let partners =
                Database.neighbors db e.link
                  ~dir:(match e.dir with `Fwd -> `Fwd | `Bwd -> `Bwd)
                  p
              in
              let k = Aid.Set.cardinal partners in
              Mad_obs.Metric.add stats.links_traversed k;
              opt_add node_links k;
              (Aid.Set.union partners acc, (p, partners) :: rows))
            parents (Aid.Set.empty, [])
        in
        let reached = List.map (fun e -> (e, reach e)) ins in
        (* conjunction over the incoming edges *)
        let included =
          match reached with
          | [] -> Aid.Set.empty (* unreachable on a coherent single-root DAG *)
          | (_, (first, _)) :: rest ->
            List.fold_left
              (fun acc (_, (s, _)) -> Aid.Set.inter acc s)
              first rest
        in
        let n_included = Aid.Set.cardinal included in
        Mad_obs.Metric.add stats.atoms_visited n_included;
        opt_add (node_counter stats "derive.atoms" node) n_included;
        by_node := Smap.add node included !by_node;
        (* record the links actually used, in role orientation, from
           the rows gathered above *)
        List.iter
          (fun ((e : Mdesc.edge), (_, rows)) ->
            List.iter
              (fun (p, partners) ->
                Aid.Set.iter
                  (fun c ->
                    if Aid.Set.mem c included then
                      let left, right =
                        match e.dir with `Fwd -> (p, c) | `Bwd -> (c, p)
                      in
                      links := Link.Set.add (Link.v e.link left right) !links)
                  partners)
              rows)
          reached
      end)
    order;
  Molecule.v ~root:root_atom ~by_node:!by_node ~links:!links

let m_dom_scalar ?stats db desc =
  Database.atoms db (Mdesc.root desc)
  |> List.map (fun (a : Atom.t) -> derive_one_scalar ?stats db desc a.id)

(* ------------------------------------------------------------------ *)
(* Kernel path                                                          *)

(* lower a description to the kernel's dense plan (topo order, root
   node 0, in-edges by source node index) *)
let compile desc =
  let order = Mdesc.topo_order desc in
  let index_of =
    let tbl = List.mapi (fun i n -> (n, i)) order in
    fun n -> List.assoc n tbl
  in
  {
    Mad_kernel.Kernel.p_nodes =
      Array.of_list
        (List.map
           (fun node ->
             {
               Mad_kernel.Kernel.n_type = node;
               n_ins =
                 Array.of_list
                   (List.map
                      (fun (e : Mdesc.edge) ->
                        {
                          Mad_kernel.Kernel.e_link = e.link;
                          e_from = index_of e.from_at;
                          e_fwd = (match e.dir with `Fwd -> true | `Bwd -> false);
                        })
                      (Mdesc.in_edges desc node));
             })
           order);
  }

let molecule_of_mol order (m : Mad_kernel.Kernel.mol) =
  let by_node, _ =
    List.fold_left
      (fun (acc, j) node ->
        (Smap.add node (Aid.Set.of_list (Array.to_list m.m_atoms.(j))) acc, j + 1))
      (Smap.empty, 0) order
  in
  let links =
    List.fold_left
      (fun s (lt, l, r) -> Link.Set.add (Link.v lt l r) s)
      Link.Set.empty m.m_links
  in
  Molecule.v ~root:m.m_root ~by_node ~links

(* the kernel accounts per-node work into plain arrays; flush them
   into the stats counters here *)
let flush_kernel_stats stats order (st : Mad_kernel.Kernel.node_stats) =
  Mad_obs.Metric.add stats.atoms_visited (Array.fold_left ( + ) 0 st.st_atoms);
  Mad_obs.Metric.add stats.links_traversed (Array.fold_left ( + ) 0 st.st_links);
  match stats.registry with
  | None -> ()
  | Some _ ->
    List.iteri
      (fun j node ->
        opt_add (node_counter stats "derive.atoms" node) st.st_atoms.(j);
        if j > 0 then
          opt_add (node_counter stats "derive.links" node) st.st_links.(j))
      order

let account_kernel stats n_roots =
  match stats.registry with
  | None -> ()
  | Some reg ->
    Mad_obs.Metric.incr (Mad_obs.Registry.counter reg "kernel.runs");
    Mad_obs.Metric.add (Mad_obs.Registry.counter reg "kernel.roots") n_roots

let derive_roots_kernel ?(stats = stats ()) db desc roots =
  let snap = Mad_kernel.Snapshot.of_db db in
  let order = Mdesc.topo_order desc in
  let mols, kst =
    Mad_kernel.Kernel.run_roots snap (compile desc) (Array.of_list roots)
  in
  flush_kernel_stats stats order kst;
  account_kernel stats (List.length roots);
  Array.to_list (Array.map (molecule_of_mol order) mols)

(* ------------------------------------------------------------------ *)
(* Selection                                                            *)

let snapshot_warm db =
  match Mad_kernel.Snapshot.peek db with Some _ -> true | None -> false

(** Derive molecules for an explicit list of root atoms, kernel by
    default. *)
let derive_roots ?stats ?(kernel = true) db desc roots =
  if kernel then derive_roots_kernel ?stats db desc roots
  else List.map (derive_one_scalar ?stats db desc) roots

(** Derive the molecule rooted at [root_atom].  One-shot: the kernel is
    used only when already warm (or forced). *)
let derive_one ?stats ?kernel db desc root_atom =
  let use = match kernel with Some b -> b | None -> snapshot_warm db in
  if use then
    match derive_roots_kernel ?stats db desc [ root_atom ] with
    | [ m ] -> m
    | _ -> assert false
  else derive_one_scalar ?stats db desc root_atom

(** The full molecule-type occurrence: one molecule per root-type atom,
    in deterministic (id) order. *)
let m_dom ?stats ?kernel db desc =
  let roots =
    Database.atoms db (Mdesc.root desc) |> List.map (fun (a : Atom.t) -> a.id)
  in
  derive_roots ?stats ?kernel db desc roots

(** Human-readable account of the path [m_dom] would take on this
    database right now (EXPLAIN ANALYZE reports it). *)
let describe_path db =
  Printf.sprintf "kernel (epoch=%d, snapshot=%s)" (Database.epoch db)
    (if snapshot_warm db then "warm" else "cold")
