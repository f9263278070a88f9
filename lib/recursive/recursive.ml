(** Recursive molecule types — the ch. 5 outlook of the paper,
    following Schöning's extension ([Schö89]): reflexive link types
    (and other schema cycles) are queried recursively, e.g. the parts
    explosion (sub-component view) or where-used (super-component view)
    of a bill-of-material.

    A recursive molecule-type description names a root atom type and a
    reflexive link type on it, a view (which role to expand: [Sub]
    follows the left-to-right role, [Super] the converse — the paper's
    "super-component view or only the sub-component view" exploiting
    link symmetry), and an optional depth bound.  Derivation computes,
    per root atom, the least fixpoint of one-step expansion; cycles in
    the *data* terminate because expansion is monotone over a finite
    atom set. *)

open Mad_store

type view = Sub | Super

type desc = {
  root_type : string;
  link : string;
  view : view;
  max_depth : int option;  (** [None]: unbounded (full closure) *)
  component : Mad.Mdesc.t option;
      (** Schöning's full recursive molecule types: a plain molecule
          structure rooted at [root_type] that every reached atom
          expands (e.g. each part of an explosion with its supplier
          sub-structure, each cell of a flattened design with its
          pins) *)
}

type molecule = {
  root : Aid.t;
  members : Aid.Set.t;  (** includes the root *)
  links : Link.Set.t;  (** the composition links traversed *)
  depth_of : int Aid.Map.t;  (** shortest expansion depth per member *)
  components : Mad.Molecule.t Aid.Map.t;
      (** per member, the component sub-molecule (empty without a
          component structure) *)
}

type t = { name : string; desc : desc; occ : molecule list }

let pp_view ppf = function
  | Sub -> Fmt.string ppf "SUB"
  | Super -> Fmt.string ppf "SUPER"

let pp_desc ppf d =
  Fmt.pf ppf "%s RECURSIVE BY %s %a%a%a" d.root_type d.link pp_view d.view
    Fmt.(option (fmt " DEPTH %d"))
    d.max_depth
    Fmt.(option (fun ppf c -> Fmt.pf ppf " WITH %a" Mad.Mdesc.pp c))
    d.component

(** Validate the description: the link type must be reflexive on the
    root atom type; a component structure must be rooted there and must
    not use the recursion link. *)
let v db ~root_type ~link ?(view = Sub) ?max_depth ?component () =
  let lt = Database.link_type db link in
  if not (Schema.Link_type.reflexive lt) then
    Err.failf "recursive molecules need a reflexive link type; %s is not"
      link;
  if not (String.equal (fst lt.ends) root_type) then
    Err.failf "link type %s is not defined on atom type %s" link root_type;
  (match max_depth with
   | Some d when d < 0 -> Err.failf "negative recursion depth %d" d
   | Some _ | None -> ());
  (match component with
   | None -> ()
   | Some c ->
     if not (String.equal (Mad.Mdesc.root c) root_type) then
       Err.failf "component structure must be rooted at %s, not %s" root_type
         (Mad.Mdesc.root c);
     if
       List.exists
         (fun (e : Mad.Mdesc.edge) -> String.equal e.link link)
         (Mad.Mdesc.edges c)
     then
       Err.failf "component structure may not reuse the recursion link %s"
         link);
  { root_type; link; view; max_depth; component }

let dir_of_view = function Sub -> `Fwd | Super -> `Bwd

(* Post-order of the CSR graph (children before parents), or [None]
   when a cycle (including a self-loop) makes one impossible.
   Iterative DFS — recursion depth would track the longest chain. *)
let topo_postorder (m : Mad_kernel.Snapshot.csr) n =
  let state = Bytes.make (max 1 n) '\000' in
  (* '\000' unvisited, '\001' on the DFS stack, '\002' finished *)
  let order = Array.make (max 1 n) 0 in
  let onum = ref 0 in
  let cyclic = ref false in
  let stack = ref [] in
  for s = 0 to n - 1 do
    if Bytes.get state s = '\000' && not !cyclic then begin
      Bytes.set state s '\001';
      stack := [ (s, m.Mad_kernel.Snapshot.offs.(s)) ];
      while !stack <> [] && not !cyclic do
        match !stack with
        | [] -> ()
        | (v, k) :: rest ->
          if k < m.Mad_kernel.Snapshot.offs.(v + 1) then begin
            stack := (v, k + 1) :: rest;
            let c = m.Mad_kernel.Snapshot.cols.(k) in
            match Bytes.get state c with
            | '\000' ->
              Bytes.set state c '\001';
              stack := (c, m.Mad_kernel.Snapshot.offs.(c)) :: !stack
            | '\001' -> cyclic := true
            | _ -> ()
          end
          else begin
            Bytes.set state v '\002';
            order.(!onum) <- v;
            incr onum;
            stack := rest
          end
      done
    end
  done;
  if !cyclic then None else Some order

(* Unbounded closures over a DAG compose: members(p) = {p} ∪ the
   members of p's partners, likewise the used links.  Computing them
   bottom-up shares the persistent sub-sets across every root — the
   per-root BFS then only supplies depths and the work counts, which
   are root-relative and cannot be shared. *)
let memo_closures snap (d : desc) =
  let ti = Mad_kernel.Snapshot.tindex snap d.root_type in
  let n = Mad_kernel.Snapshot.cardinal ti in
  let dir = match d.view with Sub -> `Fwd | Super -> `Bwd in
  let m = Mad_kernel.Snapshot.csr snap d.link ~dir in
  match topo_postorder m n with
  | None -> None
  | Some order ->
    let members = Array.make (max 1 n) Aid.Set.empty in
    let links = Array.make (max 1 n) Link.Set.empty in
    for k = 0 to n - 1 do
      let p = order.(k) in
      let p_raw = ti.Mad_kernel.Snapshot.ids.(p) in
      let mem = ref (Aid.Set.singleton p_raw) in
      let lnk = ref Link.Set.empty in
      for j = m.Mad_kernel.Snapshot.offs.(p)
          to m.Mad_kernel.Snapshot.offs.(p + 1) - 1 do
        let c = m.Mad_kernel.Snapshot.cols.(j) in
        let c_raw = ti.Mad_kernel.Snapshot.ids.(c) in
        let left, right =
          match d.view with Sub -> (p_raw, c_raw) | Super -> (c_raw, p_raw)
        in
        mem := Aid.Set.union !mem members.(c);
        lnk := Link.Set.add (Link.v d.link left right) (Link.Set.union !lnk links.(c))
      done;
      members.(p) <- !mem;
      links.(p) <- !lnk
    done;
    Some (ti, members, links)

(* The memo is pure given (database, epoch, link, view) — exactly the
   snapshot-cache discipline, so it gets the same small keyed cache:
   repeated derivations of one recursive type between mutations reuse
   the shared sets outright.  A [None] value records a cyclic verdict,
   sparing the re-probe. *)
type memo_entry = {
  me_db : Database.t;
  me_epoch : int;
  me_link : string;
  me_view : view;
  me_val :
    (Mad_kernel.Snapshot.tindex * Aid.Set.t array * Link.Set.t array) option;
}

let memo_cache : memo_entry list ref = ref []
let memo_cache_cap = 8

let repair_counter =
  Mad_obs.Once.make (fun () ->
      Mad_obs.Registry.counter
        (Mad_obs.Obs.registry (Mad_obs.Obs.default ()))
        "closure.repaired")

(* Repair the prior memo entry across a delta window instead of
   recomputing it, at one of three levels:
   - the window touches neither the link type nor the root type's atom
     population: the memo (including a cyclic [None] verdict) is
     re-stamped at the new epoch wholesale;
   - the link changed but the root population did not: dense indices
     are stable, so only the patched parents and their ancestors can
     have different reachable sets — they are recomputed over the new
     CSR in a fresh postorder, every clean node reuses the prior sets;
   - anything else (root population changed, prior verdict cyclic, the
     arrays do not line up): no repair, caller recomputes.
   Returns [Some v] with the repaired value ([Some None] when the new
   graph turned cyclic), [None] when the caller must recompute. *)
let repair_closures snap (d : desc) w (prior : memo_entry) =
  let link_touched = Mad_kernel.Delta.touches_link w d.link in
  let roots_touched = Mad_kernel.Delta.touches_atype w d.root_type in
  if (not link_touched) && not roots_touched then begin
    (* nothing structural moved under this closure: re-stamp *)
    let n =
      match prior.me_val with
      | Some (_, members, _) -> Array.length members
      | None -> 0
    in
    Mad_obs.Metric.incr (Mad_obs.Once.force repair_counter);
    Mad_obs.Recorder.note Closure_repair ~label:d.link ~a:0 ~b:n ();
    Some prior.me_val
  end
  else
    match prior.me_val with
    | None -> None  (* the cycle may have been broken: recompute *)
    | Some _ when roots_touched -> None
    | Some (_, mem_old, lnk_old) ->
      let t0 = Mad_obs.Monotonic.ticks () in
      let ti = Mad_kernel.Snapshot.tindex snap d.root_type in
      let n = Mad_kernel.Snapshot.cardinal ti in
      if Array.length mem_old <> max 1 n then None
      else begin
        let dir = match d.view with Sub -> `Fwd | Super -> `Bwd in
        let m = Mad_kernel.Snapshot.csr snap d.link ~dir in
        match topo_postorder m n with
        | None ->
          (* the window introduced a cycle: the verdict is the repair *)
          Mad_obs.Metric.incr (Mad_obs.Once.force repair_counter);
          Mad_obs.Recorder.note Closure_repair
            ~dur_ns:(Mad_obs.Monotonic.ticks () - t0)
            ~label:d.link ~a:n ~b:n ();
          Some None
        | Some order ->
          let members = Array.copy mem_old in
          let links = Array.copy lnk_old in
          let dirty = Bytes.make (max 1 n) '\000' in
          List.iter
            (fun ((left, right), _add) ->
              (* the parent side of the patched pair is the CSR row
                 whose reachable set the patch can change *)
              let parent = match d.view with Sub -> left | Super -> right in
              let p = Mad_kernel.Snapshot.idx_of ti parent in
              if p >= 0 then Bytes.set dirty p '\001')
            (Mad_kernel.Delta.link_patches w d.link);
          let n_dirty = ref 0 in
          for k = 0 to n - 1 do
            let p = order.(k) in
            let isd = ref (Bytes.get dirty p = '\001') in
            let j = ref m.Mad_kernel.Snapshot.offs.(p) in
            while (not !isd) && !j < m.Mad_kernel.Snapshot.offs.(p + 1) do
              if Bytes.get dirty m.Mad_kernel.Snapshot.cols.(!j) = '\001' then
                isd := true;
              incr j
            done;
            if !isd then begin
              (* children precede parents in the postorder, so every
                 child entry read here is already repaired *)
              Bytes.set dirty p '\001';
              incr n_dirty;
              let p_raw = ti.Mad_kernel.Snapshot.ids.(p) in
              let mem = ref (Aid.Set.singleton p_raw) in
              let lnk = ref Link.Set.empty in
              for j = m.Mad_kernel.Snapshot.offs.(p)
                  to m.Mad_kernel.Snapshot.offs.(p + 1) - 1 do
                let c = m.Mad_kernel.Snapshot.cols.(j) in
                let c_raw = ti.Mad_kernel.Snapshot.ids.(c) in
                let left, right =
                  match d.view with
                  | Sub -> (p_raw, c_raw)
                  | Super -> (c_raw, p_raw)
                in
                mem := Aid.Set.union !mem members.(c);
                lnk :=
                  Link.Set.add (Link.v d.link left right)
                    (Link.Set.union !lnk links.(c))
              done;
              members.(p) <- !mem;
              links.(p) <- !lnk
            end
          done;
          Mad_obs.Metric.incr (Mad_obs.Once.force repair_counter);
          Mad_obs.Recorder.note Closure_repair
            ~dur_ns:(Mad_obs.Monotonic.ticks () - t0)
            ~label:d.link ~a:!n_dirty ~b:n ();
          Some (Some (ti, members, links))
      end

let memo_hit db ep (d : desc) e =
  e.me_db == db && e.me_epoch = ep
  && String.equal e.me_link d.link
  && e.me_view = d.view

(* probe only — a single-root derivation is not worth building the
   whole-graph memo, but reuses one a prior [m_dom] left behind *)
let memo_probe snap db (d : desc) =
  match d.max_depth with
  | Some _ -> None
  | None -> begin
    let ep = Mad_kernel.Snapshot.epoch snap in
    match List.find_opt (memo_hit db ep d) !memo_cache with
    | Some { me_val = Some v; _ } -> Some v
    | Some { me_val = None; _ } | None -> None
  end

let memo_closures_cached snap db (d : desc) =
  let ep = Mad_kernel.Snapshot.epoch snap in
  match List.find_opt (memo_hit db ep d) !memo_cache with
  | Some e -> e.me_val
  | None ->
    (* a stale same-key entry is the repair source, not garbage: try
       to carry it across the mutation window before recomputing *)
    let same_key e =
      e.me_db == db && String.equal e.me_link d.link && e.me_view = d.view
    in
    let repaired =
      match List.find_opt same_key !memo_cache with
      | None -> None
      | Some prior -> begin
        match
          Mad_kernel.Delta.window db ~from_epoch:prior.me_epoch ~to_epoch:ep
        with
        | None -> None
        | Some w -> repair_closures snap d w prior
      end
    in
    let v = match repaired with Some v -> v | None -> memo_closures snap d in
    let keep = List.filter (fun e -> not (same_key e)) !memo_cache in
    let keep = List.filteri (fun i _ -> i < memo_cache_cap - 1) keep in
    memo_cache :=
      { me_db = db; me_epoch = ep; me_link = d.link; me_view = d.view; me_val = v }
      :: keep;
    v

let depth_map (cl : Mad_kernel.Kernel.closure) =
  let depth_of = ref Aid.Map.empty in
  Array.iteri
    (fun i id -> depth_of := Aid.Map.add id cl.c_depths.(i) !depth_of)
    cl.c_atoms;
  !depth_of

(* Lift a kernel closure into the molecule's sets; work accounting
   matches the scalar loop below exactly.  [of_list] builds (sort +
   linear construction) beat element-wise [add] here, and at this
   point the closure output is complete, so batch construction is
   available. *)
let convert_closure ~stats (d : desc) (cl : Mad_kernel.Kernel.closure) =
  Mad_obs.Metric.add stats.Mad.Derive.atoms_visited cl.c_visited;
  Mad_obs.Metric.add stats.Mad.Derive.links_traversed cl.c_traversed;
  let members = Aid.Set.of_list (Array.to_list cl.c_atoms) in
  let links =
    Link.Set.of_list
      (List.rev_map
         (fun (p, c) ->
           let left, right = match d.view with Sub -> (p, c) | Super -> (c, p) in
           Link.v d.link left right)
         cl.c_pairs)
  in
  (members, links, depth_map cl)

(* the fixpoint as the kernel's BFS closure over the CSR snapshot *)
let closure_kernel ~stats db (d : desc) root =
  let snap = Mad_kernel.Snapshot.of_db db in
  let fwd = match d.view with Sub -> true | Super -> false in
  match memo_probe snap db d with
  | Some (ti, members, links) ->
    let cl =
      Mad_kernel.Kernel.closure ~with_pairs:false snap ~link:d.link ~fwd
        ~atype:d.root_type root
    in
    Mad_obs.Metric.add stats.Mad.Derive.atoms_visited cl.c_visited;
    Mad_obs.Metric.add stats.Mad.Derive.links_traversed cl.c_traversed;
    let ri = Mad_kernel.Snapshot.idx_of ti root in
    (members.(ri), links.(ri), depth_map cl)
  | None ->
    let cl =
      Mad_kernel.Kernel.closure ?max_depth:d.max_depth snap ~link:d.link ~fwd
        ~atype:d.root_type root
    in
    convert_closure ~stats d cl

(** Derive the recursive molecule rooted at [root].  [~kernel] forces
    the path; the default uses the kernel only when a snapshot is warm
    ({!m_dom} builds one up front). *)
(* components (if any) and the molecule record, shared by every path *)
let finish ~stats db (d : desc) root (members, links, depth_of) =
  let components =
    match d.component with
    | None -> Aid.Map.empty
    | Some cdesc ->
      Aid.Set.fold
        (fun member acc ->
          Aid.Map.add member (Mad.Derive.derive_one ~stats db cdesc member) acc)
        members Aid.Map.empty
  in
  { root; members; links; depth_of; components }

let derive_one ?(stats = Mad.Derive.stats ()) ?kernel db (d : desc) root =
  let dir = dir_of_view d.view in
  let within depth =
    match d.max_depth with None -> true | Some k -> depth <= k
  in
  let rec go members links depth_of frontier depth =
    if Aid.Set.is_empty frontier || not (within depth) then
      (members, links, depth_of)
    else
      let next, links =
        Aid.Set.fold
          (fun p (next, links) ->
            let next = ref next and links = ref links and seen = ref 0 in
            Database.iter_neighbors db d.link ~dir p (fun c ->
                incr seen;
                let left, right =
                  match d.view with Sub -> (p, c) | Super -> (c, p)
                in
                links := Link.Set.add (Link.v d.link left right) !links;
                next := Aid.Set.add c !next);
            Mad_obs.Metric.add stats.Mad.Derive.links_traversed !seen;
            (!next, !links))
          frontier (Aid.Set.empty, links)
      in
      let fresh = Aid.Set.diff next members in
      Mad_obs.Metric.add stats.Mad.Derive.atoms_visited
        (Aid.Set.cardinal fresh);
      let depth_of =
        Aid.Set.fold (fun id m -> Aid.Map.add id depth m) fresh depth_of
      in
      go (Aid.Set.union members fresh) links depth_of fresh (depth + 1)
  in
  let use =
    match kernel with
    | Some b -> b
    | None -> (
      match Mad_kernel.Snapshot.peek db with Some _ -> true | None -> false)
  in
  let members, links, depth_of =
    if use then closure_kernel ~stats db d root
    else begin
      Mad_obs.Metric.incr stats.Mad.Derive.atoms_visited;
      go (Aid.Set.singleton root) Link.Set.empty
        (Aid.Map.singleton root 0)
        (Aid.Set.singleton root) 1
    end
  in
  finish ~stats db d root (members, links, depth_of)

(** One recursive molecule per atom of the root type.  The kernel path
    runs every root's closure over one CSR snapshot with shared
    scratch buffers ({!Mad_kernel.Kernel.closure_roots}); unbounded
    closures over acyclic link graphs additionally share the member
    and link sets bottom-up ({!memo_closures}). *)
let m_dom ?(stats = Mad.Derive.stats ()) ?(kernel = true) ?roots db (d : desc) =
  let roots =
    match roots with
    | Some roots -> roots
    | None ->
      List.map (fun (a : Atom.t) -> a.Atom.id) (Database.atoms db d.root_type)
  in
  if not kernel then List.map (derive_one ~stats ~kernel:false db d) roots
  else
    let snap = Mad_kernel.Snapshot.of_db db in
    let fwd = match d.view with Sub -> true | Super -> false in
    let roots = Array.of_list roots in
    let memo =
      match d.max_depth with
      | None -> memo_closures_cached snap db d
      | Some _ -> None
    in
    match memo with
    | Some (ti, members, links) ->
      let cls =
        Mad_kernel.Kernel.closure_roots ~with_pairs:false snap ~link:d.link
          ~fwd ~atype:d.root_type roots
      in
      List.init (Array.length roots) (fun i ->
          let cl = cls.(i) in
          Mad_obs.Metric.add stats.Mad.Derive.atoms_visited cl.c_visited;
          Mad_obs.Metric.add stats.Mad.Derive.links_traversed cl.c_traversed;
          let ri = Mad_kernel.Snapshot.idx_of ti roots.(i) in
          finish ~stats db d roots.(i)
            (members.(ri), links.(ri), depth_map cl))
    | None ->
      let cls =
        Mad_kernel.Kernel.closure_roots ?max_depth:d.max_depth snap
          ~link:d.link ~fwd ~atype:d.root_type roots
      in
      List.init (Array.length roots) (fun i ->
          finish ~stats db d roots.(i) (convert_closure ~stats d cls.(i)))

let define ?stats ?kernel ?roots db ~name (d : desc) =
  { name; desc = d; occ = m_dom ?stats ?kernel ?roots db d }

(* ------------------------------------------------------------------ *)
(* Restriction over recursive molecules                                 *)

(** A pseudo-node ["DEPTH"] is available in qualifications: the
    expansion depth of a member atom.  With a component structure, its
    non-root nodes are also addressable (the union of every member's
    component atoms). *)
let molecule_satisfies db (t : t) (m : molecule) pred =
  let component node =
    if String.equal node t.desc.root_type then Aid.Set.elements m.members
    else
      match t.desc.component with
      | Some cdesc when List.mem node (Mad.Mdesc.nodes cdesc) ->
        Aid.Map.fold
          (fun _ sub acc ->
            Aid.Set.elements (Mad.Molecule.component sub node) @ acc)
          m.components []
        |> List.sort_uniq Aid.compare
      | Some _ | None -> []
  in
  let fetch node id attr =
    if String.equal attr "DEPTH" then
      Value.Int (Option.value ~default:0 (Aid.Map.find_opt id m.depth_of))
    else
      let at = Database.atom_type db node in
      Atom.value (Database.get_atom db ~atype:node id) at attr
  in
  Mad.Qual.eval_molecule ~component ~fetch ~root_node:t.desc.root_type
    ~root_atom:m.root pred

let restrict db pred (t : t) ~name =
  { name; desc = t.desc; occ = List.filter (fun m -> molecule_satisfies db t m pred) t.occ }

(* ------------------------------------------------------------------ *)
(* Set operations: recursive molecule types are first-class data model
   objects ([Schö89]), so the set operators extend to them.            *)

let compare_molecule (a : molecule) (b : molecule) =
  let c = Aid.compare a.root b.root in
  if c <> 0 then c
  else
    let c = Aid.Set.compare a.members b.members in
    if c <> 0 then c else Link.Set.compare a.links b.links

let equal_molecule a b = compare_molecule a b = 0

let same_desc (a : desc) (b : desc) =
  String.equal a.root_type b.root_type
  && String.equal a.link b.link
  && a.view = b.view
  && a.max_depth = b.max_depth
  && (match (a.component, b.component) with
     | None, None -> true
     | Some x, Some y -> Mad.Mdesc.equal x y
     | Some _, None | None, Some _ -> false)

let check_compatible op (a : t) (b : t) =
  if not (same_desc a.desc b.desc) then
    Err.failf "%s requires identically described recursive molecule types" op

let dedup occ =
  List.sort_uniq compare_molecule occ

let union ~name (a : t) (b : t) =
  check_compatible "union" a b;
  { name; desc = a.desc; occ = dedup (a.occ @ b.occ) }

let diff ~name (a : t) (b : t) =
  check_compatible "difference" a b;
  {
    name;
    desc = a.desc;
    occ = List.filter (fun m -> not (List.exists (equal_molecule m) b.occ)) a.occ;
  }

let intersect ~name (a : t) (b : t) =
  check_compatible "intersection" a b;
  { name; desc = a.desc; occ = List.filter (fun m -> List.exists (equal_molecule m) b.occ) a.occ }

(* ------------------------------------------------------------------ *)
(* Cycle recursion: "the MAD model allows for reflexive link types and
   for other cycles in the database schema ... These cycles are
   normally queried in a recursive manner" (ch. 5).  A cycle is a
   composition of link-type steps leading from the root atom type back
   to itself (e.g. VLSI connectivity: cell -cell-pin-> pin <-net-pin-
   net -net-pin-> pin <-cell-pin- cell); derivation iterates the whole
   cycle as one macro-step to a fixpoint.                              *)

module Smap = Map.Make (String)

type step = { s_link : string; s_dir : [ `Fwd | `Bwd ] }

type cycle_desc = {
  c_root : string;
  steps : step list;
  c_max_depth : int option;  (** macro-steps; [None]: full closure *)
}

type cycle_molecule = {
  c_root_atom : Aid.t;
  c_members : Aid.Set.t;  (** root-type atoms reached (incl. the root) *)
  c_intermediates : Aid.Set.t Smap.t;  (** per intermediate atom type *)
  c_depth_of : int Aid.Map.t;
}

(** Validate a cycle: the steps' end types must compose from
    [root_type] back to [root_type]. *)
let cycle db ~root_type ~steps ?max_depth () =
  ignore (Database.atom_type db root_type);
  if steps = [] then Err.failf "a cycle needs at least one step";
  let final =
    List.fold_left
      (fun current (link, dir) ->
        let lt = Database.link_type db link in
        let e1, e2 = lt.Schema.Link_type.ends in
        match dir with
        | `Fwd ->
          if not (String.equal e1 current) then
            Err.failf
              "cycle step %s: expected to start at %s, link starts at %s"
              link current e1
          else e2
        | `Bwd ->
          if not (String.equal e2 current) then
            Err.failf
              "cycle step %s (backward): expected to start at %s, link ends \
               at %s"
              link current e2
          else e1)
      root_type steps
  in
  if not (String.equal final root_type) then
    Err.failf "cycle does not return to %s (ends at %s)" root_type final;
  (match max_depth with
   | Some d when d < 0 -> Err.failf "negative recursion depth %d" d
   | Some _ | None -> ());
  {
    c_root = root_type;
    steps = List.map (fun (s_link, s_dir) -> { s_link; s_dir }) steps;
    c_max_depth = max_depth;
  }

(* one macro-step: apply every step in sequence, collecting the
   intermediate atoms per type *)
let macro_step db (d : cycle_desc) frontier intermediates =
  let current, intermediates =
    List.fold_left
      (fun (current, inter) step ->
        let next =
          let dir = (step.s_dir :> [ `Fwd | `Bwd | `Both ]) in
          Aid.Set.fold
            (fun id acc ->
              let acc = ref acc in
              Database.iter_neighbors db step.s_link ~dir id (fun n ->
                  acc := Aid.Set.add n !acc);
              !acc)
            current Aid.Set.empty
        in
        let lt = Database.link_type db step.s_link in
        let target =
          match step.s_dir with
          | `Fwd -> snd lt.Schema.Link_type.ends
          | `Bwd -> fst lt.Schema.Link_type.ends
        in
        let inter =
          if String.equal target d.c_root then inter
          else
            Smap.update target
              (fun cur ->
                Some (Aid.Set.union next (Option.value ~default:Aid.Set.empty cur)))
              inter
        in
        (next, inter))
      (frontier, intermediates) d.steps
  in
  (current, intermediates)

(** Derive the cycle closure rooted at [root]. *)
let derive_cycle db (d : cycle_desc) root =
  let within depth =
    match d.c_max_depth with None -> true | Some k -> depth <= k
  in
  let rec go members intermediates depth_of frontier depth =
    if Aid.Set.is_empty frontier || not (within depth) then
      (members, intermediates, depth_of)
    else
      let next, intermediates = macro_step db d frontier intermediates in
      let fresh = Aid.Set.diff next members in
      let depth_of =
        Aid.Set.fold (fun id m -> Aid.Map.add id depth m) fresh depth_of
      in
      go (Aid.Set.union members fresh) intermediates depth_of fresh (depth + 1)
  in
  let members, intermediates, depth_of =
    go (Aid.Set.singleton root) Smap.empty
      (Aid.Map.singleton root 0)
      (Aid.Set.singleton root) 1
  in
  {
    c_root_atom = root;
    c_members = members;
    c_intermediates = intermediates;
    c_depth_of = depth_of;
  }

let cycle_m_dom ?roots db (d : cycle_desc) =
  let roots =
    match roots with
    | Some roots -> roots
    | None ->
      List.map (fun (a : Atom.t) -> a.Atom.id) (Database.atoms db d.c_root)
  in
  List.map (derive_cycle db d) roots

type cycle_t = {
  cname : string;
  cdesc : cycle_desc;
  cocc : cycle_molecule list;
}

let cycle_define ?roots db ~name (d : cycle_desc) =
  { cname = name; cdesc = d; cocc = cycle_m_dom ?roots db d }

let pp_cycle_desc ppf (d : cycle_desc) =
  Fmt.pf ppf "%s RECURSIVE BY (%a)%a" d.c_root
    Fmt.(
      list ~sep:(any ", ") (fun ppf (s : step) ->
          Fmt.pf ppf "%s%s" (match s.s_dir with `Bwd -> "~" | `Fwd -> "") s.s_link))
    d.steps
    Fmt.(option (fmt " DEPTH %d"))
    d.c_max_depth

(** Qualification over a cycle molecule: the root type's node ranges
    over the members (with the [DEPTH] pseudo-attribute), intermediate
    atom types over the atoms passed through. *)
let cycle_satisfies db (t : cycle_t) (m : cycle_molecule) pred =
  let component node =
    if String.equal node t.cdesc.c_root then Aid.Set.elements m.c_members
    else
      Aid.Set.elements
        (Option.value ~default:Aid.Set.empty (Smap.find_opt node m.c_intermediates))
  in
  let fetch node id attr =
    if String.equal attr "DEPTH" then
      Value.Int (Option.value ~default:0 (Aid.Map.find_opt id m.c_depth_of))
    else
      let at = Database.atom_type db node in
      Atom.value (Database.get_atom db ~atype:node id) at attr
  in
  Mad.Qual.eval_molecule ~component ~fetch ~root_node:t.cdesc.c_root
    ~root_atom:m.c_root_atom pred

let cycle_restrict db pred (t : cycle_t) ~name =
  { t with cname = name; cocc = List.filter (fun m -> cycle_satisfies db t m pred) t.cocc }

(* ------------------------------------------------------------------ *)
(* Rendering: indented explosion with cycle/again marks                 *)

(** An explosion tree.  Atoms already printed on the current path are
    marked [cycle], atoms printed elsewhere [shared, see above]. *)
let walker ?limit db b (t : t) =
  let node = t.desc.root_type and dir = dir_of_view t.desc.view in
  let attrs = Mad.Render.label_attrs db node in
  let part n = if n = node then None else Some ("| " ^ n ^ " ", n, Mad.Render.label_attrs db n) in
  let parts = List.filter_map part (Option.fold ~none:[] ~some:Mad.Mdesc.nodes t.desc.component) in
  fun (m : molecule) ->
    let printed = Hashtbl.create 16 in
    let rec walk depth path id =
      Mad.Render.check ?limit b;
      Mad.Render.add_line b db ~depth "" node attrs id;
      if Aid.Set.mem id path then Buffer.add_string b " (cycle)\n"
      else if Hashtbl.mem printed id then Buffer.add_string b " (shared, see above)\n"
      else begin
        Hashtbl.replace printed id ();
        Buffer.add_char b '\n';
        Option.iter (fun sub ->
            List.iter (fun (head, n, attrs) ->
                Aid.Set.iter (fun cid -> Mad.Render.add_line b db ~depth head n attrs cid; Buffer.add_char b '\n')
                  (Mad.Molecule.component sub n))
              parts)
          (Aid.Map.find_opt id m.components);
        Database.iter_neighbors db t.desc.link ~dir id (fun c ->
            if Aid.Set.mem c m.members then walk (depth + 1) (Aid.Set.add id path) c)
      end
    in
    walk 0 Aid.Set.empty m.root

let add ?limit db b (t : t) =
  Format.kasprintf (Buffer.add_string b) "recursive molecule type %s: %a (%d molecules)@." t.name
    pp_desc t.desc (List.length t.occ);
  let walk = walker ?limit db b t in
  List.iter (fun m -> walk m; Buffer.add_char b '\n') t.occ

let add_cycles ?limit db b (t : cycle_t) =
  Format.kasprintf (Buffer.add_string b) "cycle molecule type %s: %a (%d molecules)@." t.cname
    pp_cycle_desc t.cdesc (List.length t.cocc);
  let node = t.cdesc.c_root in
  let attrs = Mad.Render.label_attrs db node in
  let label head id = Mad.Render.add_line b db ~depth:0 head node attrs id in
  List.iter
    (fun (m : cycle_molecule) ->
      label "" m.c_root_atom;
      Buffer.add_string b ": {";
      List.iteri (fun i -> label (if i = 0 then "" else ", ")) (Aid.Set.elements m.c_members);
      Buffer.add_string b "}\n";
      Mad.Render.check ?limit b)
    t.cocc

let pp_molecule db t ppf m = Fmt.string ppf (Mad.Render.to_string (fun b -> walker db b t m))
let pp ppf (db, t) = Fmt.string ppf (Mad.Render.to_string (fun b -> add db b t))
let pp_cycle ppf (db, t) = Fmt.string ppf (Mad.Render.to_string (fun b -> add_cycles db b t))
