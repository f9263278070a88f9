(** The database: a set of atom types plus a set of link types (Def. 3),
    whose occurrences form the atom networks.

    The store is mutable (atom-type operations, molecule products and
    Def. 9 propagation *enlarge* the database, cf. Theorem 1) and
    maintains, per link type, a bidirectional adjacency index.  That index is the operational
    realisation of the paper's symmetric link concept: traversing a link
    type from either end costs the same, which is what makes the same
    atom networks usable for totally different molecule types (Fig. 2). *)

module Pair = struct
  type t = Aid.t * Aid.t

  let compare (a1, b1) (a2, b2) =
    let c = Aid.compare a1 a2 in
    if c <> 0 then c else Aid.compare b1 b2
end

module Pair_set = Set.Make (Pair)

type atom_table = {
  at : Schema.Atom_type.t;
  atoms : (Aid.t, Atom.t) Hashtbl.t;
  mutable ids : Aid.Set.t;
}

type link_store = {
  lt : Schema.Link_type.t;
  mutable pairs : Pair_set.t;  (** (left-role atom, right-role atom) *)
  fwd : (Aid.t, Aid.Set.t) Hashtbl.t;  (** left atom -> right partners *)
  bwd : (Aid.t, Aid.Set.t) Hashtbl.t;  (** right atom -> left partners *)
}

(** The logical operations that change a database — the journal
    vocabulary.  One [op] is atomic: it either happened or it did not,
    which is what makes a log of them replayable ([Durable] appends
    each op as one checksummed record and replays the sequence on
    recovery).  A cascade ([delete_atom]) is a single op; the replay
    re-runs the cascade. *)
type op =
  | Op_define_atom_type of Schema.Atom_type.t
  | Op_define_link_type of Schema.Link_type.t
  | Op_drop_atom_type of string
  | Op_drop_link_type of string
  | Op_insert_atom of { atype : string; id : Aid.t; values : Value.t list }
  | Op_delete_atom of { atype : string; id : Aid.t }
  | Op_add_link of { lt : string; left : Aid.t; right : Aid.t }
  | Op_remove_link of { lt : string; left : Aid.t; right : Aid.t }
  | Op_set_attr of { atype : string; id : Aid.t; index : int; value : Value.t }

type t = {
  mutable next_id : int;
  atom_tables : (string, atom_table) Hashtbl.t;
  link_stores : (string, link_store) Hashtbl.t;
  mutable journal : (op -> unit) option;
      (** Called after each successful mutation (never for rejected
          ones); installed by the durability engine, [None] otherwise. *)
  mutable taps : (int -> op -> unit) list;
      (** Observers of the op stream, called with the post-bump epoch.
          Unlike the journal, taps also see the sub-ops of a cascade
          and the enlarged-database scratch mutations ([unjournaled]
          does not detach them): they exist for delta maintenance of
          derived structures, which must account for {e every} epoch
          movement or fall back to a rebuild. *)
  mutable epoch : int;
      (** Monotonic mutation epoch: bumped once per successful logical
          op (cascade sub-ops included).  Derived read-only structures
          — the kernel's CSR adjacency snapshots — record the epoch
          they were built at and rebuild when it has moved on. *)
}

let create () =
  { next_id = 1; atom_tables = Hashtbl.create 16;
    link_stores = Hashtbl.create 16; journal = None; taps = []; epoch = 0 }

let set_journal db j = db.journal <- j

let add_tap db f = db.taps <- db.taps @ [ f ]

let epoch db = db.epoch

(* every successful mutation flows through here (rejected ones raise
   before), so the epoch bump, the taps and the journal share one
   choke point; the epoch also moves for unjournaled sub-mutations,
   which is what snapshot invalidation needs.  Taps run before the
   journal: the store mutation has already happened, and a journal
   that raises (fault injection) must not leave the taps blind to an
   epoch that did move. *)
let emit db op =
  db.epoch <- db.epoch + 1;
  (match db.taps with
   | [] -> ()
   | taps ->
     let e = db.epoch in
     List.iter (fun f -> f e op) taps);
  match db.journal with None -> () | Some j -> j op

(* run [f] with journaling off: used when one logical op performs
   sub-mutations (the delete cascade) that must not be double-logged *)
let unjournaled db f =
  let j = db.journal in
  db.journal <- None;
  Fun.protect ~finally:(fun () -> db.journal <- j) f

let fresh_id db =
  let id = db.next_id in
  db.next_id <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Schema definition                                                    *)

let has_atom_type db name = Hashtbl.mem db.atom_tables name
let has_link_type db name = Hashtbl.mem db.link_stores name

let define_atom_type db (at : Schema.Atom_type.t) =
  if has_atom_type db at.name then
    Err.failf "atom type %s already defined" at.name;
  Hashtbl.replace db.atom_tables at.name
    { at; atoms = Hashtbl.create 64; ids = Aid.Set.empty };
  emit db (Op_define_atom_type at);
  at

let declare_atom_type db name attrs =
  define_atom_type db (Schema.Atom_type.v name attrs)

let define_link_type db (lt : Schema.Link_type.t) =
  if has_link_type db lt.name then
    Err.failf "link type %s already defined" lt.name;
  let e1, e2 = lt.ends in
  if not (has_atom_type db e1) then
    Err.failf "link type %s: unknown atom type %s" lt.name e1;
  if not (has_atom_type db e2) then
    Err.failf "link type %s: unknown atom type %s" lt.name e2;
  Hashtbl.replace db.link_stores lt.name
    { lt; pairs = Pair_set.empty; fwd = Hashtbl.create 64; bwd = Hashtbl.create 64 };
  emit db (Op_define_link_type lt);
  lt

let declare_link_type ?card db name ends =
  define_link_type db (Schema.Link_type.v ?card name ends)

let atom_table db name =
  match Hashtbl.find_opt db.atom_tables name with
  | Some t -> t
  | None -> Err.failf "unknown atom type %s" name

let link_store db name =
  match Hashtbl.find_opt db.link_stores name with
  | Some s -> s
  | None -> Err.failf "unknown link type %s" name

let atom_type db name = (atom_table db name).at
let link_type db name = (link_store db name).lt

let atom_type_names db =
  Hashtbl.fold (fun k _ acc -> k :: acc) db.atom_tables []
  |> List.sort String.compare

let link_type_names db =
  Hashtbl.fold (fun k _ acc -> k :: acc) db.link_stores []
  |> List.sort String.compare

(** Link types that touch atom type [atname]; this is the basis of link
    inheritance (every result atom type reuses them, cf. Def. 4). *)
let incident_link_types db atname =
  link_type_names db
  |> List.filter_map (fun ln ->
         let lt = link_type db ln in
         if Schema.Link_type.touches lt atname then Some lt else None)

(** Link types defined between the (unordered) pair of atom types; used
    by MQL to resolve the ['-'] shorthand of ch. 4. *)
let link_types_between db a b =
  link_type_names db
  |> List.filter_map (fun ln ->
         let lt = link_type db ln in
         let e1, e2 = lt.ends in
         if (String.equal e1 a && String.equal e2 b)
            || (String.equal e1 b && String.equal e2 a)
         then Some lt
         else None)

let drop_atom_type db name =
  let _ = atom_table db name in
  List.iter
    (fun (lt : Schema.Link_type.t) ->
      if Schema.Link_type.touches lt name then
        Hashtbl.remove db.link_stores lt.name)
    (List.map (link_type db) (link_type_names db));
  Hashtbl.remove db.atom_tables name;
  emit db (Op_drop_atom_type name)

let drop_link_type db name =
  let _ = link_store db name in
  Hashtbl.remove db.link_stores name;
  emit db (Op_drop_link_type name)

(* ------------------------------------------------------------------ *)
(* Atom occurrence                                                      *)

let check_values (at : Schema.Atom_type.t) values =
  let arity = Schema.Atom_type.arity at in
  if List.length values <> arity then
    Err.failf "atom type %s expects %d attribute values, got %d" at.name
      arity (List.length values);
  List.iter2
    (fun (a : Schema.Attr.t) v ->
      if not (Domain.mem v a.domain) then
        Err.failf "atom type %s, attribute %s: value %s outside domain %s"
          at.name a.name (Value.to_string v)
          (Domain.to_string a.domain))
    at.attrs values

let insert_atom db ~atype values =
  let tbl = atom_table db atype in
  check_values tbl.at values;
  let id = fresh_id db in
  let atom = Atom.v ~id ~atype values in
  Hashtbl.replace tbl.atoms id atom;
  tbl.ids <- Aid.Set.add id tbl.ids;
  emit db (Op_insert_atom { atype; id; values });
  atom

(** Insert a pre-built atom (fresh id is still assigned by the database;
    provenance bookkeeping is the caller's business). *)
let insert_atom_values db ~atype values_array =
  insert_atom db ~atype (Array.to_list values_array)

(** Insert an atom under a caller-chosen identity (used when loading a
    dumped database, where identities must be preserved because links
    reference them).  Fails if the identity is already taken. *)
let insert_atom_exact db ~atype ~id values =
  let tbl = atom_table db atype in
  check_values tbl.at values;
  if Hashtbl.mem tbl.atoms id then
    Err.failf "atom identity %s already in use" (Aid.to_string id);
  let atom = Atom.v ~id ~atype values in
  Hashtbl.replace tbl.atoms id atom;
  tbl.ids <- Aid.Set.add id tbl.ids;
  if id >= db.next_id then db.next_id <- id + 1;
  emit db (Op_insert_atom { atype; id; values });
  atom

let find_atom db id =
  let found = ref None in
  Hashtbl.iter
    (fun _ tbl ->
      match Hashtbl.find_opt tbl.atoms id with
      | Some a -> found := Some a
      | None -> ())
    db.atom_tables;
  !found

let get_atom db ~atype id =
  let tbl = atom_table db atype in
  match Hashtbl.find_opt tbl.atoms id with
  | Some a -> a
  | None -> Err.failf "atom type %s has no atom %s" atype (Aid.to_string id)

let atom db id =
  match find_atom db id with
  | Some a -> a
  | None -> Err.failf "no atom %s in database" (Aid.to_string id)

let atom_ids db atype = (atom_table db atype).ids

let atoms db atype =
  let tbl = atom_table db atype in
  Aid.Set.elements tbl.ids |> List.map (Hashtbl.find tbl.atoms)

let count_atoms db atype = Aid.Set.cardinal (atom_table db atype).ids

(* ------------------------------------------------------------------ *)
(* Link occurrence                                                      *)

let adj_add tbl k v =
  let cur = Option.value ~default:Aid.Set.empty (Hashtbl.find_opt tbl k) in
  Hashtbl.replace tbl k (Aid.Set.add v cur)

let adj_remove tbl k v =
  match Hashtbl.find_opt tbl k with
  | None -> ()
  | Some s ->
    let s = Aid.Set.remove v s in
    if Aid.Set.is_empty s then Hashtbl.remove tbl k else Hashtbl.replace tbl k s

let adj_find tbl k =
  Option.value ~default:Aid.Set.empty (Hashtbl.find_opt tbl k)

let degree_fwd st id = Aid.Set.cardinal (adj_find st.fwd id)
let degree_bwd st id = Aid.Set.cardinal (adj_find st.bwd id)

(** [add_link db lt left right] records the link [<left,right>] in link
    type [lt]; [left] must be an atom of the first end's type, [right]
    of the second's.  Referential integrity is enforced eagerly (the
    paper: "There are no dangling references"), as are the cardinality
    restrictions of an extended link-type definition. *)
let add_link db ltname ~left ~right =
  let st = link_store db ltname in
  let e1, e2 = st.lt.ends in
  let a_left = get_atom db ~atype:e1 left in
  let a_right = get_atom db ~atype:e2 right in
  ignore a_left;
  ignore a_right;
  if Pair_set.mem (left, right) st.pairs then ()
  else begin
    (let max_l, max_r = st.lt.card in
     (match max_r with
      | Some k when degree_fwd st left >= k ->
        Err.failf
          "link type %s: atom %s already carries %d links (cardinality)"
          ltname (Aid.to_string left) k
      | Some _ | None -> ());
     match max_l with
     | Some k when degree_bwd st right >= k ->
       Err.failf
         "link type %s: atom %s already carries %d links (cardinality)"
         ltname (Aid.to_string right) k
     | Some _ | None -> ());
    st.pairs <- Pair_set.add (left, right) st.pairs;
    adj_add st.fwd left right;
    adj_add st.bwd right left;
    emit db (Op_add_link { lt = ltname; left; right })
  end

let remove_link db ltname ~left ~right =
  let st = link_store db ltname in
  if Pair_set.mem (left, right) st.pairs then begin
    st.pairs <- Pair_set.remove (left, right) st.pairs;
    adj_remove st.fwd left right;
    adj_remove st.bwd right left;
    emit db (Op_remove_link { lt = ltname; left; right })
  end

let link_exists db ltname ~left ~right =
  Pair_set.mem (left, right) (link_store db ltname).pairs

(** The symmetric membership test (unsorted-pair semantics): holds if
    the two atoms are linked in either role assignment. *)
let linked db ltname a b =
  let st = link_store db ltname in
  Pair_set.mem (a, b) st.pairs || Pair_set.mem (b, a) st.pairs

let links db ltname = Pair_set.elements (link_store db ltname).pairs
let count_links db ltname = Pair_set.cardinal (link_store db ltname).pairs

(** Partners of [from] over link type [lt].
    [`Fwd] : [from] plays the left (first-end) role, partners are right.
    [`Bwd] : the converse.  [`Both] : union of the two (the fully
    symmetric view; for non-reflexive types at most one side is ever
    populated for a given atom). *)
let neighbors db ltname ~dir from =
  let st = link_store db ltname in
  match dir with
  | `Fwd -> adj_find st.fwd from
  | `Bwd -> adj_find st.bwd from
  | `Both -> Aid.Set.union (adj_find st.fwd from) (adj_find st.bwd from)

(** Iterate the partners of [from] without building a union set: the
    stored side sets are walked in ascending id order; for [`Both] the
    backward side skips atoms already seen forward, so each partner is
    visited exactly once (same multiset as {!neighbors}).  This is the
    allocation-free traversal primitive for hot loops (closure
    fixpoints, integrity re-verification). *)
let iter_neighbors db ltname ~dir from f =
  let st = link_store db ltname in
  match dir with
  | `Fwd -> Aid.Set.iter f (adj_find st.fwd from)
  | `Bwd -> Aid.Set.iter f (adj_find st.bwd from)
  | `Both ->
    let fwd = adj_find st.fwd from in
    Aid.Set.iter f fwd;
    Aid.Set.iter (fun id -> if not (Aid.Set.mem id fwd) then f id)
      (adj_find st.bwd from)

(** Like {!neighbors} but computed by scanning the link type's pair set
    instead of the adjacency index — the ablation baseline quantifying
    what the bidirectional index buys (a model without first-class
    symmetric links pays this scan, or a join, per traversal). *)
let neighbors_scan db ltname ~dir from =
  let st = link_store db ltname in
  Pair_set.fold
    (fun (l, r) acc ->
      match dir with
      | `Fwd -> if Aid.equal l from then Aid.Set.add r acc else acc
      | `Bwd -> if Aid.equal r from then Aid.Set.add l acc else acc
      | `Both ->
        let acc = if Aid.equal l from then Aid.Set.add r acc else acc in
        if Aid.equal r from then Aid.Set.add l acc else acc)
    st.pairs Aid.Set.empty

(** Partners of atom [a] determined by its atom type: the direction is
    inferred from which end [a]'s type plays.  Reflexive link types
    yield the union of both views (callers that need one view must use
    {!neighbors} with an explicit direction). *)
let neighbors_of_atom db ltname (a : Atom.t) =
  let st = link_store db ltname in
  match Schema.Link_type.role_of st.lt a.atype with
  | `Left -> neighbors db ltname ~dir:`Fwd a.id
  | `Right -> neighbors db ltname ~dir:`Bwd a.id
  | `Both -> neighbors db ltname ~dir:`Both a.id
  | `None ->
    Err.failf "link type %s does not touch atom type %s" ltname a.atype

(** Delete an atom and cascade-delete every link it carries, keeping the
    no-dangling-links invariant. *)
let delete_atom db id =
  match find_atom db id with
  | None -> Err.failf "no atom %s in database" (Aid.to_string id)
  | Some a ->
    (* the cascade is one logical op: sub-removals are not journaled,
       replaying [Op_delete_atom] re-runs the cascade *)
    unjournaled db (fun () ->
        List.iter
          (fun (lt : Schema.Link_type.t) ->
            let st = link_store db lt.name in
            Aid.Set.iter (fun r -> remove_link db lt.name ~left:id ~right:r)
              (adj_find st.fwd id);
            Aid.Set.iter (fun l -> remove_link db lt.name ~left:l ~right:id)
              (adj_find st.bwd id))
          (incident_link_types db a.atype));
    let tbl = atom_table db a.atype in
    Hashtbl.remove tbl.atoms id;
    tbl.ids <- Aid.Set.remove id tbl.ids;
    emit db (Op_delete_atom { atype = a.atype; id })

(** Set one attribute (by index) of an existing atom, domain-checked.
    The store-level modification primitive: [Manipulate] routes its
    attribute updates here so they reach the journal. *)
let set_attribute db ~atype id ~index value =
  let tbl = atom_table db atype in
  let a =
    match Hashtbl.find_opt tbl.atoms id with
    | Some a -> a
    | None -> Err.failf "atom type %s has no atom %s" atype (Aid.to_string id)
  in
  (match List.nth_opt tbl.at.Schema.Atom_type.attrs index with
   | None ->
     Err.failf "atom type %s has no attribute index %d" atype index
   | Some (attr : Schema.Attr.t) ->
     if not (Domain.mem value attr.domain) then
       Err.failf "atom type %s, attribute %s: value %s outside domain %s"
         atype attr.name (Value.to_string value)
         (Domain.to_string attr.domain));
  a.Atom.values.(index) <- value;
  emit db (Op_set_attr { atype; id; index; value })

(* ------------------------------------------------------------------ *)
(* Whole-database helpers                                               *)

let total_atoms db =
  List.fold_left (fun n at -> n + count_atoms db at) 0 (atom_type_names db)

let total_links db =
  List.fold_left (fun n lt -> n + count_links db lt) 0 (link_type_names db)

(** Deep copy (fresh hashtables and sets; atoms are shared — callers
    mutating attributes through the store see the journal fire on the
    copy they mutate only).  The journal is not copied: a copy is a
    private scratch database.  Used by tests and by engines that must
    not disturb the caller's database. *)
let copy db =
  let db' = create () in
  db'.next_id <- db.next_id;
  List.iter
    (fun name ->
      let tbl = atom_table db name in
      let tbl' =
        { at = tbl.at; atoms = Hashtbl.copy tbl.atoms; ids = tbl.ids }
      in
      Hashtbl.replace db'.atom_tables name tbl')
    (atom_type_names db);
  List.iter
    (fun name ->
      let st = link_store db name in
      let st' =
        { lt = st.lt; pairs = st.pairs; fwd = Hashtbl.copy st.fwd;
          bwd = Hashtbl.copy st.bwd }
      in
      Hashtbl.replace db'.link_stores name st')
    (link_type_names db);
  db'

let pp_summary ppf db =
  Fmt.pf ppf "@[<v>database: %d atom types, %d link types, %d atoms, %d links@]"
    (List.length (atom_type_names db))
    (List.length (link_type_names db))
    (total_atoms db) (total_links db)
