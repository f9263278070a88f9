(** The bitset derivation kernel: [m_dom] (Def. 6) over a CSR
    {!Snapshot}.

    The kernel is schema-agnostic: it takes a {e plan} — the molecule
    structure lowered to dense node/edge indices — and returns raw
    identity arrays; the core library compiles descriptions down and
    lifts results back into molecules, keeping this layer free of any
    dependency on the algebra.

    Semantics replicate the scalar derivation exactly, including the
    work accounting: per molecule, one visited atom for the root plus
    the included-set cardinality per non-root node, and one traversed
    link per CSR row element scanned during the reach pass. *)

open Mad_store

type edge_plan = {
  e_link : string;
  e_from : int;  (** plan index of the source node *)
  e_fwd : bool;  (** true when the source plays the link's left role *)
}

type node_plan = {
  n_type : string;  (** atom-type name *)
  n_ins : edge_plan array;  (** empty exactly for the root (index 0) *)
}

type plan = { p_nodes : node_plan array }
(** Topological order, root first — each edge's [e_from] precedes its
    node. *)

type mol = {
  m_root : Aid.t;
  m_atoms : Aid.t array array;
      (** per plan node (root included), ascending identities;
          explicitly empty components stay present *)
  m_links : (string * Aid.t * Aid.t) list;
      (** links actually used, as (link type, left, right) *)
}

type node_stats = {
  st_atoms : int array;  (** per plan node, aggregated over all roots *)
  st_links : int array;
}

val run_roots : Snapshot.t -> plan -> Aid.t array -> mol array * node_stats
(** One molecule per root identity (atoms of the root node's type), in
    input order, derived in one sequential pass that reuses a single
    scratch set.  Unknown root identities are an [Invalid_argument]
    error. *)

(** {1 Closure kernel}

    Reflexive link types cannot appear in a plain structure (Def. 5);
    their transitive expansion — parts explosion / where-used — is the
    recursive extension's fixpoint, which the kernel runs as a BFS by
    level over one CSR matrix with a bitset member set. *)

type closure = {
  c_atoms : Aid.t array;  (** members in first-reach order, root first *)
  c_depths : int array;  (** expansion depth per member, root 0 *)
  c_pairs : (Aid.t * Aid.t) list;
      (** (expanded atom, partner) per traversed row element, in
          traversal orientation; partners already contained included,
          exactly like the scalar fixpoint *)
  c_visited : int;  (** scalar-parity atoms-visited count *)
  c_traversed : int;  (** scalar-parity links-traversed count *)
}

val closure :
  ?max_depth:int ->
  ?with_pairs:bool ->
  Snapshot.t ->
  link:string ->
  fwd:bool ->
  atype:string ->
  Aid.t ->
  closure
(** Least fixpoint of one-step expansion from the root atom along the
    reflexive link type ([fwd]: left-to-right role, the sub-component
    view). *)

val closure_roots :
  ?max_depth:int ->
  ?with_pairs:bool ->
  Snapshot.t ->
  link:string ->
  fwd:bool ->
  atype:string ->
  Aid.t array ->
  closure array
(** [closure] for every root, in input order, sharing one set of
    scratch buffers (bitset, frontier queues) across all roots — the
    batched form [m_dom] uses so per-root allocation does not dominate
    small closures.  [~with_pairs:false] leaves [c_pairs] empty for
    callers that obtain the used links elsewhere (the memoized DAG
    path) and only need members, depths, and the work counts. *)
