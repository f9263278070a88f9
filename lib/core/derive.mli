(** Molecule derivation — the function [m_dom] of Def. 6 read
    operationally: the structure is a template laid over the atom
    networks; per root atom, hierarchical join along the branches until
    the leaves; diamonds include an atom only if every incoming edge
    supplies a contained, linked parent.

    Two equivalent implementations: the {e scalar} walk over the
    adjacency index, and the {e bitset kernel} ({!Mad_kernel}) over a
    CSR snapshot.  Bulk derivations use the kernel; single-molecule
    derivation uses it only when a snapshot is already warm.  Both
    produce identical molecules and identical stats; the scalar walk is
    the tests' parity oracle. *)

open Mad_store

type stats = {
  atoms_visited : Mad_obs.Metric.counter;
  links_traversed : Mad_obs.Metric.counter;
  registry : Mad_obs.Registry.t option;
}
(** The derivation work counters.  Historically a pair of mutable ints;
    now a shim over {!Mad_obs.Metric} counters so the same numbers flow
    into the observability registry.  Read them with {!atoms_visited} /
    {!links_traversed}. *)

val stats : unit -> stats
(** Fresh standalone counters (not attached to any registry). *)

val stats_in : Mad_obs.Registry.t -> stats
(** Counters registered as ["derive.atoms_visited"] /
    ["derive.links_traversed"], plus per-structure-node accounting
    under ["derive.atoms"]/["derive.links"] with a [node] label —
    the actuals side of EXPLAIN ANALYZE.  Kernel runs additionally
    account ["kernel.runs"] / ["kernel.roots"]. *)

val atoms_visited : stats -> int
val links_traversed : stats -> int

val derive_one :
  ?stats:stats -> ?kernel:bool -> Database.t -> Mdesc.t -> Aid.t -> Molecule.t
(** The molecule rooted at the given root-type atom.  Kernel path only
    when a snapshot is warm at the current epoch, or [~kernel:true]. *)

val derive_roots :
  ?stats:stats ->
  ?kernel:bool ->
  Database.t ->
  Mdesc.t ->
  Aid.t list ->
  Molecule.t list
(** One molecule per given root atom, in input order.  Kernel path
    unless [~kernel:false]. *)

val m_dom :
  ?stats:stats ->
  ?kernel:bool ->
  Database.t ->
  Mdesc.t ->
  Molecule.t list
(** One molecule per root-type atom, in identity order. *)

val derive_one_scalar :
  ?stats:stats -> Database.t -> Mdesc.t -> Aid.t -> Molecule.t
(** The scalar walk, unconditionally — parity baseline and fallback. *)

val m_dom_scalar : ?stats:stats -> Database.t -> Mdesc.t -> Molecule.t list

val describe_path : Database.t -> string
(** The path [m_dom] would take on this database right now, e.g.
    ["kernel (epoch=17, snapshot=warm)"] — EXPLAIN ANALYZE
    includes it. *)
