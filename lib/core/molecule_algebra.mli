(** The molecule algebra (Defs. 8 and 10, Theorems 2-3): definition α,
    restriction Σ, projection Π, product X, union Ω, difference Δ and
    the derived intersection Ψ(a,b) = Δ(a, Δ(a,b)).  Σ, Π, Ω, Δ and Ψ
    return their result sets over the operand's base types and write
    nothing; Def. 9 propagation ({!Propagate.prop}) is the closure
    check's oracle and X's operand materialization.  X is the only
    read that enlarges the schema. *)

open Mad_store

val gen_name : string -> string
(** A fresh result-type name with the given prefix. *)

(** Each operator takes an optional observability context [obs]
    (default: the shared no-op) and emits one span per application,
    named [molecule_algebra.<op>].  α and X also take [stats], which
    accounts the derivation work they do (for X, including the
    propagation exactness re-derivation). *)

val define :
  ?obs:Mad_obs.Obs.t ->
  ?stats:Derive.stats ->
  ?roots:Aid.t list ->
  Database.t ->
  name:string ->
  Mdesc.t ->
  Molecule_type.t
(** α — molecule-type definition (Def. 8).  [roots] (default: every
    atom of the root type) restricts the occurrence to the molecules
    of those root atoms, in the given order — the root scan of a
    restriction pushed into α. *)

val define' :
  ?obs:Mad_obs.Obs.t ->
  ?stats:Derive.stats ->
  Database.t ->
  name:string ->
  nodes:string list ->
  edges:(string * string * string) list ->
  unit ->
  Molecule_type.t
(** Convenience: validate the description, then α. *)

val typecheck_qual : Database.t -> Molecule_type.t -> Qual.t -> unit
(** Structure-scoped typecheck including attribute visibility after
    molecule projection. *)

val molecule_satisfies : Database.t -> Molecule_type.t -> Molecule.t -> Qual.t -> bool
(** [qual(m, restr(md))] of Def. 10. *)

val restrict :
  ?obs:Mad_obs.Obs.t ->
  ?name:string ->
  Database.t ->
  Qual.t ->
  Molecule_type.t ->
  Molecule_type.t
(** Σ: the molecules that satisfy the qualification, in occurrence
    order. *)

val project :
  ?obs:Mad_obs.Obs.t ->
  ?name:string ->
  Database.t ->
  (string * string list option) list ->
  Molecule_type.t ->
  Molecule_type.t
(** Π — retained nodes (with [None] = all visible attributes or
    [Some attrs]); the retained set must induce a coherent
    single-rooted sub-DAG containing the root. *)

val union :
  ?obs:Mad_obs.Obs.t ->
  ?name:string ->
  Molecule_type.t ->
  Molecule_type.t ->
  Molecule_type.t
(** Ω — requires {!Molecule_type.compatible} operands. *)

val diff :
  ?obs:Mad_obs.Obs.t ->
  ?name:string ->
  Molecule_type.t ->
  Molecule_type.t ->
  Molecule_type.t
(** Δ *)

val intersect :
  ?obs:Mad_obs.Obs.t ->
  ?name:string ->
  Molecule_type.t ->
  Molecule_type.t ->
  Molecule_type.t
(** Ψ = Δ(a, Δ(a,b)) — the paper's worked composition example. *)

val product :
  ?obs:Mad_obs.Obs.t ->
  ?stats:Derive.stats ->
  ?name:string ->
  Database.t ->
  Molecule_type.t ->
  Molecule_type.t ->
  Molecule_type.t
(** X — operands are propagated onto fresh types; a synthetic pair root
    keeps the combined structure single-rooted. *)
