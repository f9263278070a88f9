(** Propagation of result sets (Def. 9): enlarge the database by
    renamed atom types (occurrences restricted to the result set's
    atoms, optionally attribute-projected) and inherited link types
    (restricted to its links) such that the result set is exactly
    derivable as a molecule type over the enlarged database.

    Exactness (the Def. 9 bijection) is verified after shared
    propagation; on failure (molecule projection can provoke it on
    diamonds) the per-molecule-copies fallback guarantees it.

    Σ, Π, Ω, Δ and Ψ do not propagate: their results stay over the
    operand's types.  Propagation is the closure check's oracle and
    X's operand materialization. *)

open Mad_store
module Smap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type t = {
  mdesc : Mdesc.t;  (** description over the propagated types *)
  node_map : string Smap.t;  (** source node -> propagated atom type *)
  link_map : string Smap.t;  (** source link -> propagated link type *)
  atom_map : Aid.t Aid.Map.t;  (** propagated copy -> its source atom *)
  mocc : Molecule.t list;  (** occurrence over the propagated types *)
  strategy : [ `Shared | `Copied ];
      (** [`Shared]: one copy per distinct source atom (sharing
          preserved); [`Copied]: per-molecule copies (the unconditional
          Def. 9 fallback) *)
}

val fresh_name : Database.t -> string -> string
(** An atom-/link-type name not yet used in the database. *)

val prop :
  ?stats:Derive.stats ->
  ?strategy:[ `Auto | `Shared | `Copied ] ->
  Database.t ->
  name:string ->
  desc:Mdesc.t ->
  attr_proj:string list Smap.t ->
  Molecule.t list ->
  t
(** The propagation function.  [`Auto] (default) tries shared
    propagation, checks exactness and falls back to copies.  [stats]
    accounts the exactness re-derivation. *)

val cleanup : Database.t -> t -> unit
(** Drop the atom and link types a propagation declared (and with them
    its atoms and links), unjournaled. *)

val exact : ?stats:Derive.stats -> Database.t -> Mdesc.t -> Molecule.t list -> bool
(** Does re-derivation over the propagated types return exactly the
    propagated occurrence?  The re-derivation is real work; [stats]
    makes it visible to profiles. *)
