(** Molecule types (Def. 7): name, molecule-type description and
    occurrence, carried in the coordinates of the database types the
    description mentions (the result-set view of Defs. 9-10).  The
    propagation that Theorems 2-3 quantify over is {!Propagate.prop},
    run on demand by {!Closure.check_molecule_type}. *)

open Mad_store
module Smap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type t = {
  name : string;
  desc : Mdesc.t;
  attr_proj : string list Smap.t;
      (** node -> attributes visible after molecule projection; absent
          nodes expose all attributes *)
  occ : Molecule.t list;
}

val v :
  ?attr_proj:string list Smap.t ->
  name:string ->
  desc:Mdesc.t ->
  Molecule.t list ->
  t

val name : t -> string
val desc : t -> Mdesc.t
val occ : t -> Molecule.t list
val cardinality : t -> int

val visible_attrs : Database.t -> t -> string -> string list
val attr_visible : t -> string -> string -> bool

val find_by_root : t -> Aid.t -> Molecule.t option

val compatible : t -> t -> bool
(** Def. 10's "same description" lifted to molecule types: same
    structure over the same types with the same visible attributes. *)

val molecule_set : t -> Molecule.Set.t
val pp_summary : Format.formatter -> t -> unit
