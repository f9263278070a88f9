(** Rendering of molecules in the hierarchical style of Fig. 2's lower
    part, plus shared-subobject reporting.  The walkers append to a
    [Buffer.t]; with [limit] they raise {!Too_large} as soon as the
    buffer holds more than [limit] bytes. *)

open Mad_store

exception Too_large

val check : ?limit:int -> Buffer.t -> unit
(** Raise {!Too_large} when the buffer is past [limit]. *)

val label_attrs : ?mt:Molecule_type.t -> Database.t -> string -> int array
(** The value indices of a node's attributes that are visible in [mt]
    (all of the atom type's without it): resolve once per result. *)

val add_line :
  Buffer.t -> Database.t -> depth:int -> string -> string -> int array -> Aid.t -> unit
(** [add_line b db ~depth head node attrs id]: two spaces per [depth],
    [head], then the atom's label: [@id], followed by [\[s\]] for the
    first string value among [attrs], if any.  No newline. *)

val to_string : (Buffer.t -> unit) -> string
(** What a walker writes into a fresh buffer. *)

val atom_label : Database.t -> string -> Aid.t -> string
(** The label of one atom of a node, from all of its attributes. *)

val add_molecule_type : ?limit:int -> Database.t -> Buffer.t -> Molecule_type.t -> unit
(** A header line, then each molecule's tree and a blank line. *)

val pp_molecule :
  Database.t -> Molecule_type.t -> Format.formatter -> Molecule.t -> unit

val pp_molecule_type : Database.t -> Format.formatter -> Molecule_type.t -> unit

val shared_subobjects : Molecule_type.t -> (Aid.t * Aid.t list) list
(** Atoms belonging to more than one molecule, with the sharing roots. *)

val pp_shared : Database.t -> Format.formatter -> Molecule_type.t -> unit

val duplication_factor : Molecule_type.t -> float
(** Atom slots across molecules / distinct atoms: the cost of a
    representation without shared subobjects. *)
