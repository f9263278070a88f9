(** The database: a set of atom types plus a set of link types whose
    occurrences form the atom networks (Def. 3).

    Mutable — atom-type operations, molecule products and Def. 9
    propagation {e enlarge} the database (Theorem 1) — and indexed:
    every link type maintains a bidirectional adjacency index, the
    operational realisation of the paper's symmetric link concept.

    The representation is exposed (the failure-injection tests corrupt
    it deliberately); normal clients use the functions only. *)

module Pair : sig
  type t = Aid.t * Aid.t

  val compare : t -> t -> int
end

module Pair_set : Set.S with type elt = Pair.t

type atom_table = {
  at : Schema.Atom_type.t;
  atoms : (Aid.t, Atom.t) Hashtbl.t;
  mutable ids : Aid.Set.t;
}

type link_store = {
  lt : Schema.Link_type.t;
  mutable pairs : Pair_set.t;  (** (left-role atom, right-role atom) *)
  fwd : (Aid.t, Aid.Set.t) Hashtbl.t;
  bwd : (Aid.t, Aid.Set.t) Hashtbl.t;
}

(** The logical operations that change a database — the journal
    vocabulary.  One [op] is atomic (a [delete_atom] cascade is a
    single op; replay re-runs the cascade), which is what makes a log
    of them a write-ahead log: the durability engine appends each op
    as one checksummed record and replays the sequence on recovery. *)
type op =
  | Op_define_atom_type of Schema.Atom_type.t
  | Op_define_link_type of Schema.Link_type.t
  | Op_drop_atom_type of string
  | Op_drop_link_type of string
  | Op_insert_atom of { atype : string; id : Aid.t; values : Value.t list }
  | Op_delete_atom of { atype : string; id : Aid.t }
      (** carries the (already removed) atom's type so op-stream
          observers can account the deletion per atom type *)
  | Op_add_link of { lt : string; left : Aid.t; right : Aid.t }
  | Op_remove_link of { lt : string; left : Aid.t; right : Aid.t }
  | Op_set_attr of { atype : string; id : Aid.t; index : int; value : Value.t }

type t = {
  mutable next_id : int;
  atom_tables : (string, atom_table) Hashtbl.t;
  link_stores : (string, link_store) Hashtbl.t;
  mutable journal : (op -> unit) option;
      (** Called after each successful mutation, never for rejected
          ones; installed by the durability engine, [None] otherwise. *)
  mutable taps : (int -> op -> unit) list;
      (** Op-stream observers (see {!add_tap}). *)
  mutable epoch : int;
      (** Monotonic mutation epoch (see {!epoch}). *)
}

val create : unit -> t
val fresh_id : t -> Aid.t

val epoch : t -> int
(** The mutation epoch: bumped once per successful logical mutation
    (delete cascades bump once per sub-removal too).  Read-only derived
    structures — the derivation kernel's CSR snapshots — are keyed by
    [(database, epoch)] and rebuild when the epoch has moved. *)

val set_journal : t -> (op -> unit) option -> unit
(** Install (or remove) the journal hook.  Rejected operations — domain
    violations, cardinality overflows, duplicate identities — never
    reach it, and idempotent no-ops (re-adding an existing link,
    removing an absent one) are not re-journaled. *)

val add_tap : t -> (int -> op -> unit) -> unit
(** Register an op-stream observer, called as [f epoch op] after every
    successful mutation with the epoch that mutation produced — {e
    including} cascade sub-ops and {!unjournaled} scratch mutations,
    which the journal never sees.  Taps run before the journal hook
    and cannot be removed (they live as long as the database); they
    exist for delta maintenance of derived structures
    ([Mad_kernel.Delta]), which must observe every epoch movement or
    fall back to a rebuild.  A tap must not mutate the database. *)

val unjournaled : t -> (unit -> 'a) -> 'a
(** Run [f] with the journal hook detached (restored on exit, even on
    raise).  The algebra layers use this for the {e enlarged database}:
    derived result types and their propagated occurrences are scratch
    state that queries rebuild on demand, so they must not reach a
    write-ahead log. *)

(** {1 Schema} *)

val has_atom_type : t -> string -> bool
val has_link_type : t -> string -> bool
val define_atom_type : t -> Schema.Atom_type.t -> Schema.Atom_type.t
val declare_atom_type : t -> string -> Schema.Attr.t list -> Schema.Atom_type.t
val define_link_type : t -> Schema.Link_type.t -> Schema.Link_type.t

val declare_link_type :
  ?card:Schema.Link_type.cardinality ->
  t ->
  string ->
  string * string ->
  Schema.Link_type.t

val atom_table : t -> string -> atom_table
val link_store : t -> string -> link_store
val atom_type : t -> string -> Schema.Atom_type.t
val link_type : t -> string -> Schema.Link_type.t

val atom_type_names : t -> string list
(** Sorted; iteration over these names is deterministic. *)

val link_type_names : t -> string list

val incident_link_types : t -> string -> Schema.Link_type.t list
(** Link types touching the named atom type — the basis of link
    inheritance (Def. 4). *)

val link_types_between : t -> string -> string -> Schema.Link_type.t list
(** Link types between the unordered pair of atom types; resolves the
    ['-'] shorthand of ch. 4's MOL. *)

val drop_atom_type : t -> string -> unit
(** Remove the type, its atoms and every incident link type. *)

val drop_link_type : t -> string -> unit

(** {1 Atom occurrence} *)

val check_values : Schema.Atom_type.t -> Value.t list -> unit
val insert_atom : t -> atype:string -> Value.t list -> Atom.t
val insert_atom_values : t -> atype:string -> Value.t array -> Atom.t

val insert_atom_exact : t -> atype:string -> id:Aid.t -> Value.t list -> Atom.t
(** Insert under a caller-chosen identity (dump loading); fails if the
    identity is taken. *)

val find_atom : t -> Aid.t -> Atom.t option
val get_atom : t -> atype:string -> Aid.t -> Atom.t
val atom : t -> Aid.t -> Atom.t
val atom_ids : t -> string -> Aid.Set.t

val atoms : t -> string -> Atom.t list
(** In ascending identity order. *)

val count_atoms : t -> string -> int

val delete_atom : t -> Aid.t -> unit
(** Cascade-deletes every incident link (no dangling links). *)

val set_attribute : t -> atype:string -> Aid.t -> index:int -> Value.t -> unit
(** Set one attribute of an existing atom, domain-checked — the
    store-level modification primitive (journaled as [Op_set_attr]). *)

(** {1 Link occurrence} *)

val add_link : t -> string -> left:Aid.t -> right:Aid.t -> unit
(** Record a link; [left]/[right] must have the end types.  Enforces
    referential integrity and cardinality restrictions eagerly;
    idempotent on duplicates. *)

val remove_link : t -> string -> left:Aid.t -> right:Aid.t -> unit
val link_exists : t -> string -> left:Aid.t -> right:Aid.t -> bool

val linked : t -> string -> Aid.t -> Aid.t -> bool
(** Symmetric membership (unsorted-pair semantics). *)

val links : t -> string -> (Aid.t * Aid.t) list
val count_links : t -> string -> int

val neighbors : t -> string -> dir:[ `Fwd | `Bwd | `Both ] -> Aid.t -> Aid.Set.t
(** Partners over a link type. [`Fwd]: the atom plays the left role;
    [`Bwd]: the right; [`Both]: union (the fully symmetric view). *)

val iter_neighbors :
  t -> string -> dir:[ `Fwd | `Bwd | `Both ] -> Aid.t -> (Aid.t -> unit) -> unit
(** Iterate the partners of an atom without allocating a result set
    (ascending id order per side; [`Both] visits each partner once).
    The traversal primitive for hot loops. *)

val neighbors_scan :
  t -> string -> dir:[ `Fwd | `Bwd | `Both ] -> Aid.t -> Aid.Set.t
(** {!neighbors} computed by scanning the pair set instead of the
    index — the ablation baseline for what the bidirectional index
    buys. *)

val neighbors_of_atom : t -> string -> Atom.t -> Aid.Set.t
(** Direction inferred from the atom's type; reflexive types yield both
    views. *)

(** {1 Whole database} *)

val total_atoms : t -> int
val total_links : t -> int

val copy : t -> t
(** Deep copy (atoms are immutable and shared). *)

val pp_summary : Format.formatter -> t -> unit
