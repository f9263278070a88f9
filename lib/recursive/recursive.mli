(** Recursive molecule types (ch. 5 outlook, [Schö89]): reflexive link
    types queried recursively — the parts explosion (sub-component
    view) and where-used (super-component view) of a bill-of-material,
    both over the same symmetric link type.  Derivation is the least
    fixpoint of one-step expansion; data cycles terminate. *)

open Mad_store

type view = Sub | Super

type desc = {
  root_type : string;
  link : string;  (** a reflexive link type on [root_type] *)
  view : view;
  max_depth : int option;  (** [None]: full closure *)
  component : Mad.Mdesc.t option;
      (** Schöning's full recursive molecule types: a plain structure
          rooted at [root_type], expanded by every reached atom *)
}

type molecule = {
  root : Aid.t;
  members : Aid.Set.t;  (** includes the root *)
  links : Link.Set.t;
  depth_of : int Aid.Map.t;  (** shortest expansion depth per member *)
  components : Mad.Molecule.t Aid.Map.t;  (** per-member sub-molecule *)
}

type t = { name : string; desc : desc; occ : molecule list }

val pp_view : Format.formatter -> view -> unit
val pp_desc : Format.formatter -> desc -> unit

val v :
  Database.t ->
  root_type:string ->
  link:string ->
  ?view:view ->
  ?max_depth:int ->
  ?component:Mad.Mdesc.t ->
  unit ->
  desc
(** Validate: [link] must be reflexive on [root_type]; depth >= 0; a
    component structure must be rooted at [root_type] and must not
    reuse the recursion link. *)

val derive_one :
  ?stats:Mad.Derive.stats -> ?kernel:bool -> Database.t -> desc -> Aid.t -> molecule
(** The fixpoint from one root.  [~kernel] forces the path; by default
    the kernel's BFS closure runs only on a warm snapshot. *)

val m_dom :
  ?stats:Mad.Derive.stats ->
  ?kernel:bool ->
  ?roots:Aid.t list ->
  Database.t ->
  desc ->
  molecule list
(** One molecule per root-type atom (or per atom of [roots], in that
    order); builds the CSR snapshot once and runs every closure on it
    ([~kernel:false] runs the scalar fixpoint per root instead). *)

val define :
  ?stats:Mad.Derive.stats ->
  ?kernel:bool ->
  ?roots:Aid.t list ->
  Database.t ->
  name:string ->
  desc ->
  t

val molecule_satisfies : Database.t -> t -> molecule -> Mad.Qual.t -> bool
(** Qualification over a recursive molecule; the pseudo-attribute
    [DEPTH] exposes the member's expansion depth. *)

val restrict : Database.t -> Mad.Qual.t -> t -> name:string -> t

(** {1 Set operations}

    Recursive molecule types are first-class data model objects
    ([Schö89]); the set operators require identically described
    operands. *)

val compare_molecule : molecule -> molecule -> int
val equal_molecule : molecule -> molecule -> bool
val same_desc : desc -> desc -> bool
val union : name:string -> t -> t -> t
val diff : name:string -> t -> t -> t
val intersect : name:string -> t -> t -> t

(** {1 Cycle recursion}

    Recursion over general schema cycles (ch. 5: reflexive link types
    "and other cycles in the database schema"): a composition of
    link-type steps from the root atom type back to itself, iterated
    as one macro-step to a fixpoint.  Example: VLSI connectivity
    [cell -cell-pin-> pin <-net-pin- net -net-pin-> pin <-cell-pin-
    cell]. *)

module Smap : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type step = { s_link : string; s_dir : [ `Fwd | `Bwd ] }

type cycle_desc = {
  c_root : string;
  steps : step list;
  c_max_depth : int option;
}

type cycle_molecule = {
  c_root_atom : Aid.t;
  c_members : Aid.Set.t;  (** root-type atoms reached (incl. the root) *)
  c_intermediates : Aid.Set.t Smap.t;
  c_depth_of : int Aid.Map.t;
}

val cycle :
  Database.t ->
  root_type:string ->
  steps:(string * [ `Fwd | `Bwd ]) list ->
  ?max_depth:int ->
  unit ->
  cycle_desc
(** Validates that the steps compose from [root_type] back to it. *)

val derive_cycle : Database.t -> cycle_desc -> Aid.t -> cycle_molecule
val cycle_m_dom :
  ?roots:Aid.t list -> Database.t -> cycle_desc -> cycle_molecule list
(** One cycle molecule per root-type atom, or per atom of [roots]. *)

type cycle_t = {
  cname : string;
  cdesc : cycle_desc;
  cocc : cycle_molecule list;
}

val cycle_define :
  ?roots:Aid.t list -> Database.t -> name:string -> cycle_desc -> cycle_t
val pp_cycle_desc : Format.formatter -> cycle_desc -> unit

val cycle_satisfies : Database.t -> cycle_t -> cycle_molecule -> Mad.Qual.t -> bool
(** The root type's node ranges over the members (with [DEPTH]),
    intermediate atom types over the atoms passed through. *)

val cycle_restrict : Database.t -> Mad.Qual.t -> cycle_t -> name:string -> cycle_t
val pp_cycle : Format.formatter -> Database.t * cycle_t -> unit

(** {1 Rendering}

    Buffer walkers in the style of {!Mad.Render}: with [limit] they
    raise {!Mad.Render.Too_large} once the buffer is past [limit]
    bytes. *)

val add : ?limit:int -> Database.t -> Buffer.t -> t -> unit
(** A header line, then each molecule's explosion tree and a blank
    line. *)

val add_cycles : ?limit:int -> Database.t -> Buffer.t -> cycle_t -> unit
(** A header line, then one [root: {members}] line per molecule. *)

val pp_molecule :
  Database.t ->
  t ->
  Format.formatter ->
  molecule ->
  unit
(** Indented explosion tree; cycles and already-printed shared atoms
    are marked. *)

val pp : Format.formatter -> Database.t * t -> unit
