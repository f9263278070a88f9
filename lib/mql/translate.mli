(** Translation of MOL to the molecule algebra (ch. 4): a query compiles
    to one algebra plan (α Σ Π Ω Δ Ψ X, or the recursive extension's
    ρ), the algebra's equivalences rewrite it, and only that plan is
    executed — MOL's semantics {e is} the algebra.  The same plan is
    what EXPLAIN prints and what the workload digest hashes. *)

open Mad_store

type result =
  | Molecules of Mad.Molecule_type.t
  | Recursive of Mad_recursive.Recursive.t
  | Cycles of Mad_recursive.Recursive.cycle_t

val resolve_structure : Database.t -> Ast.structure -> Mad.Mdesc.t
(** Resolve ['-'] shorthands (the unique link type between adjacent
    atom types) and validate. *)

type alpha = {
  name : string;  (** the result type's name *)
  desc : Mad.Mdesc.t;  (** the FROM structure *)
  push : Mad.Qual.t option;
      (** root conjuncts evaluated during the root scan; [None] scans
          every root atom *)
  derive : Mad.Mdesc.t;  (** the derivation structure, possibly pruned *)
}
(** α with its physical choices: the root scan and the structure the
    derivation walks. *)

type plan =
  | P_define of alpha  (** α *)
  | P_ref of string  (** a catalogued molecule type *)
  | P_restrict of Mad.Qual.t * plan  (** Σ, over any result kind *)
  | P_project of (string * string list option) list * plan  (** Π *)
  | P_union of plan * plan  (** Ω *)
  | P_diff of plan * plan  (** Δ *)
  | P_intersect of plan * plan  (** Ψ *)
  | P_product of plan * plan  (** X *)
  | P_recursive of Mad_recursive.Recursive.desc * Mad.Qual.t option
      (** ρ, with the root conjuncts its root scan applies *)
  | P_cycle of Mad_recursive.Recursive.cycle_desc * Mad.Qual.t option
      (** ρ° (cycle recursion), likewise *)

val alpha : name:string -> Mad.Mdesc.t -> plan
(** The naive α: every root atom, the whole structure. *)

val compile :
  Database.t -> (string -> Mad.Molecule_type.t option) -> Ast.qexpr -> plan
(** The naive plan, the letter of ch. 4.  A named FROM definition
    compiles to a reference; the caller catalogs it before running. *)

val optimize : ?catalog:(unit -> Prima.Stats.t) -> plan -> plan
(** The algebraic rewrites: root-restriction pushdown into α's and ρ's
    root scans, structure pruning under Π, and — when a [catalog] is
    given and a residual has several conjuncts — their order by
    estimated cost ({!Prima.Stats.order}).  [catalog] is called only
    then. *)

val lines :
  ?skeleton:bool -> ?detail:(alpha -> string list) -> plan -> string list
(** The one plan printer, as indented lines.  [skeleton] strips
    literals and generated α names; [detail] adds lines under each α
    (estimates, actuals). *)

val pp_plan :
  ?detail:(alpha -> string list) -> Format.formatter -> plan -> unit
(** {!lines}, one per line, without a trailing newline. *)

val plan_hash : plan -> int
(** The hash of the plan's skeleton: two parameterizations of one
    statement hash alike; a different rewrite (a pruned structure, a
    reordered residual) does not.  The digest keys its rows on it. *)

val run :
  ?obs:Mad_obs.Obs.t ->
  ?stats:Mad.Derive.stats ->
  ?observe:
    (alpha ->
    (Prima.Atom_interface.t -> Mad.Molecule_type.t) ->
    Mad.Molecule_type.t) ->
  Database.t ->
  (string -> Mad.Molecule_type.t option) ->
  plan ->
  result
(** [obs] gives every executed algebra operator its span; [stats]
    accounts the derivation work; [observe] is handed each α together
    with the function that scans (through the given atom interface)
    and derives it. *)
