(** PRIMA's molecule-processing rewrite rules: the algebraic facts the
    query pipeline ([Mad_mql.Translate.optimize]) applies to its one
    plan — which conjuncts may move into the root scan, and which
    structure nodes a derivation may drop. *)

val conjuncts : Mad.Qual.t -> Mad.Qual.t list

val conjoin : Mad.Qual.t list -> Mad.Qual.t option
(** Right inverse of {!conjuncts}: [None] on the empty list. *)

val pushable : members:bool -> string -> Mad.Qual.t -> bool
(** [pushable ~members root p]: may conjunct [p] be evaluated on the
    root atom alone, during the root scan?  [members] says that the
    root node's component holds more than the root atom (recursive and
    cycle types); then only plain attribute comparisons qualify. *)

val prune : Mad.Mdesc.t -> needed:string list -> Mad.Mdesc.t option
(** The structure induced by the ancestor closure of [needed] (plus
    the root), or [None] when that is the whole structure or [needed]
    names a node outside it. *)

val hash_string : string -> int
(** FNV-1a, masked non-negative — plan identity. *)
