(** Machine checks of the closure theorems: Theorem 1 for atom-type
    operations, Theorems 2-3 (validity, the Def. 9 bijection, and the
    mv_graph predicate per molecule) for molecule-type operations. *)

open Mad_store

type report = { checks : int; failures : string list }

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val check_atom_result :
  ?obs:Mad_obs.Obs.t -> Database.t -> Atom_algebra.t -> report

val check_molecule_type :
  ?obs:Mad_obs.Obs.t ->
  ?stats:Derive.stats ->
  Database.t ->
  Molecule_type.t ->
  report
(** Propagates [mt]'s result set (Def. 9), checks the enlarged
    database, then drops the propagated types again.  The Def. 9
    bijection check re-derives the whole occurrence; [stats] (default:
    counters in [obs]'s registry) accounts that work so profiles stop
    under-reporting it. *)
