(** PRIMA's executor: run a {!Planner} plan against the atom-oriented
    interface; projection is the algebra's Π, which writes nothing. *)

open Mad_store

type outcome = {
  mt : Mad.Molecule_type.t;
  counters : Atom_interface.counters;
  plan : Planner.plan;
  stats : Mad.Derive.stats;  (** the derivation work of this run *)
}

val run :
  ?obs:Mad_obs.Obs.t ->
  ?stats:Mad.Derive.stats ->
  ?catalog:Stats.t ->
  ?optimize:bool ->
  Database.t ->
  Planner.query ->
  outcome
(** Under [obs] every plan stage (plan, scan, derive, filter, project)
    runs in its own span beneath one [prima.execute] root; [stats] (default:
    counters in [obs]'s registry, giving per-node actuals for
    [EXPLAIN ANALYZE]) accounts the derivation work.  [catalog] adds
    the statistics-driven pass ({!Stats.replan}) on top of the
    algebraic rewrites, so learned factors steer residual conjunct
    order. *)

val compare_plans : Database.t -> Planner.query -> outcome * outcome
(** (naive, optimized) — the ablation harness. *)

val explain : ?optimize:bool -> Planner.query -> string
