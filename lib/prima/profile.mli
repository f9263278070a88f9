(** EXPLAIN ANALYZE: execute a query under a private observability
    context and line the planner's estimates up against the recorded
    actuals, per structure node, with executor stage timings. *)

open Mad_store

type node_report = {
  nr_node : string;
  nr_est_atoms : float;
  nr_est_links : float;
  nr_atoms : int;  (** actual atoms included at this node *)
  nr_links : int;  (** actual link traversals arriving at this node *)
}

type t = {
  plan : Planner.plan;
  est : Stats.estimate;
  actual_roots : int;
  actual_atoms : int;
  actual_links : int;
  nodes : node_report list;
  stages : (string * float) list;
      (** executor stage -> duration ms, in executor order, read from
          the run's [op.latency_us{op=prima.*}] sums *)
  duration_ms : float;
  counters : Atom_interface.counters;
}

val analyze : ?optimize:bool -> ?stats:Stats.t -> Database.t -> Planner.query -> t
(** [stats] is the catalog the estimates come from (default: fresh
    {!Stats.collect}); pass a refined catalog to measure how much the
    feedback loop closed the gap. *)

val error : t -> float
(** Total absolute estimate error: |est - actual| over roots and the
    per-node atoms/links — the quantity {!Stats.refine} drives down. *)

type drift = {
  dd_node : string;
  dd_metric : string;  (** ["atoms"] or ["links"] *)
  dd_est : float;
  dd_actual : int;
  dd_ratio : float;  (** how far off, as a >= 1 factor *)
}

val pp_drift : Format.formatter -> drift -> unit

val drift : ?factor:float -> t -> drift list
(** The nodes whose estimate was off by at least [factor] (default 2). *)

val refine : ?alpha:float -> Stats.t -> t -> Stats.t
(** Feed this report's recorded actuals back into a catalog — the
    [EXPLAIN ANALYZE] end of the adaptive-statistics loop. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> Mad_obs.Json.t

val query_of_stmt : Database.t -> Mad_mql.Ast.stmt -> Planner.query option
(** The physical query a plain SELECT maps to, if any. *)

val analyze_stmt : Mad_mql.Session.t -> Mad_mql.Ast.stmt -> string
(** The [EXPLAIN ANALYZE] report for a parsed statement: the full
    per-node profile for physical-plan queries, algebra plan plus
    session-level actuals otherwise.  {!Adaptive.install} registers it
    (wrapped in the feedback loop) as the session's [EXPLAIN ANALYZE]
    engine. *)
