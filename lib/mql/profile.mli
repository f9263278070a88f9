(** EXPLAIN ANALYZE: the actuals of one run of a statement's plan, lined
    up against the statistics catalog's estimates per α and per
    structure node.  A {!recorder} watches the run the session does
    anyway; nothing runs twice. *)

type node_report = {
  nr_node : string;
  nr_est_atoms : float;
  nr_est_links : float;
  nr_atoms : int;  (** actual atoms included at this node *)
  nr_links : int;  (** actual link traversals arriving at this node *)
}

type scan = {
  alpha : Translate.alpha;
  est : Prima.Stats.estimate;
  roots : int;  (** molecules the α derived *)
  nodes : node_report list;  (** one per node of its derivation structure *)
  access : Prima.Atom_interface.counters;  (** its root scan *)
  ms : float;  (** scan and derivation *)
}

type t = {
  plan : Translate.plan option;  (** [None]: a statement without a plan *)
  scans : scan list;  (** the α runs, in execution order *)
  rows : int;  (** result molecules *)
  actual_atoms : int;  (** derivation work of the whole run *)
  actual_links : int;
  duration_ms : float;
}

type recorder

val start : Mad_store.Database.t -> Mad.Derive.stats -> recorder
(** Begin watching a run whose derivations account into [stats]
    (per-node actuals need registry-backed stats,
    {!Mad.Derive.stats_in}). *)

val observe :
  recorder ->
  Translate.alpha ->
  (Prima.Atom_interface.t -> Mad.Molecule_type.t) ->
  Mad.Molecule_type.t
(** The [observe] argument of {!Translate.run}. *)

val finish :
  recorder ->
  catalog:Prima.Stats.t ->
  plan:Translate.plan option ->
  rows:int ->
  t
(** The report of the watched run, estimates from [catalog]. *)

val error : t -> float
(** Total absolute estimate error: |est - actual| over roots and the
    per-node atoms/links — the quantity {!Prima.Stats.refine} drives
    down. *)

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

val refine : ?alpha:float -> Prima.Stats.t -> t -> Prima.Stats.t
(** Feed the report's actuals back into a catalog. *)

val pp : Format.formatter -> t -> unit
(** The plan ({!Translate.pp_plan}) with each α's per-node estimated
    and actual work, then the totals. *)

val to_string : t -> string
val to_json : t -> Mad_obs.Json.t
