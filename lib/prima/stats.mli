(** Catalog statistics and cost estimation for the planner (the
    query-optimization groundwork of ch. 5): per-type cardinalities,
    per-attribute distinct counts, per-link-type fanouts; textbook
    selectivity rules; fanout-product derivation estimates. *)

open Mad_store
module Smap : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type link_stat = { pairs : int; fanout_fwd : float; fanout_bwd : float }

type learned_link = {
  lf_fwd : float option;  (** link traversals per parent atom, forward *)
  lf_bwd : float option;
  lr_fwd : float option;  (** distinct atoms reached per parent atom *)
  lr_bwd : float option;
}
(** Adaptive per-link-type factors learned by {!refine_actuals}: traversal
    fanout and distinct reach, kept separately because subobject
    sharing makes many traversals arrive at few distinct atoms. *)

type t = {
  atom_counts : int Smap.t;
  distinct : int Smap.t;  (** "type.attr" -> distinct values *)
  link_stats : link_stat Smap.t;
  learned : learned_link Smap.t;  (** link type -> refined factors *)
  learned_sel : float Smap.t;  (** "root|pred" -> observed selectivity *)
}

val collect : Database.t -> t
(** Static catalog statistics; the learned maps start empty. *)

val selectivity : t -> Mad.Qual.t -> float

type estimate = { est_roots : float; est_atoms : float; est_links : float }

val pp_estimate : Format.formatter -> estimate -> unit
val estimate : t -> root_pred:Mad.Qual.t option -> Mad.Mdesc.t -> estimate
(** The work of deriving the molecules over a structure whose root scan
    applies [root_pred]. *)

type node_estimate = {
  ne_node : string;
  ne_atoms : float;  (** atoms expected at this node, over all molecules *)
  ne_links : float;  (** link traversals arriving at this node *)
}

type detail = { d_est : estimate; d_nodes : node_estimate list }

val estimate_detail : t -> root_pred:Mad.Qual.t option -> Mad.Mdesc.t -> detail
(** Like {!estimate} but keeping the per-node totals — the "estimated"
    column of [EXPLAIN ANALYZE].  Learned factors and selectivities
    (from {!refine_actuals}) take precedence over the static catalog. *)

type node_actual = {
  na_node : string;
  na_atoms : int;  (** atoms included at this node, over all molecules *)
  na_links : int;  (** link traversals arriving at this node *)
}

val actuals_of_registry : Mad_obs.Registry.t -> Mad.Mdesc.t -> node_actual list
(** The per-node ["derive.atoms"]/["derive.links"] counters a
    registry-backed derivation recorded. *)

val refine_actuals :
  ?alpha:float ->
  t ->
  root_pred:Mad.Qual.t option ->
  Mad.Mdesc.t ->
  node_actual list ->
  t
(** Feed one plan's recorded actuals back into the catalog:
    exponentially-weighted ([alpha], default 0.5) updates of
    per-link-type traversal fanouts, distinct-reach factors, and the
    root predicate's observed selectivity.  Repeated refinement on the
    same workload converges the estimates onto the actuals. *)

val order :
  t -> root_pred:Mad.Qual.t option -> Mad.Mdesc.t -> Mad.Qual.t list ->
  Mad.Qual.t list
(** The catalog-driven planning pass: order residual conjuncts by
    estimated evaluation cost (expected component sizes of the
    referenced nodes, then selectivity; stable on ties).  Because the
    sizes flow from learned link factors, {!refine_actuals} can flip the order
    — a flip changes the plan's hash and surfaces as a [plan.switch]
    in the workload digest. *)
