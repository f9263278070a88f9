(** Per-session adaptive statistics: every [EXPLAIN ANALYZE] run feeds
    its recorded actuals back into a session-private {!Stats.t}
    catalog ({!Stats.refine}), so estimates converge onto the
    session's workload; nodes off by more than the drift factor are
    logged.  The state rides in {!Mad_mql.Session.ext} (the session
    layer cannot depend on PRIMA); {!install} registers the learning
    profiler as the session's [EXPLAIN ANALYZE] engine. *)

open Mad_store
module Session = Mad_mql.Session

type drift_entry = {
  de_stmt : string;  (** the statement/query name the drift came from *)
  de_drift : Profile.drift;
}

type state = {
  mutable catalog : Stats.t option;  (** [None] until first profiled run *)
  mutable drifts : drift_entry list;  (** newest first *)
  mutable refinements : int;
  alpha : float;  (** EWMA weight of each new observation *)
  factor : float;  (** drift threshold, an off-by factor *)
  plan_memo : (int, int * int * int) Hashtbl.t;
      (** fingerprint -> (refinements, epoch, plan hash): the digest's
          plan-hash cache, stale once the catalog refines or the
          database mutates *)
  mutable plan_mru : int * int * int * int;
      (** (fingerprint, refinements, epoch, hash) of the last lookup *)
}

type Session.ext += Adaptive of state

val default_factor : float
(** 2.0, or the [MAD_DRIFT_FACTOR] environment variable. *)

val state : ?alpha:float -> ?factor:float -> Session.t -> state
(** The session's adaptive state, created on first use ([alpha]
    default 0.5, [factor] default {!default_factor}). *)

val catalog : state -> Database.t -> Stats.t
(** The adaptive catalog, collected from the database on first use. *)

val observe : state -> stmt:string -> Profile.t -> Profile.drift list
(** Log one profiled run's drift and refine the catalog with its
    actuals; returns the drift entries of this run. *)

val analyze_stmt : Session.t -> Mad_mql.Ast.stmt -> string
(** Like {!Profile.analyze_stmt}, but estimates come from (and the
    actuals are fed back into) the session's adaptive catalog; the
    report carries a trailing [adaptive:] section. *)

val plan_hash_stmt : Session.t -> fp:int -> Mad_mql.Ast.stmt -> int
(** The hash of the plan the engine would choose for the statement
    right now (algebraic rewrites + the adaptive catalog's
    {!Stats.replan}); statements without a physical plan map to a
    per-kind pseudo plan.  Memoized on [fp], invalidated by catalog
    refinement and database mutation.  This is the workload digest's
    plan identity ({!Mad_mql.Session.plan_hash_hook}). *)

val install : unit -> unit
(** Register {!analyze_stmt} in {!Mad_mql.Session.analyze_hook}
    and {!plan_hash_stmt} in
    {!Mad_mql.Session.plan_hash_hook} — the full workload-introspection
    wiring. *)

val save_session : Session.t -> string -> bool
(** Persist the session's refined catalog as a [stats.mad] file
    ({!Catalog_io}); [false] when nothing was learned yet. *)

val load_session : ?alpha:float -> ?factor:float -> Session.t -> string -> bool
(** Install a previously-saved catalog as the session's adaptive
    starting point (supersedes the static collection of the first
    profiled run); [false] when the file does not exist.  Closes the
    loop across sessions: estimates persist per data directory. *)

val pp_report : Format.formatter -> Session.t -> unit

val report : Session.t -> string
(** The session's drift report: refinement count, threshold, and
    every drifted node estimate recorded so far. *)
