(** MOL sessions: a database plus the catalog of molecule types defined
    by [DEFINE MOLECULE] or named FROM definitions (dynamic object
    definition).  Manipulation statements refresh the catalog. *)

open Mad_store

type outcome =
  | Defined of Mad.Molecule_type.t
  | Result of Translate.result
  | Inserted of Atom.t
  | Dml of string  (** summary of a manipulation statement's effect *)
  | Explained of string  (** EXPLAIN / EXPLAIN ANALYZE report *)

type commit_handle
(** Identifies one registered commit hook (see {!add_on_commit}). *)

type plan_memo = { refinements_at : int; types_at : int; hash : int }

type drift_entry = {
  de_stmt : string;  (** the statement kind the drift came from *)
  de_drift : Profile.drift;
}

type t = {
  db : Database.t;
  env : (string, Mad.Molecule_type.t) Hashtbl.t;
  stats : Mad.Derive.stats;
  obs : Mad_obs.Obs.t;
  mutable commit_hooks : (commit_handle * (unit -> unit)) list;
      (** Run, in registration order, after every successful
          manipulation statement — the statement-level durability
          boundary (autocommit).  Register through {!add_on_commit};
          a durable session installs the engine's group commit here,
          and the network server adds its cross-session commit
          coordinator alongside it. *)
  mutable hook_seq : int;  (** internal: next {!commit_handle} *)
  mutable digest : Mad_obs.Digest.t option;
      (** Workload digest; [None] (the default) records nothing.
          {!enable_digest} creates one against the session registry. *)
  fp_cache : (string, int * string) Hashtbl.t;
      (** source text -> (fingerprint, normalized text), so a repeated
          statement does not pay AST normalization twice *)
  mutable fp_mru : (string * (int * string)) option;
      (** the last {!run} source and its fingerprint *)
  mutable refreshed_epoch : int;
      (** internal: the epoch the catalog was last re-derived at —
          {!refresh} delta-gates its sweep against it *)
  mutable last_commit_us : float;
      (** internal: commit-hook µs since the last
          {!take_last_commit_us} *)
  mutable catalog : Prima.Stats.t option;
      (** the adaptive statistics catalog: [None] until a plan needs
          estimates (a residual with several conjuncts, EXPLAIN
          ANALYZE); every EXPLAIN ANALYZE refines it *)
  mutable refinements : int;  (** EXPLAIN ANALYZE runs fed back *)
  mutable drifts : drift_entry list;  (** newest first *)
  mutable last_plan : Translate.plan option;
      (** internal: the plan the last statement ran *)
  mutable last_error : float option;
      (** internal: the last EXPLAIN ANALYZE's estimate error *)
  plan_memo : (int, plan_memo) Hashtbl.t;
      (** internal: the digest's plan-hash memo, per fingerprint *)
}

val create : ?obs:Mad_obs.Obs.t -> Database.t -> t
(** [obs] defaults to the process-wide context of [MAD_OBS]
    ({!Mad_obs.Obs.default}); the session's [stats] counters live in
    its registry, and every statement runs under a root span.
    {!lookup} finds a catalogued molecule type. *)

val lookup : t -> string -> Mad.Molecule_type.t option
val define : t -> string -> Mad.Molecule_type.t -> unit

val add_on_commit : t -> (unit -> unit) -> commit_handle
(** Register a commit hook, run (in registration order) after every
    successful manipulation statement.  Returns a handle for
    {!remove_on_commit}.  Multiple subsystems — durability's group
    commit, the server's cross-session commit coordinator — can each
    hold a hook without clobbering the others. *)

val remove_on_commit : t -> commit_handle -> unit
(** Unregister; unknown handles are ignored. *)

val take_last_commit_us : t -> float
(** Wall-clock µs spent inside commit hooks (WAL flush + fsync
    publication) since the last take; resets to 0.  The network server
    uses this to break a request's latency into phases — the commit
    share becomes the "wal" phase. *)

val commit : t -> unit
(** Run the registered commit hooks, if any ({!eval_stmt} does this
    after each manipulation statement). *)

val refresh : t -> unit
(** Bring the catalog up to the current occurrence.  Manipulation
    statements do this implicitly for the session that ran them; a
    server hosting {e many} sessions over one database calls it on
    sessions whose catalog may be stale because another session
    mutated the store (tracked by [Database.epoch]).  The sweep is
    delta-gated: with a covering {!Mad_kernel.Delta} window, only
    molecule types whose structure (atom-type nodes or link-type
    edges) the window touched are re-derived — an attribute-only
    window re-derives nothing; without a window every type is
    re-derived. *)

val parse : t -> string -> Ast.stmt
(** Parse with the session's catalog (bare FROM identifiers resolve to
    defined molecule types). *)

val enable_digest : t -> Mad_obs.Digest.t
(** Get or create the session's workload digest (registered into the
    session registry, so {!Mad_obs.Registry.expose} exports it).  Once
    enabled, every {!eval_stmt} records a (fingerprint, plan hash) row
    and statements over the slow threshold
    ({!Mad_obs.Digest.slow_threshold_ms}) append to the slow-query
    log. *)

val catalog : t -> Prima.Stats.t
(** The adaptive statistics catalog, collected from the database on
    first use. *)

val save_catalog : t -> string -> bool
(** Persist the refined catalog as a [stats.mad] file
    ({!Prima.Catalog_io}); [false] when it was never collected. *)

val load_catalog : t -> string -> bool
(** Start from a previously saved catalog (superseding the static
    collection); [false] when the file does not exist.  Plans with
    several residual conjuncts may change. *)

val drift_report : t -> string
(** Refinement count, drift threshold ([MAD_DRIFT_FACTOR], default 2)
    and every drifted node estimate recorded so far. *)

val stmt_kind : Ast.stmt -> string
(** The statement's kind tag ("query", "insert", …): the digest's plan
    identity for statements without a plan. *)

val plan : t -> Ast.qexpr -> Translate.plan
(** The plan a query runs: {!Translate.compile}, then
    {!Translate.optimize} against the adaptive catalog. *)

val eval_stmt : ?fp_text:int * string -> t -> Ast.stmt -> outcome
(** Evaluate one parsed statement: run its plan.  With a digest
    enabled, the execution is recorded under the statement's
    (fingerprint, hash of the plan that ran); [fp_text] supplies a
    pre-computed fingerprint ({!run}'s source-text cache) so the AST is
    not re-normalized.  With the slow-query log on, every run is
    profiled so a slow one logs its own actuals. *)

val run : t -> string -> outcome
(** Parse and evaluate one MOL statement.  The parse is timed as its
    own operator ([op.latency_us{op=mql.parse}]).  After each
    statement the global telemetry timeline gets an interval-gated
    tick ({!Mad_obs.Timeline.auto_tick}) against the session registry
    — near-free while [MAD_OBS_TICK] is unset. *)

val run_profiled : t -> string -> outcome * Profile.t
(** {!run}, profiling that one run (estimates from {!catalog}). *)

val fault_spin_ms : float option ref
(** Fault injection for health smoke tests: when set, every statement
    busy-waits this many milliseconds inside its timed block (on
    {!Mad_obs.Monotonic.clock}, so deterministic test clocks apply), which
    the digest latency histograms — and thus the timeline's latency
    probe — observe as a genuine regression.  [None] (the default)
    costs one ref read per statement. *)

val render : t -> outcome -> string
(** An outcome as the CLI prints it (molecule trees, explosion trees,
    DML summaries, reports). *)

val run_to_string : t -> string -> string
(** {!run}, then {!render}. *)

val explain : ?estimates:bool -> t -> string -> string
(** EXPLAIN: the plan the statement runs; with [estimates], each α
    carries the catalog's estimate of its work. *)
