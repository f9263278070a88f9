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

type ext = ..
(** Extension slot for layers above this library: PRIMA stores its
    per-session adaptive statistics catalog here (see
    [Prima.Adaptive]) without creating a downward dependency. *)

type commit_handle
(** Identifies one registered commit hook (see {!add_on_commit}). *)

type t = {
  db : Database.t;
  env : (string, Mad.Molecule_type.t) Hashtbl.t;
  stats : Mad.Derive.stats;
  obs : Mad_obs.Obs.t;
  mutable ext : ext option;
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
  mutable slow_guard : bool;
      (** True while a slow-log capture is re-running the statement
          (EXPLAIN ANALYZE) — suppresses recursive slow-logging. *)
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
}

val analyze_hook : (t -> Ast.stmt -> string) option ref
(** [EXPLAIN ANALYZE] needs the physical engine, which lives above
    this library; a profiler (see [Prima.Adaptive.install]) registers
    itself here.  Without one, ANALYZE executes the statement and
    reports session-level actuals only. *)

val plan_hash_hook : (t -> fp:int -> Ast.stmt -> int) option ref
(** Hashes the physical plan the engine would choose for a statement
    (see [Prima.Adaptive.install]); the digest aggregates per
    (fingerprint, plan hash).  [fp] is the statement's fingerprint —
    implementations key their memoization on it.  Without a hook,
    digest rows fall back to a per-statement-kind pseudo plan. *)

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

val stmt_kind : Ast.stmt -> string
(** The statement's kind tag ("query", "insert", …) as used for span
    attributes and the digest's fallback plan identity. *)

val eval_stmt : ?fp_text:int * string -> t -> Ast.stmt -> outcome
(** Evaluate one parsed statement.  With a digest enabled, the
    execution is recorded under the statement's (fingerprint, plan
    hash); [fp_text] supplies a pre-computed fingerprint ({!run}'s
    source-text cache) so the AST is not re-normalized. *)

val run : t -> string -> outcome
(** Parse and evaluate one MOL statement.  The parse is timed as its
    own operator ([op.latency_us{op=mql.parse}]).  After each
    statement the global telemetry timeline gets an interval-gated
    tick ({!Mad_obs.Timeline.auto_tick}) against the session registry
    — near-free while [MAD_OBS_TICK] is unset. *)

val fault_spin_ms : float option ref
(** Fault injection for health smoke tests: when set, every statement
    busy-waits this many milliseconds inside its timed block (on
    {!Mad_obs.Monotonic.clock}, so deterministic test clocks apply), which
    the digest latency histograms — and thus the timeline's latency
    probe — observe as a genuine regression.  [None] (the default)
    costs one ref read per statement. *)

val run_to_string : t -> string -> string
(** Evaluate and render (molecule trees, explosion trees, DML
    summaries). *)

val explain_stmt : t -> Ast.stmt -> string
(** The algebra plan a parsed statement compiles to. *)

val explain : t -> string -> string
(** The algebra plan the statement compiles to. *)
