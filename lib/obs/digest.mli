(** Workload digest: per-statement aggregation keyed by (fingerprint,
    plan hash) — the MAD analog of pg_stat_statements — plus the
    slow-query log.

    Fingerprints come from [Mad_mql.Fingerprint] (literals stripped,
    structure kept); plan hashes from [Mad_mql.Translate.plan_hash].  Rows
    are backed by registry instruments ([digest.calls] /
    [digest.errors] / [digest.rows] / [digest.latency_us] labeled
    [fp]/[plan], and the global [plan.switch] counter), so the digest
    is exported by {!Registry.expose} with no extra plumbing.  A
    fingerprint arriving under a new plan hash journals a
    {!Recorder.Plan_switch} event and bumps [plan.switch]. *)

type t

val create : Registry.t -> t
(** A digest store registering its instruments (including the
    [plan.switch] counter) into [registry]. *)

val registry : t -> Registry.t

val switch_count : t -> int
(** Total plan switches observed (the [plan.switch] counter). *)

val record :
  t ->
  fp:int ->
  text:string ->
  plan:int ->
  latency_us:float ->
  rows:int ->
  error:bool ->
  ?exemplar:int ->
  unit ->
  bool
(** Record one statement execution under fingerprint [fp] (normalized
    text [text]) and plan hash [plan].  [exemplar] is a flight-recorder
    seq for the latency histogram bucket.  Returns [true] when the
    fingerprint switched plans (journaled and counted internally). *)

val note_drift : t -> fp:int -> text:string -> plan:int -> err:float -> unit
(** Fold one EXPLAIN ANALYZE estimate-vs-actual reading
    ([Mad_mql.Profile.error]) into the (fingerprint, plan) row. *)

(** {1 Reporting} *)

type report_row = {
  r_fp : int;
  r_text : string;
  r_plan : int;
  r_calls : int;
  r_errors : int;
  r_rows : int;
  r_total_us : float;
  r_mean_us : float;
  r_p95_us : float;
  r_max_us : float;
  r_drift : float;  (** mean |estimate − actual| per ANALYZE run *)
  r_switches : int;  (** the owning fingerprint's plan switches *)
}

type order = [ `Total | `Mean | `Calls ]

val report : t -> report_row list
(** Every (fingerprint, plan) row, fingerprint insertion order. *)

val top : ?by:order -> int -> t -> report_row list
(** Top-K rows by total latency (default), mean latency, or calls. *)

val pp_table : Format.formatter -> report_row list -> unit

val to_json : ?by:order -> ?top:int -> t -> Json.t
(** Rows grouped under their fingerprints:
    [{"plan_switches": N, "fingerprints": [{"fingerprint", "text",
    "switches", "plans": [{"plan_hash", "calls", ...}]}]}]. *)

val hex : int -> string
(** The hex rendering used for fingerprint / plan-hash labels. *)

(** {1 Persistence ([digest.mad])} *)

val to_string : t -> string
(** Serialize as [digest.mad] (the [.mad] word syntax, statement text
    quoted). *)

val merge_string : warn:(string -> unit) -> t -> string -> bool
(** Merge a serialized digest into the live store (counts add,
    histograms absorb) under {!Mad_store.Serialize.read_advisory}'s
    policy: [false] on a bad header, malformed records skipped with
    one warning. *)

val save : t -> string -> unit
(** Write atomically. *)

val load : t -> string -> bool
(** Merge the digest file at [path] into [t]; [false] when absent or
    ignored. *)

(** {1 Slow-query log}

    Process-global configuration, seeded from [MAD_SLOW_LOG=MS] or
    [MAD_SLOW_LOG=MS:FILE] and overridden by [--slow-log] via
    {!set_slow_log}.  Entries are JSON lines appended to the log
    file. *)

val slow_threshold_ms : unit -> float option
(** The active threshold; [None] disables the slow log. *)

val slow_log_path : unit -> string
val set_slow_log : ?path:string -> float option -> unit

type slow_entry = {
  sl_stmt : string;  (** the full statement, literals intact *)
  sl_fp : int;
  sl_plan : int;
  sl_ms : float;
  sl_plan_text : string;  (** the algebra plan (EXPLAIN rendering) *)
  sl_analyze : string option;  (** EXPLAIN ANALYZE tree when executable *)
  sl_events : Recorder.event list;  (** flight-recorder window *)
}

val slow_entry_json : slow_entry -> Json.t

val log_slow : slow_entry -> unit
(** Append one JSON line to the slow log and journal a
    {!Recorder.Slow_query} instant. *)
