(** The per-session adaptive statistics catalog: the feedback loop
    between [EXPLAIN ANALYZE] and {!Stats}.

    Each profiled statement's recorded actuals are fed back through
    {!Stats.refine}, so a session's estimates converge onto its
    workload (exponentially weighted — repeated queries dominate, one
    outlier run cannot wreck the catalog).  Nodes whose estimate was
    off by more than the drift factor are logged; the drift report is
    the optimizer-facing answer to "which plans were costed wrong?".

    [Mad_mql.Session] sits below PRIMA and cannot depend on this
    module, so the state rides in the session's extension slot
    ({!Mad_mql.Session.ext}) and {!install} registers the profiling
    hook: {!Profile.analyze_stmt} wrapped in the learning loop. *)

module Session = Mad_mql.Session

type drift_entry = {
  de_stmt : string;  (** the statement kind/name the drift came from *)
  de_drift : Profile.drift;
}

type state = {
  mutable catalog : Stats.t option;  (** [None] until first profiled run *)
  mutable drifts : drift_entry list;  (** newest first *)
  mutable refinements : int;
  alpha : float;
  factor : float;  (** drift threshold, an off-by factor *)
  plan_memo : (int, int * int * int) Hashtbl.t;
      (** fingerprint -> (refinements, epoch, plan hash): the digest's
          plan-hash cache, stale once the catalog refines or the
          database mutates *)
  mutable plan_mru : int * int * int * int;
      (** (fingerprint, refinements, epoch, hash) of the last lookup —
          the steady-state hit skips even the memo probe *)
}

type Session.ext += Adaptive of state

let default_factor =
  match Option.map float_of_string_opt (Sys.getenv_opt "MAD_DRIFT_FACTOR") with
  | Some (Some f) when Float.is_finite f && f >= 1.0 -> f
  | _ -> 2.0

(** The session's adaptive state, created on first use.  [alpha] and
    [factor] only apply at creation; [MAD_DRIFT_FACTOR] overrides the
    default threshold. *)
let state ?(alpha = 0.5) ?(factor = default_factor) (session : Session.t) =
  match session.Session.ext with
  | Some (Adaptive st) -> st
  | _ ->
    let st =
      { catalog = None; drifts = []; refinements = 0; alpha; factor;
        plan_memo = Hashtbl.create 16; plan_mru = (-1, -1, -1, 0) }
    in
    session.Session.ext <- Some (Adaptive st);
    st

let catalog st db =
  match st.catalog with
  | Some c -> c
  | None ->
    let c = Stats.collect db in
    st.catalog <- Some c;
    c

(** Record one profiled run: log its drift against the threshold,
    refine the catalog with the actuals.  Returns the drift entries of
    this run. *)
let observe st ~stmt (r : Profile.t) =
  let drifted = Profile.drift ~factor:st.factor r in
  st.drifts <-
    List.rev_append
      (List.rev_map (fun d -> { de_stmt = stmt; de_drift = d }) drifted)
      st.drifts;
  (match st.catalog with
   | Some c -> st.catalog <- Some (Profile.refine ~alpha:st.alpha c r)
   | None -> ());
  st.refinements <- st.refinements + 1;
  drifted

(* ------------------------------------------------------------------ *)
(* Plan identity for the workload digest                                *)

(* the same fallback Session uses for statements without a physical
   plan: one pseudo plan per statement kind *)
let kind_plan stmt =
  Mad_mql.Fingerprint.hash ("kind:" ^ Session.stmt_kind stmt)

(** The hash of the plan the engine would choose for [stmt] right now:
    the algebraic rewrites plus the adaptive catalog's
    {!Stats.replan}.  Memoized per fingerprint and invalidated when
    the catalog refines or the database mutates, so steady-state
    digest recording costs one hashtable probe, not a planning
    pass. *)
let plan_hash_stmt (session : Session.t) ~fp stmt =
  let st = state session in
  let db = session.Session.db in
  let epoch = Mad_store.Database.epoch db in
  (* memo first: a hit must not pay structure resolution, which is why
     the probes happen before [query_of_stmt] *)
  match st.plan_mru with
  | f, r, e, h when f = fp && r = st.refinements && e = epoch -> h
  | _ ->
    let h =
      match Hashtbl.find st.plan_memo fp with
      | (r, e, h) when r = st.refinements && e = epoch -> h
      | _ | (exception Not_found) ->
        let h =
          match Profile.query_of_stmt db stmt with
          | None -> kind_plan stmt
          | Some q ->
            Planner.plan_hash
              (Stats.replan (catalog st db) (Planner.plan ~optimize:true q))
        in
        Hashtbl.replace st.plan_memo fp (st.refinements, epoch, h);
        h
    in
    st.plan_mru <- (fp, st.refinements, epoch, h);
    h

(* ------------------------------------------------------------------ *)
(* The session hook                                                     *)

(** [EXPLAIN ANALYZE] with learning: profile against the session's
    adaptive catalog, then feed the actuals back and log drift.  The
    report grows a trailing adaptive section naming the drifted nodes
    and the refinement count. *)
let analyze_stmt (session : Session.t) stmt =
  match Profile.query_of_stmt session.Session.db stmt with
  | Some q ->
    let st = state session in
    let stats = catalog st session.Session.db in
    let r = Profile.analyze ~stats session.Session.db q in
    let drifted = observe st ~stmt:q.Planner.name r in
    (* feed the estimate-vs-actual gap into the workload digest, keyed
       by the profiled statement's own fingerprint and plan *)
    (match session.Session.digest with
     | Some dg ->
       let fp, text = Mad_mql.Fingerprint.of_stmt stmt in
       Mad_obs.Digest.note_drift dg ~fp ~text
         ~plan:(Planner.plan_hash r.Profile.plan)
         ~err:(Profile.error r)
     | None -> ());
    Format.asprintf "%a%a" Profile.pp r
      (fun ppf -> function
        | [] ->
          Fmt.pf ppf "adaptive: catalog refined (%d run(s)); no drift over %.1fx@."
            st.refinements st.factor
        | ds ->
          Fmt.pf ppf
            "adaptive: catalog refined (%d run(s)); drift over %.1fx: %a@."
            st.refinements st.factor
            Fmt.(list ~sep:(any "; ") Profile.pp_drift)
            ds)
      drifted
  | None -> Profile.analyze_stmt session stmt

(** Register the learning profiler as the session layer's
    [EXPLAIN ANALYZE] engine, and the
    plan hasher behind the workload digest. *)
let install () =
  Session.analyze_hook := Some analyze_stmt;
  Session.plan_hash_hook := Some plan_hash_stmt

(* ------------------------------------------------------------------ *)
(* Catalog persistence                                                  *)

(** Persist the session's refined catalog as a [stats.mad] file
    ({!Catalog_io}); [false] when the session has no adaptive state or
    the catalog was never collected (nothing learned, nothing saved). *)
let save_session (session : Session.t) path =
  match session.Session.ext with
  | Some (Adaptive { catalog = Some c; _ }) ->
    Catalog_io.save c path;
    true
  | _ -> false

(** Install a previously-saved catalog as the session's adaptive
    starting point, superseding the static collection of the first
    profiled run; [false] when the file does not exist. *)
let load_session ?alpha ?factor (session : Session.t) path =
  match Catalog_io.load_opt path with
  | None -> false
  | Some c ->
    let st = state ?alpha ?factor session in
    st.catalog <- Some c;
    true

(* ------------------------------------------------------------------ *)
(* The drift report                                                     *)

let pp_report ppf (session : Session.t) =
  match session.Session.ext with
  | Some (Adaptive st) ->
    Fmt.pf ppf "@[<v>adaptive catalog: %d refinement(s), drift threshold %.1fx@,"
      st.refinements st.factor;
    (match st.drifts with
     | [] -> Fmt.pf ppf "no drift recorded@]"
     | ds ->
       Fmt.pf ppf "%a@]"
         Fmt.(
           list ~sep:(any "@,") (fun ppf e ->
               Fmt.pf ppf "%s: %a" e.de_stmt Profile.pp_drift e.de_drift))
         (List.rev ds))
  | _ -> Fmt.pf ppf "adaptive catalog: no profiled runs yet"

let report session = Format.asprintf "%a" pp_report session
