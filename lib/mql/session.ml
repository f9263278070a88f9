(** MOL sessions: a database plus a catalog of molecule types defined
    by [DEFINE MOLECULE] (dynamic object definition — "our complex
    object definition is defined on demand in the queries and not fixed
    in the schema"). *)

open Mad_store

type outcome =
  | Defined of Mad.Molecule_type.t
  | Result of Translate.result
  | Inserted of Atom.t
  | Dml of string  (** summary of a manipulation statement's effect *)
  | Explained of string  (** EXPLAIN / EXPLAIN ANALYZE report *)

(** Extension slot for upper layers: this library sits below the
    physical engine, so per-session state owned by PRIMA (the adaptive
    statistics catalog, see [Prima.Adaptive]) is carried opaquely via
    an extensible variant rather than a direct dependency. *)
type ext = ..

type commit_handle = int

type t = {
  db : Database.t;
  env : (string, Mad.Molecule_type.t) Hashtbl.t;
  stats : Mad.Derive.stats;
  obs : Mad_obs.Obs.t;
  mutable ext : ext option;
  mutable commit_hooks : (commit_handle * (unit -> unit)) list;
      (** Run, in registration order, after every successful
          manipulation statement — the statement-level durability
          boundary.  A durable session registers the engine's group
          commit (flush + fsync) here, so autocommit costs one fsync
          per {e statement}, not per journal record; the network
          server registers a second hook that routes the statement
          through the cross-session commit coordinator.  Hooks are a
          list precisely so those two do not clobber each other. *)
  mutable hook_seq : int;  (** next {!commit_handle} *)
  mutable digest : Mad_obs.Digest.t option;
      (** Workload digest; [None] (the default) records nothing.
          {!enable_digest} creates one against the session registry. *)
  mutable slow_guard : bool;
      (** True while a slow-log capture is re-running the statement
          (EXPLAIN ANALYZE) — suppresses recursive slow-logging. *)
  fp_cache : (string, int * string) Hashtbl.t;
      (** source text -> (fingerprint, normalized text): normalization
          prints the whole AST, so a repeated statement must not pay it
          twice ({!run} consults this before fingerprinting) *)
  mutable fp_mru : (string * (int * string)) option;
      (** the last {!run} source and its fingerprint — a driver looping
          one statement skips even the cache probe *)
  mutable refreshed_epoch : int;
      (** the database epoch the catalog was last re-derived at —
          {!refresh} consults the delta window between it and the
          current epoch to skip types the mutations cannot have
          touched *)
  mutable last_commit_us : float;
      (** wall-clock µs the last {!commit} spent in its hooks (WAL
          flush + fsync publication); [0] when the last statement
          committed nothing.  The server takes-and-resets this to
          attribute the WAL share of a request's latency to its own
          phase ({!take_last_commit_us}). *)
}

(** [EXPLAIN ANALYZE] needs the physical engine, which lives above this
    library; installing a profiler (see [Prima.Adaptive.install]) routes
    the statement there.  Without one, ANALYZE falls back to executing
    the statement and reporting the session-level actuals. *)
let analyze_hook : (t -> Ast.stmt -> string) option ref = ref None

(** The digest needs the physical plan's identity, which also lives
    above this library; [Prima.Adaptive.install] registers a hasher
    here.  Without one, digest rows fall back to a per-statement-kind
    pseudo plan. *)
let plan_hash_hook : (t -> fp:int -> Ast.stmt -> int) option ref = ref None

let create ?obs db =
  let obs = match obs with Some o -> o | None -> Mad_obs.Obs.default () in
  (* delta-track the database so refresh (and the kernel caches below
     it) can repair instead of rebuild after manipulation statements *)
  Mad_kernel.Delta.track db;
  {
    db;
    env = Hashtbl.create 16;
    stats = Mad.Derive.stats_in (Mad_obs.Obs.registry obs);
    obs;
    ext = None;
    commit_hooks = [];
    hook_seq = 0;
    digest = None;
    slow_guard = false;
    fp_cache = Hashtbl.create 64;
    fp_mru = None;
    refreshed_epoch = Database.epoch db;
    last_commit_us = 0.0;
  }

let enable_digest t =
  match t.digest with
  | Some d -> d
  | None ->
    let d = Mad_obs.Digest.create (Mad_obs.Obs.registry t.obs) in
    t.digest <- Some d;
    d

(* commit hooks: a registration list, so the durability engine's group
   commit and the network server's commit coordinator can both observe
   statement boundaries without clobbering each other *)

let add_on_commit t f =
  let h = t.hook_seq in
  t.hook_seq <- t.hook_seq + 1;
  t.commit_hooks <- t.commit_hooks @ [ (h, f) ];
  h

let remove_on_commit t h =
  t.commit_hooks <- List.filter (fun (h', _) -> h' <> h) t.commit_hooks

(* the commit is timed as its own operator so fsync stalls show up in
   [op.latency_us{op=mql.commit}] (with a flight-recorder exemplar)
   instead of hiding inside the statement's latency *)
let commit t =
  match t.commit_hooks with
  | [] -> ()
  | hooks ->
    Mad_obs.Obs.timed t.obs "mql.commit" (fun () ->
        List.iter (fun (_, f) -> f ()) hooks);
    let d = Mad_obs.Obs.last_dur_us t.obs in
    if d > 0.0 then t.last_commit_us <- t.last_commit_us +. d

let take_last_commit_us t =
  let d = t.last_commit_us in
  t.last_commit_us <- 0.0;
  d

let lookup t name = Hashtbl.find_opt t.env name

let define t name (mt : Mad.Molecule_type.t) =
  if Hashtbl.mem t.env name then
    Err.failf "molecule type %s already defined in this session" name;
  Hashtbl.replace t.env name mt

let parse t src = Parser.parse ~env_has:(Hashtbl.mem t.env) src

(* A named FROM definition ([mt_state(state-area-edge-point)]) enters
   the session catalog, as in ch. 4's mt_state example, and the query
   proceeds against the catalogued type. *)
let rec hoist_from t (from : Ast.from_item) : Ast.from_item =
  match from with
  | Ast.From_named_def (name, s) ->
    (match lookup t name with
     | Some _ -> ()
     | None ->
       let desc = Translate.resolve_structure t.db s in
       define t name (Mad.Molecule_algebra.define ~stats:t.stats t.db ~name desc));
    Ast.From_ref name
  | Ast.From_product (a, b) -> Ast.From_product (hoist_from t a, hoist_from t b)
  | (Ast.From_anon _ | Ast.From_ref _ | Ast.From_recursive _ | Ast.From_cycle _)
    as f ->
    f

let rec hoist_definitions t (q : Ast.qexpr) : Ast.qexpr =
  match q with
  | Ast.Q core -> Ast.Q { core with Ast.from = hoist_from t core.Ast.from }
  | Ast.Union (a, b) -> Ast.Union (hoist_definitions t a, hoist_definitions t b)
  | Ast.Diff (a, b) -> Ast.Diff (hoist_definitions t a, hoist_definitions t b)
  | Ast.Intersect (a, b) ->
    Ast.Intersect (hoist_definitions t a, hoist_definitions t b)

(* Manipulation statements change the occurrence, so cached molecule
   types in the catalog are re-derived afterwards (dynamic object
   definition makes this cheap and always consistent).  The delta
   window between the last refresh and the current epoch narrows the
   sweep: a type is re-derived only when the window touched one of its
   structure's atom types or link types — attribute-only windows touch
   neither (occurrences are structural; attribute values are fetched
   live at qualification time), so they re-derive nothing. *)
let refresh t =
  let e = Database.epoch t.db in
  if e <> t.refreshed_epoch then begin
    let w =
      Mad_kernel.Delta.window t.db ~from_epoch:t.refreshed_epoch ~to_epoch:e
    in
    let needs (mt : Mad.Molecule_type.t) =
      match w with
      | None -> true
      | Some w ->
        let d = mt.Mad.Molecule_type.desc in
        List.exists (Mad_kernel.Delta.touches_atype w) (Mad.Mdesc.nodes d)
        || List.exists
             (fun (edge : Mad.Mdesc.edge) ->
               Mad_kernel.Delta.touches_link w edge.link)
             (Mad.Mdesc.edges d)
    in
    Hashtbl.iter
      (fun name (mt : Mad.Molecule_type.t) ->
        if needs mt then
          Hashtbl.replace t.env name
            (Mad.Molecule_algebra.define ~stats:t.stats t.db ~name
               mt.Mad.Molecule_type.desc))
      (Hashtbl.copy t.env);
    t.refreshed_epoch <- e
  end

(* Resolve a DML target: the base molecule type plus the victims
   selected by the optional qualification. *)
let dml_target t from where =
  let mt =
    match from with
    | Ast.From_named_def (name, s) -> begin
      match lookup t name with
      | Some mt -> mt
      | None ->
        let desc = Translate.resolve_structure t.db s in
        let mt = Mad.Molecule_algebra.define ~stats:t.stats t.db ~name desc in
        define t name mt;
        mt
    end
    | Ast.From_ref name -> begin
      match lookup t name with
      | Some mt -> mt
      | None -> Err.failf "unknown molecule type %s" name
    end
    | Ast.From_anon s ->
      let desc = Translate.resolve_structure t.db s in
      Mad.Molecule_algebra.define ~stats:t.stats t.db
        ~name:(Mad.Molecule_algebra.gen_name "dml")
        desc
    | Ast.From_recursive _ | Ast.From_cycle _ ->
      Err.failf "manipulation statements do not accept recursive targets"
    | Ast.From_product _ ->
      Err.failf "manipulation statements do not accept product targets"
  in
  let victims =
    match where with
    | None -> Mad.Molecule_type.occ mt
    | Some pred ->
      Mad.Molecule_algebra.typecheck_qual t.db mt pred;
      List.filter
        (fun m -> Mad.Molecule_algebra.molecule_satisfies t.db mt m pred)
        (Mad.Molecule_type.occ mt)
  in
  (mt, victims)

(** EXPLAIN: the algebra plan a statement compiles to. *)
let rec explain_stmt t (stmt : Ast.stmt) =
  match stmt with
  | Ast.Define (name, s) ->
    Format.asprintf "α[%s](%a)" name Mad.Mdesc.pp
      (Translate.resolve_structure t.db s)
  | Ast.Query q ->
    Format.asprintf "%a" Translate.pp_plan (Translate.compile t.db (lookup t) q)
  | Ast.Explain { analyze = _; stmt } -> explain_stmt t stmt
  | (Ast.Insert _ | Ast.Link _ | Ast.Unlink _ | Ast.Delete _ | Ast.Modify _) as
    stmt ->
    Format.asprintf "manipulation: %a" Ast.pp_stmt stmt

let stmt_kind = function
  | Ast.Define _ -> "define"
  | Ast.Query _ -> "query"
  | Ast.Insert _ -> "insert"
  | Ast.Link _ -> "link"
  | Ast.Unlink _ -> "unlink"
  | Ast.Delete _ -> "delete"
  | Ast.Modify _ -> "modify"
  | Ast.Explain _ -> "explain"

(* Fault injection for health-probe smoke tests ([madql health
   --inject-slow]): busy-wait on {!Mad_obs.Monotonic.clock} inside the
   statement's timed block, so the injected latency lands in the
   digest histograms the latency probe watches.  A spin (not a sleep)
   keeps this library free of a unix dependency and respects
   deterministic test clocks. *)
let fault_spin_ms : float option ref = ref None

let fault_spin () =
  match !fault_spin_ms with
  | Some ms when ms > 0.0 ->
    let until = !Mad_obs.Monotonic.clock () +. (ms /. 1000.0) in
    while !Mad_obs.Monotonic.clock () < until do
      ignore (Sys.opaque_identity ())
    done
  | Some _ | None -> ()

let rec eval_stmt_inner t (stmt : Ast.stmt) : outcome =
  (* one root span per statement; everything the engine does beneath —
     algebra operators, derivations, closure checks — nests under it *)
  Mad_obs.Obs.timed t.obs "mql.statement" @@ fun () ->
  fault_spin ();
  match stmt with
  | Ast.Define (name, s) ->
    let desc = Translate.resolve_structure t.db s in
    let mt =
      Mad.Molecule_algebra.define ~obs:t.obs ~stats:t.stats t.db ~name desc
    in
    define t name mt;
    Defined mt
  | Ast.Query q ->
    let q = hoist_definitions t q in
    let plan = Translate.compile t.db (lookup t) q in
    Result (Translate.run ~obs:t.obs ~stats:t.stats t.db (lookup t) plan)
  | Ast.Explain { analyze = false; stmt } -> Explained (explain_stmt t stmt)
  | Ast.Explain { analyze = true; stmt } -> begin
    match !analyze_hook with
    | Some hook -> Explained (hook t stmt)
    | None ->
      (* no physical engine installed: execute anyway and report the
         session-level actuals against the algebra plan *)
      let a0 = Mad.Derive.atoms_visited t.stats
      and l0 = Mad.Derive.links_traversed t.stats in
      let path = Mad.Derive.describe_path t.db in
      let t0 = !Mad_obs.Monotonic.clock () in
      let outcome = eval_stmt_inner t stmt in
      let ms = (!Mad_obs.Monotonic.clock () -. t0) *. 1000. in
      let molecules =
        match outcome with
        | Result (Translate.Molecules mt) ->
          Printf.sprintf "%d molecule(s), "
            (List.length (Mad.Molecule_type.occ mt))
        | Defined mt ->
          Printf.sprintf "%d molecule(s), "
            (List.length (Mad.Molecule_type.occ mt))
        | Result (Translate.Recursive _ | Translate.Cycles _)
        | Inserted _ | Dml _ | Explained _ ->
          ""
      in
      Explained
        (Format.asprintf
           "%s@.derive: %s@.actual: %s%d atoms visited, %d links traversed \
            (%.2f ms)"
           (explain_stmt t stmt) path molecules
           (Mad.Derive.atoms_visited t.stats - a0)
           (Mad.Derive.links_traversed t.stats - l0)
           ms)
  end
  | Ast.Insert { atype; values; links } ->
    let atom = Mad.Manipulate.insert_atom_linked t.db ~atype values ~links in
    refresh t;
    commit t;
    Inserted atom
  | Ast.Link { lt; left; right } ->
    let ltype = Database.link_type t.db lt in
    let e1, _ = ltype.Schema.Link_type.ends in
    let a_left = Database.atom t.db left in
    (* accept either role order for non-reflexive link types *)
    if String.equal a_left.Atom.atype e1 then
      Database.add_link t.db lt ~left ~right
    else Database.add_link t.db lt ~left:right ~right:left;
    refresh t;
    commit t;
    Dml (Printf.sprintf "linked @%d and @%d via %s" left right lt)
  | Ast.Unlink { lt; left; right } ->
    Database.remove_link t.db lt ~left ~right;
    Database.remove_link t.db lt ~left:right ~right:left;
    refresh t;
    commit t;
    Dml (Printf.sprintf "unlinked @%d and @%d via %s" left right lt)
  | Ast.Delete { from; where; detach } ->
    let mt, victims = dml_target t from where in
    let mode = if detach then `Unlink_only else `Shared_safe in
    let report = Mad.Manipulate.delete_molecules ~mode t.db mt victims in
    refresh t;
    commit t;
    Dml
      (Printf.sprintf
         "deleted %d molecule(s): %d atom(s) removed, %d shared atom(s) kept"
         report.Mad.Manipulate.molecules_deleted
         report.Mad.Manipulate.atoms_deleted
         report.Mad.Manipulate.atoms_kept_shared)
  | Ast.Modify { node; attr; value; from; where } ->
    let _, victims = dml_target t from where in
    let n = Mad.Manipulate.modify_attribute t.db ~node ~attr value victims in
    refresh t;
    commit t;
    Dml (Printf.sprintf "modified %s.%s on %d atom(s)" node attr n)

(* ------------------------------------------------------------------ *)
(* Workload digest & slow-query log                                     *)

let rows_of = function
  | Defined mt | Result (Translate.Molecules mt) ->
    List.length (Mad.Molecule_type.occ mt)
  | Result (Translate.Recursive r) ->
    List.length r.Mad_recursive.Recursive.occ
  | Result (Translate.Cycles c) ->
    List.length c.Mad_recursive.Recursive.cocc
  | Inserted _ -> 1
  | Dml _ | Explained _ -> 0

(* without the physical engine's hasher, the statement kind stands in
   for the plan — one pseudo plan per kind, so DML still aggregates *)
let fallback_plan stmt = Fingerprint.hash ("kind:" ^ stmt_kind stmt)

(** Capture a slow statement: full text, algebra plan, EXPLAIN ANALYZE
    tree (queries only — re-running DML would double-apply it) and the
    flight-recorder window since the statement started. *)
let slow_log t stmt ~fp ~plan ~ms ~seq0 =
  let plan_text =
    try explain_stmt t stmt with _ -> "<plan unavailable>"
  in
  let analyze =
    match (stmt, !analyze_hook) with
    | Ast.Query _, Some hook -> ( try Some (hook t stmt) with _ -> None)
    | _ -> None
  in
  let events =
    if Mad_obs.Recorder.enabled () then
      List.filter
        (fun ev -> ev.Mad_obs.Recorder.e_seq >= seq0)
        (Mad_obs.Recorder.drain (Mad_obs.Recorder.global ()))
    else []
  in
  Mad_obs.Digest.log_slow
    {
      Mad_obs.Digest.sl_stmt = Ast.to_string stmt;
      sl_fp = fp;
      sl_plan = plan;
      sl_ms = ms;
      sl_plan_text = plan_text;
      sl_analyze = analyze;
      sl_events = events;
    }

let maybe_slow_log t stmt ~fp ~plan ~ms ~seq0 =
  match Mad_obs.Digest.slow_threshold_ms () with
  | Some th when ms >= th && not t.slow_guard ->
    t.slow_guard <- true;
    Fun.protect
      ~finally:(fun () -> t.slow_guard <- false)
      (fun () -> slow_log t stmt ~fp ~plan ~ms ~seq0)
  | Some _ | None -> ()

let eval_stmt ?fp_text t (stmt : Ast.stmt) : outcome =
  match t.digest with
  | None -> eval_stmt_inner t stmt
  | Some dg ->
    let fp, text =
      match fp_text with
      | Some v -> v
      | None -> Fingerprint.of_stmt stmt
    in
    let plan =
      match !plan_hash_hook with
      | Some h -> ( try h t ~fp stmt with _ -> fallback_plan stmt)
      | None -> fallback_plan stmt
    in
    let seq0 = Mad_obs.Recorder.recorded (Mad_obs.Recorder.global ()) in
    (* [eval_stmt_inner] runs under [timed "mql.statement"], whose
       measurement we reuse; only a noop context (which never times)
       needs a clock pair of our own *)
    let noop_obs = Mad_obs.Obs.is_noop t.obs in
    let t0 = if noop_obs then !Mad_obs.Monotonic.clock () else 0.0 in
    (match eval_stmt_inner t stmt with
     | outcome ->
       let ms =
         if noop_obs then (!Mad_obs.Monotonic.clock () -. t0) *. 1e3
         else Mad_obs.Obs.last_dur_us t.obs /. 1e3
       in
       ignore
         (Mad_obs.Digest.record dg ~fp ~text ~plan ~latency_us:(ms *. 1e3)
            ~rows:(rows_of outcome) ~error:false
            ~exemplar:(Mad_obs.Obs.last_seq t.obs)
            ());
       maybe_slow_log t stmt ~fp ~plan ~ms ~seq0;
       outcome
     | exception e ->
       let ms =
         if noop_obs then (!Mad_obs.Monotonic.clock () -. t0) *. 1e3
         else Mad_obs.Obs.last_dur_us t.obs /. 1e3
       in
       ignore
         (Mad_obs.Digest.record dg ~fp ~text ~plan ~latency_us:(ms *. 1e3)
            ~rows:0 ~error:true
            ~exemplar:(Mad_obs.Obs.last_seq t.obs)
            ());
       maybe_slow_log t stmt ~fp ~plan ~ms ~seq0;
       raise e)

(** Parse and evaluate one statement of MOL text.  The parse is timed
    as its own operator ([op.latency_us{op=mql.parse}]) so digest
    overhead attribution is complete. *)
let run t src =
  (* the statement path drives the global timeline (interval gated,
     near-free while MAD_OBS_TICK is unset); ticking even when the
     statement raises keeps frames arriving through error storms *)
  Fun.protect
    ~finally:(fun () ->
      Mad_obs.Timeline.auto_tick ~epoch:(Database.epoch t.db)
        (Mad_obs.Obs.registry t.obs))
  @@ fun () ->
  let stmt = Mad_obs.Obs.timed t.obs "mql.parse" (fun () -> parse t src) in
  match t.digest with
  | None -> eval_stmt t stmt
  | Some _ ->
    let fp_text =
      match t.fp_mru with
      | Some (s, v) when s == src || String.equal s src -> v
      | _ ->
        let v =
          match Hashtbl.find t.fp_cache src with
          | v -> v
          | exception Not_found ->
            let v = Fingerprint.of_stmt stmt in
            (* bounded: a literal-heavy workload keys many sources to
               few fingerprints; reset rather than evict, it rewarms *)
            if Hashtbl.length t.fp_cache >= 1024 then
              Hashtbl.reset t.fp_cache;
            Hashtbl.replace t.fp_cache src v;
            v
        in
        t.fp_mru <- Some (src, v);
        v
    in
    eval_stmt ~fp_text t stmt

(** Evaluate and render the outcome as the CLI/examples print it. *)
let run_to_string t src =
  match run t src with
  | Defined mt ->
    Format.asprintf "defined %a" Mad.Molecule_type.pp_summary mt
  | Result (Translate.Molecules mt) ->
    Format.asprintf "%a" (fun ppf () -> Mad.Render.pp_molecule_type t.db ppf mt) ()
  | Result (Translate.Recursive r) ->
    Format.asprintf "%a" Mad_recursive.Recursive.pp (t.db, r)
  | Result (Translate.Cycles c) ->
    Format.asprintf "%a" Mad_recursive.Recursive.pp_cycle (t.db, c)
  | Inserted atom ->
    Format.asprintf "inserted %a as @%d" Fmt.string atom.Atom.atype
      atom.Atom.id
  | Dml msg -> msg
  | Explained report -> report

(** EXPLAIN: the algebra plan a statement compiles to. *)
let explain t src = explain_stmt t (parse t src)
