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

type commit_handle = int

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
  mutable catalog : Prima.Stats.t option;
      (** the adaptive statistics catalog: collected on first use
          (never at DEFINE), refined by every EXPLAIN ANALYZE *)
  mutable refinements : int;
  mutable drifts : drift_entry list;  (** newest first *)
  mutable last_plan : Translate.plan option;
      (** the plan the last statement ran, for its digest row *)
  mutable last_error : float option;
      (** the last EXPLAIN ANALYZE's estimate error, for its digest row *)
  plan_memo : (int, plan_memo) Hashtbl.t;
      (** fingerprint -> plan hash: a statement shape plans alike until
          the statistics catalog refines or a DEFINE changes what its
          names mean *)
}

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
    commit_hooks = [];
    hook_seq = 0;
    digest = None;
    fp_cache = Hashtbl.create 64;
    fp_mru = None;
    refreshed_epoch = Database.epoch db;
    last_commit_us = 0.0;
    catalog = None;
    refinements = 0;
    drifts = [];
    last_plan = None;
    last_error = None;
    plan_memo = Hashtbl.create 16;
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
   proceeds against the catalogued type: the plan refers to it by
   name, whole, so nothing is pushed into it. *)
let catalogued t name s =
  match lookup t name with
  | Some mt -> mt
  | None ->
    let desc = Translate.resolve_structure t.db s in
    let mt = Mad.Molecule_algebra.define ~stats:t.stats t.db ~name desc in
    define t name mt;
    mt

let rec hoist t (q : Ast.qexpr) =
  let rec from = function
    | Ast.From_named_def (name, s) -> ignore (catalogued t name s)
    | Ast.From_product (a, b) ->
      from a;
      from b
    | Ast.From_anon _ | Ast.From_ref _ | Ast.From_recursive _ | Ast.From_cycle _
      ->
      ()
  in
  match q with
  | Ast.Q core -> from core.Ast.from
  | Ast.Union (a, b) | Ast.Diff (a, b) | Ast.Intersect (a, b) ->
    hoist t a;
    hoist t b

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

(* ------------------------------------------------------------------ *)
(* The adaptive statistics catalog                                      *)

let drift_factor =
  match Option.map float_of_string_opt (Sys.getenv_opt "MAD_DRIFT_FACTOR") with
  | Some (Some f) when Float.is_finite f && f >= 1.0 -> f
  | _ -> 2.0

let catalog t =
  match t.catalog with
  | Some c -> c
  | None ->
    let c = Prima.Stats.collect t.db in
    t.catalog <- Some c;
    c

let save_catalog t path =
  match t.catalog with
  | Some c ->
    Prima.Catalog_io.save c path;
    true
  | None -> false

let load_catalog t path =
  match Prima.Catalog_io.load_opt path with
  | None -> false
  | Some c ->
    t.catalog <- Some c;
    t.refinements <- t.refinements + 1;
    true

(* Feed one profiled run back: log its drift against the threshold
   and refine the catalog with its actuals, exponentially weighted
   (repeated queries dominate, one outlier cannot wreck the catalog). *)
let learn t ~stmt (r : Profile.t) =
  let drifted = Profile.drift ~factor:drift_factor r in
  t.drifts <-
    List.rev_append
      (List.rev_map (fun d -> { de_stmt = stmt; de_drift = d }) drifted)
      t.drifts;
  t.catalog <- Some (Profile.refine ~alpha:0.5 (catalog t) r);
  t.refinements <- t.refinements + 1;
  t.last_error <- Some (Profile.error r);
  drifted

let pp_drift_report ppf t =
  if t.refinements = 0 && t.drifts = [] then
    Fmt.pf ppf "adaptive catalog: no profiled runs yet"
  else begin
    Fmt.pf ppf
      "@[<v>adaptive catalog: %d refinement(s), drift threshold %.1fx@,"
      t.refinements drift_factor;
    match t.drifts with
    | [] -> Fmt.pf ppf "no drift recorded@]"
    | ds ->
      Fmt.pf ppf "%a@]"
        Fmt.(
          list ~sep:(any "@,") (fun ppf e ->
              Fmt.pf ppf "%s: %a" e.de_stmt Profile.pp_drift e.de_drift))
        (List.rev ds)
  end

let drift_report t = Format.asprintf "%a" pp_drift_report t

(* ------------------------------------------------------------------ *)
(* Planning                                                             *)

(** The plan a query runs: the naive translation, rewritten. *)
let plan t q =
  Translate.optimize
    ~catalog:(fun () -> catalog t)
    (Translate.compile t.db (lookup t) q)

let stmt_kind = function
  | Ast.Define _ -> "define"
  | Ast.Query _ -> "query"
  | Ast.Insert _ -> "insert"
  | Ast.Link _ -> "link"
  | Ast.Unlink _ -> "unlink"
  | Ast.Delete _ -> "delete"
  | Ast.Modify _ -> "modify"
  | Ast.Explain _ -> "explain"

(* the plan of a statement, noted for its digest row; manipulation
   statements have none *)
let rec plan_stmt t (stmt : Ast.stmt) =
  let p =
    match stmt with
    | Ast.Define (name, s) ->
      Some (Translate.alpha ~name (Translate.resolve_structure t.db s))
    | Ast.Query q -> Some (plan t q)
    | Ast.Explain { stmt; _ } -> plan_stmt t stmt
    | Ast.Insert _ | Ast.Link _ | Ast.Unlink _ | Ast.Delete _ | Ast.Modify _ ->
      None
  in
  t.last_plan <- p;
  p

(** EXPLAIN: the plan the statement runs; [detail] annotates each α. *)
let explain_stmt ?detail t (stmt : Ast.stmt) =
  match plan_stmt t stmt with
  | Some p -> Format.asprintf "%a" (Translate.pp_plan ?detail) p
  | None -> Format.asprintf "manipulation: %a" Ast.pp_stmt stmt

let estimates_of t (a : Translate.alpha) =
  [ Format.asprintf "%a" Prima.Stats.pp_estimate
      (Prima.Stats.estimate (catalog t) ~root_pred:a.push a.derive) ]

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)

let run_plan ?observe t p =
  Translate.run ~obs:t.obs ~stats:t.stats ?observe t.db (lookup t) p

(* the molecule type of a plan over a structure (α, Σ, Π) *)
let molecules ?observe t p =
  match run_plan ?observe t p with
  | Translate.Molecules mt -> mt
  | Translate.Recursive _ | Translate.Cycles _ -> assert false

(* Resolve a DML target: the base molecule type plus the victims
   selected by the optional qualification.  DELETE needs the whole
   occurrence: the shared-subobject rule spares atoms that surviving
   molecules hold.  MODIFY needs only the victims, so over an
   anonymous structure it derives just the qualifying roots. *)
let dml_target t ~whole from where =
  let victims mt =
    match where with
    | None -> Mad.Molecule_type.occ mt
    | Some q -> Mad.Molecule_type.occ (Mad.Molecule_algebra.restrict t.db q mt)
  in
  let named mt = (mt, victims mt) in
  match from with
  | Ast.From_named_def (name, s) -> named (catalogued t name s)
  | Ast.From_ref name -> begin
    match lookup t name with
    | Some mt -> named mt
    | None -> Err.failf "unknown molecule type %s" name
  end
  | Ast.From_anon s ->
    let a =
      Translate.alpha
        ~name:(Mad.Molecule_algebra.gen_name "dml")
        (Translate.resolve_structure t.db s)
    in
    if whole then named (molecules t a)
    else
      let p =
        match where with
        | None -> a
        | Some q -> Translate.optimize (Translate.P_restrict (q, a))
      in
      let mt = molecules t p in
      (mt, Mad.Molecule_type.occ mt)
  | Ast.From_recursive _ | Ast.From_cycle _ ->
    Err.failf "manipulation statements do not accept recursive targets"
  | Ast.From_product _ ->
    Err.failf "manipulation statements do not accept product targets"

let rows_of = function
  | Defined mt | Result (Translate.Molecules mt) ->
    List.length (Mad.Molecule_type.occ mt)
  | Result (Translate.Recursive r) ->
    List.length r.Mad_recursive.Recursive.occ
  | Result (Translate.Cycles c) ->
    List.length c.Mad_recursive.Recursive.cocc
  | Inserted _ -> 1
  | Dml _ | Explained _ -> 0

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

(* the report of a profiled run, right after it (estimates from the
   adaptive catalog) *)
let report t rc outcome =
  Profile.finish rc ~catalog:(catalog t) ~plan:t.last_plan
    ~rows:(rows_of outcome)

(* one root span per statement; everything the engine does beneath —
   algebra operators, derivations, closure checks — nests under it *)
let rec exec ?observe t stmt =
  Mad_obs.Obs.timed t.obs "mql.statement" @@ fun () ->
  fault_spin ();
  body ?observe t stmt

and body ?observe t (stmt : Ast.stmt) : outcome =
  t.last_plan <- None;
  match stmt with
  | Ast.Define (name, _) ->
    let mt = molecules ?observe t (Option.get (plan_stmt t stmt)) in
    define t name mt;
    Defined mt
  | Ast.Query q ->
    let p = Option.get (plan_stmt t stmt) in
    hoist t q;
    Result (run_plan ?observe t p)
  | Ast.Explain { analyze = false; stmt } -> Explained (explain_stmt t stmt)
  | Ast.Explain { analyze = true; stmt } -> Explained (analyze t stmt)
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
    let mt, victims = dml_target t ~whole:true from where in
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
    let _, victims = dml_target t ~whole:false from where in
    let n = Mad.Manipulate.modify_attribute t.db ~node ~attr value victims in
    refresh t;
    commit t;
    Dml (Printf.sprintf "modified %s.%s on %d atom(s)" node attr n)

(* Run [stmt] once under a profile recorder: the outcome and the report
   of that run. *)
and profiled ~run t stmt =
  let rc = Profile.start t.db t.stats in
  let outcome = run ?observe:(Some (Profile.observe rc)) t stmt in
  (outcome, rc)

(* EXPLAIN ANALYZE: run the statement once, report its plan with the
   actuals, and feed them back into the adaptive catalog. *)
and analyze t stmt =
  let outcome, rc = profiled ~run:body t stmt in
  let r = report t rc outcome in
  let drifted = learn t ~stmt:(stmt_kind stmt) r in
  Format.asprintf "%s%a@.%a"
    (match r.Profile.plan with
     | Some _ -> ""
     | None -> Format.asprintf "manipulation: %a@." Ast.pp_stmt stmt)
    Profile.pp r
    (fun ppf -> function
      | [] ->
        Fmt.pf ppf "adaptive: catalog refined (%d run(s)); no drift over %.1fx"
          t.refinements drift_factor
      | ds ->
        Fmt.pf ppf "adaptive: catalog refined (%d run(s)); drift over %.1fx: %a"
          t.refinements drift_factor
          Fmt.(list ~sep:(any "; ") Profile.pp_drift)
          ds)
    drifted

(* ------------------------------------------------------------------ *)
(* Workload digest & slow-query log                                     *)

(* The digest row's plan identity: the hash of the plan that ran,
   memoized per fingerprint; a statement without a plan is identified
   by its kind. *)
let plan_hash t ~fp stmt =
  match t.last_plan with
  | None -> Fingerprint.hash ("kind:" ^ stmt_kind stmt)
  | Some p -> (
    let types = Hashtbl.length t.env in
    match Hashtbl.find t.plan_memo fp with
    | m when m.refinements_at = t.refinements && m.types_at = types -> m.hash
    | _ | (exception Not_found) ->
      let hash = Translate.plan_hash p in
      if Hashtbl.length t.plan_memo >= 1024 then Hashtbl.reset t.plan_memo;
      Hashtbl.replace t.plan_memo fp
        { refinements_at = t.refinements; types_at = types; hash };
      hash)

(** Capture a slow statement: full text, plan, the profile of its run
    (when it ran a plan) and the flight-recorder window since it
    started. *)
let slow_log t stmt ~fp ~plan ~ms ~seq0 ~report =
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
      sl_plan_text =
        (match t.last_plan with
         | Some p -> Format.asprintf "%a" (fun ppf -> Translate.pp_plan ppf) p
         | None -> Format.asprintf "manipulation: %a" Ast.pp_stmt stmt);
      sl_analyze =
        (match t.last_plan with
         | Some _ -> Option.map Profile.to_string (report ())
         | None -> None);
      sl_events = events;
    }

(* Run [stmt], profiled when [profile]: the outcome and the recorder. *)
let exec_maybe_profiled ~profile t stmt =
  if profile then
    let o, rc = profiled ~run:exec t stmt in
    (o, Some rc)
  else (exec t stmt, None)

(* [profile]: profile the run and return its report.  The slow log,
   when armed, profiles every run, and reports the slow ones. *)
let eval ?fp_text ~profile t (stmt : Ast.stmt) =
  let reply (o, rc) =
    (o, if profile then Option.map (fun rc -> report t rc o) rc else None)
  in
  match t.digest with
  | None -> reply (exec_maybe_profiled ~profile t stmt)
  | Some dg ->
    let fp, text =
      match fp_text with
      | Some v -> v
      | None -> Fingerprint.of_stmt stmt
    in
    let slow = Mad_obs.Digest.slow_threshold_ms () in
    let seq0 = Mad_obs.Recorder.recorded (Mad_obs.Recorder.global ()) in
    t.last_error <- None;
    (* [exec] runs under [timed "mql.statement"], whose measurement we
       reuse; only a noop context (which never times) needs a clock
       pair of our own *)
    let noop_obs = Mad_obs.Obs.is_noop t.obs in
    let t0 = if noop_obs then !Mad_obs.Monotonic.clock () else 0.0 in
    let record ~rows ~error ran =
      let ms =
        if noop_obs then (!Mad_obs.Monotonic.clock () -. t0) *. 1e3
        else Mad_obs.Obs.last_dur_us t.obs /. 1e3
      in
      let plan = plan_hash t ~fp stmt in
      ignore
        (Mad_obs.Digest.record dg ~fp ~text ~plan ~latency_us:(ms *. 1e3) ~rows
           ~error
           ~exemplar:(Mad_obs.Obs.last_seq t.obs)
           ());
      Option.iter
        (fun err -> Mad_obs.Digest.note_drift dg ~fp ~text ~plan ~err)
        t.last_error;
      match slow with
      | Some th when ms >= th ->
        let report () =
          match ran with
          | Some (outcome, Some rc) -> Some (report t rc outcome)
          | Some (_, None) | None -> None
        in
        slow_log t stmt ~fp ~plan ~ms ~seq0 ~report
      | Some _ | None -> ()
    in
    match exec_maybe_profiled ~profile:(profile || slow <> None) t stmt with
    | exception e ->
      record ~rows:0 ~error:true None;
      raise e
    | (outcome, _) as ran ->
      record ~rows:(rows_of outcome) ~error:false (Some ran);
      reply ran

let eval_stmt ?fp_text t stmt = fst (eval ?fp_text ~profile:false t stmt)

(* Parse and evaluate one statement of MOL text.  The parse is timed as
   its own operator ([op.latency_us{op=mql.parse}]) so digest overhead
   attribution is complete. *)
let eval_src ~profile t src =
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
  | None -> eval ~profile t stmt
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
    eval ~fp_text ~profile t stmt

let run t src = fst (eval_src ~profile:false t src)

let run_profiled t src =
  match eval_src ~profile:true t src with
  | o, Some r -> (o, r)
  | _, None -> assert false

(** Render an outcome as the CLI/examples print it, appending to [b]. *)
let render_into ?limit t b = function
  | Defined mt ->
    Format.kasprintf (Buffer.add_string b) "defined %a" Mad.Molecule_type.pp_summary mt
  | Result (Translate.Molecules mt) -> Mad.Render.add_molecule_type ?limit t.db b mt
  | Result (Translate.Recursive r) -> Mad_recursive.Recursive.add ?limit t.db b r
  | Result (Translate.Cycles c) -> Mad_recursive.Recursive.add_cycles ?limit t.db b c
  | Inserted atom -> Printf.bprintf b "inserted %s as @%d" atom.Atom.atype atom.Atom.id
  | Dml text | Explained text ->
    Buffer.add_string b text;
    Mad.Render.check ?limit b

let render t o = Mad.Render.to_string (fun b -> render_into t b o)

let run_to_string t src = render t (run t src)

let explain ?(estimates = false) t src =
  let stmt = parse t src in
  if estimates then explain_stmt ~detail:(estimates_of t) t stmt
  else explain_stmt t stmt
