(** The workload digest: per-statement aggregation keyed by
    (fingerprint, plan hash) — the MAD analog of pg_stat_statements.

    A fingerprint identifies a statement's shape (literals stripped,
    structure kept; computed by [Mad_mql.Fingerprint]); a plan hash
    identifies the rewritten plan it ran ([Mad_mql.Translate.plan_hash]).
    The store keeps one row per (fingerprint, plan) pair, each row
    backed by real registry instruments ([digest.calls] /
    [digest.errors] / [digest.rows] counters and a [digest.latency_us]
    histogram with flight-recorder exemplars), so the whole digest
    rides {!Registry.expose} for free.

    The store also watches for {b plan changes}: when a fingerprint
    that previously ran under one plan hash arrives under another —
    typically because EXPLAIN ANALYZE refinement moved the session's
    learned catalog — it bumps the [plan.switch] counter and journals a
    {!Recorder.Plan_switch} event, so a regression introduced by
    learned statistics is visible in both the metrics and the trace.

    Persistence is the advisory [digest.mad] file in the [.mad] word
    syntax (like the adaptive catalog's [stats.mad]); loading {e
    merges} into the live store so workload history accumulates across
    restarts. *)

let hex h = Printf.sprintf "%x" (h land max_int)

(* ------------------------------------------------------------------ *)
(* Store                                                                *)

type prow = {
  pr_plan : int;
  pr_calls : Metric.counter;
  pr_errors : Metric.counter;
  pr_rows : Metric.counter;
  pr_lat : Metric.histogram;
  mutable pr_drift_sum : float;  (** Σ |estimate − actual| over runs *)
  mutable pr_drift_n : int;  (** EXPLAIN ANALYZE runs feeding the sum *)
}

type entry = {
  en_fp : int;
  en_text : string;  (** normalized statement text *)
  mutable en_plan : int;  (** current plan hash, [-1] before the first call *)
  mutable en_switches : int;
  mutable en_rows : prow list;  (** insertion order *)
  mutable en_cur : prow option;  (** the [en_plan] row, probe-free *)
}

type t = {
  registry : Registry.t;
  entries : (int, entry) Hashtbl.t;
  mutable order : int list;  (** fingerprint insertion order, reversed *)
  switches : Metric.counter;  (** the [plan.switch] counter *)
  mutable last : entry option;  (** {!record}'s most recent entry *)
}

let create registry =
  {
    registry;
    entries = Hashtbl.create 32;
    order = [];
    switches = Registry.counter registry "plan.switch";
    last = None;
  }

let registry t = t.registry
let switch_count t = Metric.value t.switches

let entry t ~fp ~text =
  match Hashtbl.find_opt t.entries fp with
  | Some e -> e
  | None ->
    let e =
      { en_fp = fp; en_text = text; en_plan = -1; en_switches = 0;
        en_rows = []; en_cur = None }
    in
    Hashtbl.replace t.entries fp e;
    t.order <- fp :: t.order;
    e

let prow t e plan =
  match List.find_opt (fun r -> r.pr_plan = plan) e.en_rows with
  | Some r -> r
  | None ->
    let labels = [ ("fp", hex e.en_fp); ("plan", hex plan) ] in
    let r =
      {
        pr_plan = plan;
        pr_calls = Registry.counter ~labels t.registry "digest.calls";
        pr_errors = Registry.counter ~labels t.registry "digest.errors";
        pr_rows = Registry.counter ~labels t.registry "digest.rows";
        pr_lat =
          Registry.histogram ~labels ~bounds:Metric.latency_bounds_us
            t.registry "digest.latency_us";
        pr_drift_sum = 0.0;
        pr_drift_n = 0;
      }
    in
    e.en_rows <- e.en_rows @ [ r ];
    r

(** Record one execution.  Returns [true] when the fingerprint changed
    plans (the switch is journaled and counted here). *)
let record t ~fp ~text ~plan ~latency_us ~rows ~error ?(exemplar = -1) () =
  let e =
    match t.last with
    | Some e when e.en_fp = fp -> e
    | _ ->
      (* exception-style probe: the steady-state hit allocates nothing *)
      let e =
        match Hashtbl.find t.entries fp with
        | e -> e
        | exception Not_found -> entry t ~fp ~text
      in
      t.last <- Some e;
      e
  in
  let switched = e.en_plan >= 0 && e.en_plan <> plan in
  if switched then begin
    e.en_switches <- e.en_switches + 1;
    Metric.incr t.switches;
    Recorder.note Plan_switch ~label:(hex fp) ~a:e.en_plan ~b:plan ()
  end;
  e.en_plan <- plan;
  let r =
    match e.en_cur with
    | Some r when r.pr_plan = plan -> r
    | Some _ | None ->
      let r = prow t e plan in
      e.en_cur <- Some r;
      r
  in
  Metric.incr r.pr_calls;
  Metric.add r.pr_rows rows;
  if error then Metric.incr r.pr_errors;
  Metric.observe ~exemplar r.pr_lat latency_us;
  switched

(** Fold one EXPLAIN ANALYZE drift reading ([Mad_mql.Profile.error]) into
    the row, creating it if the profiled plan was never executed
    through {!record}. *)
let note_drift t ~fp ~text ~plan ~err =
  let e = entry t ~fp ~text in
  let r = prow t e plan in
  r.pr_drift_sum <- r.pr_drift_sum +. err;
  r.pr_drift_n <- r.pr_drift_n + 1

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

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
  r_drift : float;  (** mean |estimate − actual|, 0 with no ANALYZE runs *)
  r_switches : int;  (** the fingerprint's plan switches (entry-level) *)
}

type order = [ `Total | `Mean | `Calls ]

let entries t =
  List.rev_map (fun fp -> Hashtbl.find t.entries fp) t.order

let report t =
  List.concat_map
    (fun e ->
      List.map
        (fun r ->
          let n = Metric.count r.pr_lat in
          {
            r_fp = e.en_fp;
            r_text = e.en_text;
            r_plan = r.pr_plan;
            r_calls = Metric.value r.pr_calls;
            r_errors = Metric.value r.pr_errors;
            r_rows = Metric.value r.pr_rows;
            r_total_us = Metric.sum r.pr_lat;
            r_mean_us = Metric.mean r.pr_lat;
            r_p95_us =
              (if n = 0 then 0.0
               else Option.value ~default:0.0 (Metric.quantile r.pr_lat 0.95));
            r_max_us = Metric.max_value r.pr_lat;
            r_drift =
              (if r.pr_drift_n = 0 then 0.0
               else r.pr_drift_sum /. float_of_int r.pr_drift_n);
            r_switches = e.en_switches;
          })
        e.en_rows)
    (entries t)

let sort_key by r =
  match by with
  | `Total -> r.r_total_us
  | `Mean -> r.r_mean_us
  | `Calls -> float_of_int r.r_calls

let top ?(by = `Total) k t =
  let rows =
    List.stable_sort
      (fun a b -> compare (sort_key by b) (sort_key by a))
      (report t)
  in
  List.filteri (fun i _ -> i < k) rows

let trim width s =
  if String.length s <= width then s else String.sub s 0 (width - 1) ^ "…"

let pp_table ppf rows =
  Fmt.pf ppf "%-12s %-12s %6s %4s %7s %10s %9s %9s %7s %3s@."
    "fingerprint" "plan" "calls" "err" "rows" "total_us" "mean_us" "p95_us"
    "drift" "sw";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-12s %-12s %6d %4d %7d %10.0f %9.1f %9.1f %7.1f %3d@."
        (trim 12 (hex r.r_fp))
        (trim 12 (hex r.r_plan))
        r.r_calls r.r_errors r.r_rows r.r_total_us r.r_mean_us r.r_p95_us
        r.r_drift r.r_switches;
      Fmt.pf ppf "  %s@." (trim 100 r.r_text))
    rows

let row_json r =
  Json.Obj
    [
      ("plan_hash", Json.Str (hex r.r_plan));
      ("calls", Json.Num (float_of_int r.r_calls));
      ("errors", Json.Num (float_of_int r.r_errors));
      ("rows", Json.Num (float_of_int r.r_rows));
      ("total_us", Json.Num r.r_total_us);
      ("mean_us", Json.Num r.r_mean_us);
      ("p95_us", Json.Num r.r_p95_us);
      ("max_us", Json.Num r.r_max_us);
      ("drift", Json.Num r.r_drift);
    ]

let to_json ?by ?top:k t =
  let rows =
    match k with Some k -> top ?by k t | None -> report t
  in
  (* group the (possibly truncated) row list back under fingerprints,
     preserving rank order of first appearance *)
  let seen = Hashtbl.create 8 in
  let fps =
    List.filter_map
      (fun r ->
        if Hashtbl.mem seen r.r_fp then None
        else begin
          Hashtbl.replace seen r.r_fp ();
          Some r.r_fp
        end)
      rows
  in
  let fp_obj fp =
    let mine = List.filter (fun r -> r.r_fp = fp) rows in
    let first = List.hd mine in
    Json.Obj
      [
        ("fingerprint", Json.Str (hex fp));
        ("text", Json.Str first.r_text);
        ("switches", Json.Num (float_of_int first.r_switches));
        ("plans", Json.List (List.map row_json mine));
      ]
  in
  Json.Obj
    [
      ("plan_switches", Json.Num (float_of_int (switch_count t)));
      ("fingerprints", Json.List (List.map fp_obj fps));
    ]

(* ------------------------------------------------------------------ *)
(* Persistence: [digest.mad], in the .mad word syntax                  *)

module Serialize = Mad_store.Serialize

let header = "# MAD statement digest v2"

let to_string t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "%s" header;
  List.iter
    (fun e ->
      line "fp %s %s" (hex e.en_fp) (Serialize.quote e.en_text);
      List.iter
        (fun r ->
          let h = r.pr_lat in
          let counts =
            String.concat ","
              (List.init (Array.length h.Metric.counts) (fun i ->
                   string_of_int (Metric.bucket_count h i)))
          in
          line "row %s %s %d %d %d %.17g %d %.17g %d %.17g %.17g %s"
            (hex e.en_fp) (hex r.pr_plan) (Metric.value r.pr_calls)
            (Metric.value r.pr_errors) (Metric.value r.pr_rows)
            r.pr_drift_sum r.pr_drift_n (Metric.sum h) (Metric.count h)
            (Metric.min_raw h) (Metric.max_raw h) counts)
        e.en_rows;
      if e.en_plan >= 0 then
        line "cur %s %s %d" (hex e.en_fp) (hex e.en_plan) e.en_switches)
    (entries t);
  Buffer.contents buf

let hex_int s = int_of_string ("0x" ^ s)

let stored t fp =
  match Hashtbl.find_opt t.entries (hex_int fp) with
  | Some e -> e
  | None -> failwith ("no fp record for " ^ fp)

let merge_record t = function
  | [ "fp"; fp; text ] ->
    ignore (entry t ~fp:(hex_int fp) ~text:(Serialize.unquote text))
  | [ "row"; fp; plan; calls; errors; rows; dsum; dn; sum; n; mn; mx; counts ]
    ->
    let e = stored t fp in
    let bucket_counts =
      String.split_on_char ',' counts |> List.map int_of_string |> Array.of_list
    in
    let sum = float_of_string sum and dsum = float_of_string dsum in
    let n = int_of_string n and dn = int_of_string dn in
    let calls = int_of_string calls and errors = int_of_string errors in
    let rows = int_of_string rows in
    let min_v = float_of_string mn and max_v = float_of_string mx in
    let r = prow t e (hex_int plan) in
    Metric.add r.pr_calls calls;
    Metric.add r.pr_errors errors;
    Metric.add r.pr_rows rows;
    r.pr_drift_sum <- r.pr_drift_sum +. dsum;
    r.pr_drift_n <- r.pr_drift_n + dn;
    Metric.absorb r.pr_lat ~counts:bucket_counts ~sum ~n ~min_v ~max_v
  | [ "cur"; fp; plan; switches ] ->
    let e = stored t fp in
    let plan = hex_int plan and switches = int_of_string switches in
    (* only adopt the stored current plan while the live entry has not
       executed yet this session — a live plan observation outranks
       history *)
    if e.en_plan < 0 then e.en_plan <- plan;
    e.en_switches <- e.en_switches + switches
  | words -> failwith ("unknown record " ^ String.concat " " words)

let merge_string ~warn t s =
  Serialize.read_advisory ~file:"digest.mad" ~header ~warn s (merge_record t)

let save t path = Serialize.write_atomically path (to_string t)
let load t path = Serialize.load_advisory ~header path (merge_record t)

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                       *)

(** Configuration is process-global (like the recorder ring): one
    threshold, one log file.  [MAD_SLOW_LOG=MS] or [MAD_SLOW_LOG=MS:FILE]
    seeds it; {!set_slow_log} (the [--slow-log] flag) overrides. *)

let default_slow_path = "slow-query.log"

let env_slow () =
  match Option.map String.trim (Sys.getenv_opt "MAD_SLOW_LOG") with
  | None | Some "" -> (None, default_slow_path)
  | Some s ->
    let ms, path =
      match String.index_opt s ':' with
      | Some i ->
        ( String.sub s 0 i,
          String.sub s (i + 1) (String.length s - i - 1) )
      | None -> (s, default_slow_path)
    in
    let path = if path = "" then default_slow_path else path in
    (match float_of_string_opt ms with
     | Some v when v >= 0.0 -> (Some v, path)
     | Some _ | None ->
       Printf.eprintf
         "mad_obs: ignoring invalid MAD_SLOW_LOG=%S (expected MS or MS:FILE)\n%!"
         s;
       (None, path))

let slow_config = Once.make (fun () -> ref (env_slow ()))

let slow_threshold_ms () = fst !(Once.force slow_config)
let slow_log_path () = snd !(Once.force slow_config)

let set_slow_log ?path ms =
  let cfg = Once.force slow_config in
  let path = match path with Some p -> p | None -> snd !cfg in
  cfg := (ms, path)

type slow_entry = {
  sl_stmt : string;  (** the full statement, literals intact *)
  sl_fp : int;
  sl_plan : int;
  sl_ms : float;
  sl_plan_text : string;  (** the algebra plan (EXPLAIN rendering) *)
  sl_analyze : string option;  (** EXPLAIN ANALYZE tree when executable *)
  sl_events : Recorder.event list;  (** flight-recorder window *)
}

let event_json (ev : Recorder.event) =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int ev.Recorder.e_seq));
      ("kind", Json.Str (Recorder.kind_name ev.Recorder.e_kind));
      ("dur_ns", Json.Num (float_of_int ev.Recorder.e_dur_ns));
      ("thread", Json.Num (float_of_int ev.Recorder.e_thread));
      ("label", Json.Str ev.Recorder.e_label);
      ("a", Json.Num (float_of_int ev.Recorder.e_a));
      ("b", Json.Num (float_of_int ev.Recorder.e_b));
    ]

let slow_entry_json e =
  Json.Obj
    [
      ("statement", Json.Str e.sl_stmt);
      ("fingerprint", Json.Str (hex e.sl_fp));
      ("plan_hash", Json.Str (hex e.sl_plan));
      ("ms", Json.Num e.sl_ms);
      ("plan", Json.Str e.sl_plan_text);
      ( "analyze",
        match e.sl_analyze with Some s -> Json.Str s | None -> Json.Null );
      ("events", Json.List (List.map event_json e.sl_events));
    ]

(** Append one JSON line to the slow log and journal a
    {!Recorder.Slow_query} instant. *)
let log_slow e =
  Recorder.note Slow_query ~label:(hex e.sl_fp)
    ~a:(int_of_float (Float.round e.sl_ms))
    ();
  let path = slow_log_path () in
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc ->
    Fun.protect
      ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
      (fun () ->
        output_string oc (Json.to_string (slow_entry_json e));
        output_char oc '\n')
  | exception Sys_error err ->
    Printf.eprintf "mad_obs: could not append %s: %s\n%!" path err
