(* Shared measurement helpers for the experiment harness: a thin
   Bechamel wrapper returning ns/run estimates, and formatting.

   Every measurement is also a row of BENCH_RESULTS.json, the
   harness's machine-readable output (see [write_results]). *)

open Bechamel
open Toolkit

let quota =
  match Sys.getenv_opt "BENCH_QUOTA_MS" with
  | None -> 0.25
  | Some s -> begin
    match float_of_string_opt (String.trim s) with
    | Some ms when Float.is_finite ms && ms > 0.0 -> ms /. 1000.0
    | Some _ | None ->
      Format.eprintf
        "bench: invalid BENCH_QUOTA_MS=%S (expected a positive number of \
         milliseconds)@."
        s;
      exit 2
  end

(* Per-measurement latency distributions and the machine-readable
   results file.  Each [time_ns] call, besides the OLS estimate, runs a
   short sampling loop recording individual run durations into a
   [bench.latency_us{bench=<name>}] histogram; the collected rows are
   written out as BENCH_RESULTS.json by the harness on exit. *)
let registry = Mad_obs.Registry.create ()

type result = {
  r_name : string;
  r_iterations : int;  (** sampled runs behind the histogram *)
  r_ns_per_run : float;  (** Bechamel OLS estimate *)
  r_mean_us : float;
  r_p50_us : float;
  r_p95_us : float;
  r_minor_words_per_run : float option;
      (** minor-heap words allocated per run; [None] when the
          experiment did not measure allocation (JSON [null]) *)
  r_promoted_words_per_run : float option;
      (** words promoted to the major heap; [None] when unmeasured *)
}

let recorded : result list ref = ref []

(* sample individual run durations into the measurement's histogram:
   bounded by the same quota as the estimator and a hard run cap, so a
   slow experiment cannot double the harness's wall-clock *)
let max_sample_runs = 200

let sample_latency name f =
  let h =
    Mad_obs.Registry.histogram
      ~labels:[ ("bench", name) ]
      ~bounds:Mad_obs.Metric.latency_bounds_us registry "bench.latency_us"
  in
  let clock = !Mad_obs.Monotonic.clock in
  let deadline = clock () +. quota in
  let runs = ref 0 in
  (* GC counters around the sampling loop attribute allocation (minor
     and promoted words) to the measurement, amortized per run.  Minor
     words come from [Gc.minor_words] (reads the allocation pointer, so
     it is exact even when the window spans no minor collection);
     promoted words only advance at minor collections, where
     [quick_stat] is already accurate. *)
  let m0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  while !runs < max_sample_runs && (!runs = 0 || clock () < deadline) do
    let t0 = clock () in
    ignore (Sys.opaque_identity (f ()));
    Mad_obs.Metric.observe h ((clock () -. t0) *. 1e6);
    incr runs
  done;
  let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let per tot0 tot1 = Float.max 0.0 (tot1 -. tot0) /. float_of_int !runs in
  (h, per m0 m1, per g0.Gc.promoted_words g1.Gc.promoted_words)

(** Measure [f] with Bechamel's OLS estimator; returns ns per run.
    Failed estimations warn on stderr instead of silently returning
    [nan] downstream. *)
let time_ns name f =
  let test = Test.make ~name (Staged.stage f) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false
      ~compaction:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let est =
    match Hashtbl.find_opt results name with
    | None -> nan
    | Some ols_result -> begin
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> est
      | Some [] | None -> nan
    end
  in
  let h, minor_w, promoted_w = sample_latency name f in
  if Float.is_nan est then
    Format.eprintf
      "bench: %s produced no estimate (quota %.0f ms too small?)@." name
      (quota *. 1000.0);
  recorded :=
    {
      r_name = name;
      r_iterations = Mad_obs.Metric.count h;
      r_ns_per_run = est;
      r_mean_us = Mad_obs.Metric.mean h;
      r_p50_us = Option.value ~default:0.0 (Mad_obs.Metric.quantile h 0.5);
      r_p95_us = Option.value ~default:0.0 (Mad_obs.Metric.quantile h 0.95);
      r_minor_words_per_run = Some minor_w;
      r_promoted_words_per_run = Some promoted_w;
    }
    :: !recorded;
  est

(** Record a row measured outside {!time_ns} — for experiments where
    the quantity is a property of many concurrent actors (the serve
    bench's client-observed commit latencies), not of one repeated
    thunk.  The row rides [write_results] like any other.  GC totals
    are per-domain in OCaml 5, so a multi-domain experiment must sum
    its workers' own deltas and pass them here; when omitted the JSON
    row says [null] rather than a misleading zero. *)
let record_external ~name ~iterations ~ns_per_run ~mean_us ~p50_us ~p95_us
    ?minor_words_per_run ?promoted_words_per_run () =
  recorded :=
    {
      r_name = name;
      r_iterations = iterations;
      r_ns_per_run = ns_per_run;
      r_mean_us = mean_us;
      r_p50_us = p50_us;
      r_p95_us = p95_us;
      r_minor_words_per_run = minor_words_per_run;
      r_promoted_words_per_run = promoted_words_per_run;
    }
    :: !recorded

(* NaN is not valid JSON; the OLS estimate can be NaN when the quota
   was too small, the histogram stats cannot (>= 1 sampled run) *)
let json_num f = Mad_obs.Json.Num (if Float.is_nan f then 0.0 else f)

(* unmeasured stays distinguishable from "measured zero" downstream *)
let json_opt = function None -> Mad_obs.Json.Null | Some f -> json_num f

let result_json r =
  Mad_obs.Json.Obj
    [
      ("name", Mad_obs.Json.Str r.r_name);
      ("iterations", json_num (float_of_int r.r_iterations));
      ("ns_per_run", json_num r.r_ns_per_run);
      ("mean_us", json_num r.r_mean_us);
      ("p50_us", json_num r.r_p50_us);
      ("p95_us", json_num r.r_p95_us);
      ("minor_words_per_run", json_opt r.r_minor_words_per_run);
      ("promoted_words_per_run", json_opt r.r_promoted_words_per_run);
    ]

(** Write every measurement recorded so far (name, sampled iteration
    count, OLS ns/run, and the histogram's mean/p50/p95 in µs) as a
    JSON document — the harness calls this once, at the end. *)
let write_results path =
  let doc =
    Mad_obs.Json.Obj
      [
        ("quota_ms", json_num (quota *. 1000.0));
        ( "benches",
          Mad_obs.Json.List (List.rev_map result_json !recorded) );
      ]
  in
  let oc = open_out path in
  output_string oc (Mad_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

let pp_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let ratio a b = if b = 0.0 || Float.is_nan b then "n/a" else Printf.sprintf "%.1fx" (a /. b)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let subsection title = Format.printf "@.-- %s@." title
