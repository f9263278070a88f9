(* The telemetry timeline: frame ring semantics, counter-reset-safe
   deltas, probe hysteresis, runtime gauges, timeline.mad round-trips,
   and the latency probe end-to-end through a fault-injected MOL
   session. *)

open Workloads
module Obs = Mad_obs.Obs
module Registry = Mad_obs.Registry
module Metric = Mad_obs.Metric
module Monotonic = Mad_obs.Monotonic
module Probe = Mad_obs.Probe
module Timeline = Mad_obs.Timeline
module Recorder = Mad_obs.Recorder
module Json = Mad_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* run [f] with [Monotonic.clock] pinned to a settable instant *)
let with_set_clock f =
  let saved = !Monotonic.clock in
  let now = ref 0.0 in
  Monotonic.clock := (fun () -> !now);
  Fun.protect ~finally:(fun () -> Monotonic.clock := saved) (fun () -> f now)

(* ------------------------------------------------------------------ *)
(* Frame ring                                                           *)

let test_ring_wrap () =
  let tl = Timeline.create ~capacity:4 () in
  let reg = Registry.create () in
  let c = Registry.counter reg "n" in
  for _ = 1 to 10 do
    Metric.incr c;
    ignore (Timeline.tick tl reg)
  done;
  check_int "sampled counts every tick" 10 (Timeline.sampled tl);
  let frames = Timeline.frames tl in
  check_int "ring retains capacity frames" 4 (List.length frames);
  check_int "oldest retained seq" 6 (List.hd frames).Timeline.f_seq;
  (match Timeline.last tl with
   | Some f -> check_int "last seq" 9 f.Timeline.f_seq
   | None -> Alcotest.fail "no last frame");
  (* frame seqs are strictly increasing oldest-first *)
  let seqs = List.map (fun f -> f.Timeline.f_seq) frames in
  check "ordered" true (List.sort compare seqs = seqs)

let find_delta key deltas =
  match List.assoc_opt key deltas with
  | Some v -> v
  | None -> Alcotest.failf "no delta for %s" key

let test_delta_counter_reset () =
  let tl = Timeline.create () in
  let reg = Registry.create () in
  let c = Registry.counter reg "requests" in
  let h = Registry.histogram reg "lat" in
  Metric.add c 7;
  Metric.observe h 10.0;
  let f1 = Timeline.tick tl reg in
  Metric.add c 5;
  Metric.observe h 20.0;
  let f2 = Timeline.tick tl reg in
  check_int "plain increase" 5
    (int_of_float (find_delta "requests" (Timeline.delta ~prev:f1 f2)));
  check_int "hist count increase" 1
    (int_of_float (find_delta "lat" (Timeline.delta ~prev:f1 f2)));
  (* a reset (value goes backwards) contributes the current value,
     never a negative — the Prometheus rate() clamp *)
  Registry.reset reg;
  Metric.add c 2;
  let f3 = Timeline.tick tl reg in
  check_int "reset clamps to current" 2
    (int_of_float (find_delta "requests" (Timeline.delta ~prev:f2 f3)));
  (* gauges never contribute deltas *)
  let g = Registry.gauge reg "level" in
  Metric.set g 3.0;
  let f4 = Timeline.tick tl reg in
  check "gauge absent from delta" true
    (List.assoc_opt "level" (Timeline.delta ~prev:f3 f4) = None)

(* ------------------------------------------------------------------ *)
(* Probe hysteresis                                                     *)

let test_probe_single_spike_no_flap () =
  let p = Probe.create ~factor:3.0 ~trip:3 ~clear:3 ~probe:"latency" () in
  (* seed the baseline *)
  check "seed is normal" false (Probe.observe p 100.0);
  check "no fire on 2nd normal" false (Probe.observe p 110.0);
  (* one spike: anomalous but below the trip streak *)
  check "single spike does not fire" false (Probe.observe p 5000.0);
  check "not firing" false (Probe.firing p);
  (* a normal frame resets the hot streak *)
  check "back to normal" false (Probe.observe p 105.0);
  check "spike after reset still no fire" false (Probe.observe p 5000.0);
  check "still not firing" false (Probe.firing p)

let test_probe_trip_and_clear () =
  let p = Probe.create ~factor:3.0 ~trip:3 ~clear:3 ~probe:"latency" () in
  ignore (Probe.observe p 100.0);
  ignore (Probe.observe p 100.0);
  check "1st anomalous" false (Probe.observe p 4000.0);
  check "2nd anomalous" false (Probe.observe p 4100.0);
  (* the trip streak completes: observe returns true exactly once *)
  check "3rd anomalous fires" true (Probe.observe p 3900.0);
  check "firing" true (Probe.firing p);
  check "no re-fire while firing" false (Probe.observe p 4200.0);
  check_int "fired once" 1 p.Probe.p_fired;
  (* the anomalous stretch did not teach the baseline *)
  check "baseline unpolluted" true (p.Probe.p_baseline < 150.0);
  (* clearing needs [clear] consecutive normals *)
  ignore (Probe.observe p 100.0);
  ignore (Probe.observe p 100.0);
  check "still firing mid-cool" true (Probe.firing p);
  ignore (Probe.observe p 100.0);
  check "cleared after clear streak" false (Probe.firing p)

let test_probe_skip_zero () =
  let p =
    Probe.create ~factor:2.0 ~min_fire:16.0 ~trip:3 ~skip_zero:true
      ~probe:"invalidation" ()
  in
  (* idle frames must not seed (or drag) the baseline *)
  ignore (Probe.observe p 0.0);
  check "zero does not seed" true (Float.is_nan p.Probe.p_baseline);
  ignore (Probe.observe p 30.0);
  ignore (Probe.observe p 30.0);
  ignore (Probe.observe p 30.0);
  ignore (Probe.observe p 30.0);
  check "steady activity is normal" false (Probe.firing p);
  (* a genuine storm over the learned activity level still fires *)
  ignore (Probe.observe p 200.0);
  ignore (Probe.observe p 200.0);
  check "storm fires" true (Probe.observe p 200.0)

(* ------------------------------------------------------------------ *)
(* Tick-driven probes                                                   *)

let test_plan_switch_probe_via_tick () =
  let tl = Timeline.create () in
  let reg = Registry.create () in
  let c = Registry.counter reg "plan.switch" in
  ignore (Timeline.tick tl reg);
  (* normal replan activity: 1 switch per frame seeds the baseline *)
  Metric.incr c;
  ignore (Timeline.tick tl reg);
  Metric.incr c;
  ignore (Timeline.tick tl reg);
  check "no firing on steady replans" true
    (Timeline.health tl = Timeline.Ok);
  (* a storm: 4 switches per frame for two frames trips it *)
  Metric.add c 4;
  ignore (Timeline.tick tl reg);
  Metric.add c 4;
  ignore (Timeline.tick tl reg);
  check "plan-switch storm degrades health" true
    (Timeline.health tl = Timeline.Degraded);
  check "exit code contract" true
    (Timeline.health_exit (Timeline.health tl) = 1);
  let firing =
    List.filter Probe.firing (Timeline.probes tl) |> List.map Probe.id
  in
  check "the plan-switch probe is the one firing" true
    (firing = [ "plan-switch" ]);
  (* the tick published the verdict gauge *)
  (match Registry.find reg "health.state" with
   | Some (Metric.Gauge g) ->
     check "health.state gauge" true (Metric.get g = 1.0)
   | _ -> Alcotest.fail "health.state gauge missing")

let test_maybe_tick_interval_gating () =
  with_set_clock @@ fun now ->
  let tl = Timeline.create ~interval:1.0 () in
  let reg = Registry.create () in
  check "first call samples" true (Timeline.maybe_tick tl reg);
  now := 0.5;
  check "inside the interval: no frame" false (Timeline.maybe_tick tl reg);
  now := 1.5;
  check "past the interval: samples" true (Timeline.maybe_tick tl reg);
  check_int "two frames" 2 (Timeline.sampled tl)

let test_update_runtime_gauges () =
  let reg = Registry.create () in
  Timeline.update_runtime ~epoch:42 reg;
  let text = Registry.expose reg in
  List.iter
    (fun name -> check (name ^ " exposed") true (contains text name))
    [
      "runtime_heap_words"; "runtime_minor_words";
      "runtime_gc_minor_collections"; "runtime_gc_major_collections";
      "runtime_db_epoch 42";
    ];
  (* a fresh Obs context registers them without any timeline *)
  let obs = Obs.create () in
  check "Obs.create registers runtime gauges" true
    (contains (Registry.expose (Obs.registry obs)) "runtime_heap_words")

(* ------------------------------------------------------------------ *)
(* Persistence                                                          *)

let test_timeline_mad_roundtrip () =
  let tl = Timeline.create () in
  let reg = Registry.create () in
  let c = Registry.counter reg ~labels:[ ("op", "q1") ] "calls" in
  let g = Registry.gauge reg "level" in
  let h = Registry.histogram reg "lat" in
  Metric.add c 3;
  Metric.set g 2.5;
  Metric.observe h 10.0;
  Metric.observe h 30.0;
  ignore (Timeline.tick tl reg);
  Metric.add c 2;
  ignore (Timeline.tick tl reg);
  (* give it a probe with a learned baseline *)
  let p = Probe.create ~probe:"latency" ~label:"abc" () in
  ignore p;
  let path = Filename.temp_file "t_timeline" ".mad" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Timeline.save tl path;
      let tl2 = Timeline.create () in
      check "load finds the file" true (Timeline.load tl2 path);
      check_int "frames restored" 2 (List.length (Timeline.frames tl2));
      let f1, f2 =
        match Timeline.frames tl2 with
        | [ a; b ] -> (a, b)
        | _ -> Alcotest.fail "expected 2 frames"
      in
      check_int "seqs preserved" 0 f1.Timeline.f_seq;
      check_int "seqs preserved" 1 f2.Timeline.f_seq;
      (* point payloads survive: the labeled counter and the histogram
         count/sum *)
      check_int "counter value" 5
        (int_of_float (find_delta "calls{op=q1}" (Timeline.delta ~prev:f1 f2))
        + 3);
      let hist_pt =
        List.find
          (fun pt -> pt.Timeline.p_name = "lat")
          (Array.to_list f2.Timeline.f_points)
      in
      check "hist kind" true (hist_pt.Timeline.p_kind = Timeline.Hist);
      check "hist sum" true (hist_pt.Timeline.p_sum = 40.0);
      (* new ticks continue the sequence after the merged history *)
      ignore (Timeline.tick tl2 reg);
      match Timeline.last tl2 with
      | Some f -> check_int "seq continues" 2 f.Timeline.f_seq
      | None -> Alcotest.fail "no frame after merge")

let test_timeline_mad_probe_state_and_garbage () =
  let text =
    String.concat "\n"
      [
        "# MAD timeline v2";
        "frame 4 12.5 12500 1";
        "pt c 9 0 'requests' 'svc' 'api'";
        "probe 'latency' 'abc' 250.5 2 1";
        "this line is garbage and must be skipped";
        "pt g 1 0 'orphaned.point.without.frame'";
        "";
      ]
  in
  let tl = Timeline.create () in
  let warnings = ref 0 in
  check "merged" true
    (Timeline.merge_string ~warn:(fun _ -> incr warnings) tl text);
  check_int "one warning for the skipped records" 1 !warnings;
  check_int "one frame" 1 (List.length (Timeline.frames tl));
  let f = List.hd (Timeline.frames tl) in
  check_int "frame seq" 4 f.Timeline.f_seq;
  check_int "one point" 1 (Array.length f.Timeline.f_points);
  check "labels parsed" true
    (Timeline.flat_key f.Timeline.f_points.(0) = "requests{svc=api}");
  (* the probe line restored baseline / fired / firing *)
  (match Timeline.probes tl with
   | [ p ] ->
     check "probe id" true (Probe.id p = "latency:abc");
     check "baseline restored" true (p.Probe.p_baseline = 250.5);
     check_int "fired restored" 2 p.Probe.p_fired;
     check "firing restored" true (Probe.firing p)
   | ps -> Alcotest.failf "expected 1 probe, got %d" (List.length ps));
  (* a restored firing probe counts toward health until live evidence
     clears it *)
  check "restored probe degrades health" true
    (Timeline.health tl = Timeline.Degraded);
  (* a bad header (a v1 file among them) is ignored, not a crash *)
  List.iter
    (fun text ->
      check "bad header rejected" false
        (Timeline.merge_string ~warn:ignore (Timeline.create ()) text))
    [ "# nonsense"; "# MAD timeline v1\nprobe latency abc 250.5 2 1\n" ]

(* names and label values carrying structural characters (space,
   comma, equals, percent, quote, line break) must round-trip through
   the quoting, and a literal "-" probe label must stay distinct from
   the empty label *)
let test_timeline_mad_escaping () =
  let tl = Timeline.create () in
  let reg = Registry.create () in
  let c =
    Registry.counter reg ~labels:[ ("q", "a=1, b=2 % 'done'\n") ] "odd name"
  in
  Metric.add c 7;
  ignore (Timeline.tick tl reg);
  let tl2 = Timeline.create () in
  check "merged" true
    (Timeline.merge_string ~warn:Alcotest.fail tl2 (Timeline.to_string tl));
  let f = List.hd (Timeline.frames tl2) in
  let pt =
    match
      List.find_opt
        (fun pt -> pt.Timeline.p_name = "odd name")
        (Array.to_list f.Timeline.f_points)
    with
    | Some pt -> pt
    | None -> Alcotest.fail "escaped point not restored"
  in
  check "label value round-trips" true
    (pt.Timeline.p_labels = [ ("q", "a=1, b=2 % 'done'\n") ]);
  check "value preserved" true (pt.Timeline.p_value = 7.0);
  let tl3 = Timeline.create () in
  check "merged" true
    (Timeline.merge_string ~warn:Alcotest.fail tl3
       "# MAD timeline v2\nprobe 'latency' '-' 5.0 1 0\nprobe 'latency' '' 6.0 1 0\n");
  let labels tl = List.map (fun p -> p.Probe.p_label) (Timeline.probes tl) in
  check "dash and empty labels decoded" true (labels tl3 = [ "-"; "" ]);
  let tl4 = Timeline.create () in
  check "merged" true
    (Timeline.merge_string ~warn:Alcotest.fail tl4 (Timeline.to_string tl3));
  check "dash and empty labels re-round-trip" true (labels tl4 = [ "-"; "" ])

let test_exports_parse () =
  let tl = Timeline.create () in
  let reg = Registry.create () in
  let c = Registry.counter reg "n" in
  Metric.incr c;
  ignore (Timeline.tick tl reg);
  Metric.incr c;
  ignore (Timeline.tick tl reg);
  (match Json.of_string (Json.to_string (Timeline.to_json tl)) with
   | Ok json ->
     check "frames in json" true (Json.member "frames" json <> None)
   | Error e -> Alcotest.failf "to_json does not parse: %s" e);
  (match Json.of_string (Json.to_string (Timeline.health_json tl)) with
   | Ok json -> begin
     match Json.member "state" json with
     | Some (Json.Str s) -> check "state ok" true (s = "ok")
     | _ -> Alcotest.fail "health_json lacks state"
   end
   | Error e -> Alcotest.failf "health_json does not parse: %s" e);
  let csv = Timeline.to_csv tl in
  check "csv header" true
    (contains csv "frame,unix,ticks,kind,name,labels,value,sum");
  check "csv row" true (contains csv "c,n,");
  (* the dashboard renders without a crash and mentions health *)
  let dash = Format.asprintf "%a" Timeline.pp_dashboard tl in
  check "dashboard mentions health" true (contains dash "health: ok")

(* ------------------------------------------------------------------ *)
(* End-to-end: the latency probe through a fault-injected session       *)

let test_latency_probe_end_to_end () =
  Recorder.set_enabled true;
  let seen0 = Recorder.recorded (Recorder.global ()) in
  let obs = Obs.create () in
  let session = Mad_mql.Session.create ~obs (Geo_brazil.db (Geo_brazil.build ())) in
  ignore (Mad_mql.Session.enable_digest session);
  let tl = Timeline.create () in
  let reg = Obs.registry obs in
  let stmt = "SELECT ALL FROM state WHERE state.hectare > 0;" in
  let epoch () = Mad_store.Database.epoch session.Mad_mql.Session.db in
  let run_one () =
    ignore (Mad_mql.Session.run session stmt);
    ignore (Timeline.tick ~epoch:(epoch ()) tl reg)
  in
  Fun.protect
    ~finally:(fun () -> Mad_mql.Session.fault_spin_ms := None)
    (fun () ->
      (* normal phase: learn the baseline *)
      for _ = 1 to 6 do run_one () done;
      check "healthy after warmup" true (Timeline.health tl = Timeline.Ok);
      (* fault phase: every statement spins 5 ms inside its timed
         block — far over both the 1 ms floor and 3x the baseline *)
      Mad_mql.Session.fault_spin_ms := Some 5.0;
      for _ = 1 to 6 do run_one () done);
  check "latency regression degrades health" true
    (Timeline.health tl = Timeline.Degraded);
  let firing = List.filter Probe.firing (Timeline.probes tl) in
  check "a latency probe is firing" true
    (List.exists
       (fun p -> p.Probe.p_probe = "latency" && p.Probe.p_label <> "")
       firing);
  (* the transition journaled a Probe_fired event... *)
  let fired_events =
    List.filter
      (fun e ->
        e.Recorder.e_seq >= seen0 && e.Recorder.e_kind = Recorder.Probe_fired)
      (Recorder.drain (Recorder.global ()))
  in
  check "Probe_fired journaled" true (fired_events <> []);
  check "event labeled with the probe id" true
    (List.exists
       (fun e -> contains e.Recorder.e_label "latency:")
       fired_events);
  (* ...and bumped the registry's probe.fired counter *)
  let fired_total =
    List.fold_left
      (fun acc s ->
        match s with
        | Metric.Counter c when c.Metric.c_name = "probe.fired" ->
          acc + Metric.value c
        | _ -> acc)
      0 (Registry.to_list reg)
  in
  check "probe.fired counter bumped" true (fired_total >= 1)

(* ------------------------------------------------------------------ *)
(* Serving saturation: the queue/lock probes and the dashboard panel    *)

let test_saturation_probes_fire () =
  let tl = Timeline.create () in
  let reg = Registry.create () in
  let peak = Registry.gauge reg "serve.queue_peak_pct" in
  let wait =
    Registry.histogram
      ~labels:[ ("class", "insert") ]
      reg "serve.lock.wait_us"
  in
  let hold =
    Registry.histogram
      ~labels:[ ("class", "insert") ]
      reg "serve.lock.hold_us"
  in
  (* idle ticks teach both probes a ~0 baseline (the first observation
     never fires; these probes feed zero frames by design) *)
  ignore (Timeline.tick tl reg);
  ignore (Timeline.tick tl reg);
  check "healthy while idle" true (Timeline.health tl = Timeline.Ok);
  (* a saturated window: the admission queue latched an 80% peak and
     waiting dwarfed useful lock work — both must trip on one frame *)
  Metric.set peak 80.0;
  Metric.observe wait 5000.0;
  Metric.observe hold 10.0;
  ignore (Timeline.tick tl reg);
  let firing p =
    List.exists
      (fun q -> q.Probe.p_probe = p && Probe.firing q)
      (Timeline.probes tl)
  in
  check "queue-saturation fires" true (firing "queue-saturation");
  check "lock-contention fires" true (firing "lock-contention");
  (* the tick read-and-rearmed the peak gauge for the next window *)
  check "queue peak re-armed" true (Metric.get peak = 0.0);
  (* back to idle: the peak stays re-armed and the lock window is
     empty, so both probes clear after their hysteresis *)
  for _ = 1 to 3 do ignore (Timeline.tick tl reg) done;
  check "queue-saturation clears" false (firing "queue-saturation");
  check "lock-contention clears" false (firing "lock-contention")

let test_dashboard_contention_panel () =
  let tl = Timeline.create () in
  let reg = Registry.create () in
  let wait =
    Registry.histogram
      ~labels:[ ("class", "insert") ]
      reg "serve.lock.wait_us"
  in
  let hold =
    Registry.histogram
      ~labels:[ ("class", "insert") ]
      reg "serve.lock.hold_us"
  in
  let contended = Registry.counter reg "serve.lock.contended" in
  ignore (Registry.gauge reg "serve.lock.waiters");
  ignore (Registry.gauge reg "serve.group.waiters");
  ignore (Registry.gauge reg "serve.queue_peak_pct");
  ignore (Timeline.tick tl reg);
  (* before any lock activity lands in the window, the panel is absent *)
  Metric.incr contended;
  ignore (Timeline.tick tl reg);
  let quiet = Format.asprintf "%a" Timeline.pp_dashboard tl in
  check "no per-class table without lock activity" false
    (contains quiet "lock contention (window):");
  check "gauges line still renders" true (contains quiet "contention: contended");
  Metric.observe wait 250.0;
  Metric.observe hold 80.0;
  Metric.incr contended;
  ignore (Timeline.tick tl reg);
  let dash = Format.asprintf "%a" Timeline.pp_dashboard tl in
  check "panel header" true (contains dash "lock contention (window):");
  check "class row" true (contains dash "insert");
  check "contended delta" true (contains dash "contention: contended +1")

let suite =
  [
    Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
    Alcotest.test_case "delta across counter reset" `Quick
      test_delta_counter_reset;
    Alcotest.test_case "probe: single spike no flap" `Quick
      test_probe_single_spike_no_flap;
    Alcotest.test_case "probe: trip and clear" `Quick test_probe_trip_and_clear;
    Alcotest.test_case "probe: skip_zero rate baseline" `Quick
      test_probe_skip_zero;
    Alcotest.test_case "plan-switch probe via tick" `Quick
      test_plan_switch_probe_via_tick;
    Alcotest.test_case "maybe_tick interval gating" `Quick
      test_maybe_tick_interval_gating;
    Alcotest.test_case "runtime gauges" `Quick test_update_runtime_gauges;
    Alcotest.test_case "timeline.mad round-trip" `Quick
      test_timeline_mad_roundtrip;
    Alcotest.test_case "timeline.mad probe state and garbage" `Quick
      test_timeline_mad_probe_state_and_garbage;
    Alcotest.test_case "timeline.mad escaping" `Quick
      test_timeline_mad_escaping;
    Alcotest.test_case "exports parse" `Quick test_exports_parse;
    Alcotest.test_case "saturation probes fire and clear" `Quick
      test_saturation_probes_fire;
    Alcotest.test_case "dashboard contention panel" `Quick
      test_dashboard_contention_panel;
    Alcotest.test_case "latency probe end-to-end" `Quick
      test_latency_probe_end_to_end;
  ]
