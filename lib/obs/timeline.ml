(** The telemetry timeline: fixed-interval registry snapshots in a
    frame ring, runtime gauges, anomaly probes over frame deltas, and
    the aggregate health verdict.  See the interface for the model and
    the [MAD_OBS_TICK] contract. *)

type kind = Counter | Gauge | Hist

type point = {
  p_name : string;
  p_labels : (string * string) list;
  p_kind : kind;
  p_value : float;
  p_sum : float;
}

type frame = {
  f_seq : int;
  f_unix : float;
  f_ticks : int;
  f_points : point array;
}

let flat_key p =
  match p.p_labels with
  | [] -> p.p_name
  | labels ->
    p.p_name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

(* ------------------------------------------------------------------ *)
(* Health                                                               *)

type health = Ok | Degraded | Unhealthy

let health_name = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Unhealthy -> "unhealthy"

let health_exit = function Ok -> 0 | Degraded -> 1 | Unhealthy -> 2

(* ------------------------------------------------------------------ *)
(* Timelines                                                            *)

type t = {
  ring : frame option array;
  tl_interval : float;
  lock : Mutex.t;
  mutable count : int;  (** frames ever pushed into the ring *)
  mutable seq : int;  (** next frame seq to assign *)
  mutable last_tick : float;  (** {!Monotonic.clock} of the last tick, [-inf] *)
  probe_tbl : (string, Probe.t) Hashtbl.t;
  mutable probe_order : Probe.t list;  (** creation order, reversed *)
  mutable wal_seen : int;  (** recorder seq bound of the fsync window *)
}

let create ?(capacity = 512) ?(interval = 1.0) () =
  {
    ring = Array.make (max 2 capacity) None;
    tl_interval = Float.max 0.001 interval;
    lock = Mutex.create ();
    count = 0;
    seq = 0;
    last_tick = neg_infinity;
    probe_tbl = Hashtbl.create 16;
    probe_order = [];
    wal_seen = 0;
  }

let capacity t = Array.length t.ring
let interval t = t.tl_interval

(* a single int field read; monotonic, never torn, safe without the
   lock (and [health_json] reads it while already holding the lock) *)
let sampled t = t.count

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [*_u] variants assume [t.lock] is held; the public wrappers take it
   so readers never observe the ring or probe list mid-mutation while
   the background sampler thread is ticking *)

let frames_u t =
  let cap = capacity t in
  let lo = max 0 (t.count - cap) in
  let out = ref [] in
  for i = t.count - 1 downto lo do
    match t.ring.(i mod cap) with
    | Some f -> out := f :: !out
    | None -> ()
  done;
  !out

let frames t = with_lock t (fun () -> frames_u t)

let last_u t =
  if t.count = 0 then None else t.ring.((t.count - 1) mod capacity t)

let last t = with_lock t (fun () -> last_u t)

let push_raw t f =
  t.ring.(t.count mod capacity t) <- Some f;
  t.count <- t.count + 1;
  t.seq <- max t.seq (f.f_seq + 1)

let probes_u t = List.rev t.probe_order
let probes t = with_lock t (fun () -> probes_u t)

(* (factor, min_fire, trip, clear, alpha, skip_zero) per probe family;
   the floors keep quiet processes quiet (3 replans or 16
   invalidations in one frame, a 1 ms mean statement, a 16 MB heap),
   and the rate-style probes skip zero frames so idle stretches cannot
   teach them that any activity is a storm *)
let probe_spec = function
  | "latency" -> (3.0, 1000.0, 3, 3, 0.3, false)
  | "plan-switch" -> (2.0, 3.0, 2, 3, 0.3, true)
  | "invalidation" -> (2.0, 16.0, 3, 3, 0.3, true)
  | "heap" -> (1.5, 2.0e6, 3, 4, 0.2, false)
  (* saturation probes (the serving path).  Queue saturation and lock
     contention watch values that are zero on a healthy idle server,
     so they must NOT skip zero frames — idle ticks teach a ~0
     baseline, and the first saturated window then trips immediately
     (trip 1): the point is to degrade BEFORE admission control starts
     returning typed-busy, not after.  The floors keep them quiet
     under ordinary load: a queue under half capacity, or lock waits
     shorter than the holds they pay for, never fire. *)
  | "queue-saturation" -> (1.5, 50.0, 1, 2, 0.3, false)
  | "lock-contention" -> (1.5, 100.0, 1, 2, 0.3, false)
  | "fsync-stall" -> (3.0, 2000.0, 2, 3, 0.3, true)
  | _ -> (3.0, 0.0, 3, 3, 0.3, false)

let ensure_probe t ~probe ~label =
  let key = probe ^ ":" ^ label in
  match Hashtbl.find_opt t.probe_tbl key with
  | Some p -> p
  | None ->
    let factor, min_fire, trip, clear, alpha, skip_zero = probe_spec probe in
    let p =
      Probe.create ~factor ~min_fire ~trip ~clear ~alpha ~skip_zero ~probe
        ~label ()
    in
    Hashtbl.replace t.probe_tbl key p;
    t.probe_order <- p :: t.probe_order;
    p

let health_u t =
  match List.length (List.filter Probe.firing (probes_u t)) with
  | 0 -> Ok
  | 1 -> Degraded
  | _ -> Unhealthy

let health t = with_lock t (fun () -> health_u t)

(* ------------------------------------------------------------------ *)
(* Runtime gauges                                                       *)

let update_runtime ?epoch registry =
  let g = Gc.quick_stat () in
  let set name v = Metric.set (Registry.gauge registry name) v in
  set "runtime.heap_words" (float_of_int g.Gc.heap_words);
  set "runtime.top_heap_words" (float_of_int g.Gc.top_heap_words);
  set "runtime.minor_words" g.Gc.minor_words;
  set "runtime.promoted_words" g.Gc.promoted_words;
  set "runtime.gc_minor_collections" (float_of_int g.Gc.minor_collections);
  set "runtime.gc_major_collections" (float_of_int g.Gc.major_collections);
  set "runtime.gc_compactions" (float_of_int g.Gc.compactions);
  match epoch with
  | Some e -> set "runtime.db_epoch" (float_of_int e)
  | None -> ()

(* mean WAL fsync latency over the events recorded since the previous
   tick, drawn from the flight recorder's retained window *)
let update_fsync t registry =
  if Recorder.enabled () then begin
    let ring = Recorder.global () in
    let hi = Recorder.recorded ring in
    if hi > t.wal_seen then begin
      let sum = ref 0.0 and n = ref 0 in
      List.iter
        (fun ev ->
          if
            ev.Recorder.e_seq >= t.wal_seen
            && ev.Recorder.e_kind = Recorder.Wal_fsync
          then begin
            sum := !sum +. float_of_int ev.Recorder.e_dur_ns;
            incr n
          end)
        (Recorder.drain ring);
      t.wal_seen <- hi;
      if !n > 0 then
        Metric.set
          (Registry.gauge registry "runtime.wal_fsync_us")
          (!sum /. float_of_int !n /. 1e3)
    end
  end

(* ------------------------------------------------------------------ *)
(* Sampling and deltas                                                  *)

let snapshot registry =
  Registry.to_list registry
  |> List.map (fun sample ->
         match sample with
         | Metric.Counter c ->
           {
             p_name = c.Metric.c_name;
             p_labels = c.Metric.c_labels;
             p_kind = Counter;
             p_value = float_of_int (Metric.value c);
             p_sum = 0.0;
           }
         | Metric.Gauge g ->
           {
             p_name = g.Metric.g_name;
             p_labels = g.Metric.g_labels;
             p_kind = Gauge;
             p_value = Metric.get g;
             p_sum = 0.0;
           }
         | Metric.Histogram h ->
           {
             p_name = h.Metric.h_name;
             p_labels = h.Metric.h_labels;
             p_kind = Hist;
             p_value = float_of_int (Metric.count h);
             p_sum = Metric.sum h;
           })
  |> Array.of_list

(* monotonic increase with Prometheus-style reset handling: a value
   that went backwards restarted, so its increase is its current
   value, never a negative *)
let increase ~prev ~cur = if cur < prev then cur else cur -. prev

let prev_index prev =
  let tbl = Hashtbl.create (Array.length prev.f_points) in
  Array.iter (fun p -> Hashtbl.replace tbl (flat_key p) p) prev.f_points;
  tbl

let delta ~prev cur =
  let tbl = prev_index prev in
  Array.to_list cur.f_points
  |> List.filter_map (fun p ->
         match p.p_kind with
         | Gauge -> None
         | Counter | Hist ->
           let before =
             match Hashtbl.find_opt tbl (flat_key p) with
             | Some q -> q.p_value
             | None -> 0.0
           in
           Some (flat_key p, increase ~prev:before ~cur:p.p_value))

(* ------------------------------------------------------------------ *)
(* Probe evaluation                                                     *)

let feed t registry ~probe ~label v =
  let p = ensure_probe t ~probe ~label in
  if Probe.observe p v then begin
    Recorder.note Probe_fired ~label:(Probe.id p)
      ~a:(int_of_float (Float.min v 1e15))
      ~b:
        (if Float.is_nan p.Probe.p_baseline then 0
         else int_of_float (Float.min p.Probe.p_baseline 1e15))
      ();
    Metric.incr
      (Registry.counter ~labels:[ ("probe", Probe.id p) ] registry "probe.fired")
  end

let evaluate t registry ~prev ~cur =
  let tbl = prev_index prev in
  let before p =
    match Hashtbl.find_opt tbl (flat_key p) with
    | Some q -> (q.p_value, q.p_sum)
    | None -> (0.0, 0.0)
  in
  (* per-fingerprint mean statement latency over this frame window:
     deltas of the digest.latency_us histograms, aggregated across the
     fingerprint's plans *)
  let lat = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      match p.p_kind with
      | Hist when p.p_name = "digest.latency_us" -> begin
        match List.assoc_opt "fp" p.p_labels with
        | None -> ()
        | Some fp ->
          let n0, s0 = before p in
          let dn = increase ~prev:n0 ~cur:p.p_value in
          let ds = if p.p_value < n0 then p.p_sum else p.p_sum -. s0 in
          if dn > 0.0 then begin
            let n, s =
              Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt lat fp)
            in
            Hashtbl.replace lat fp (n +. dn, s +. ds)
          end
      end
      | Hist | Counter | Gauge -> ())
    cur.f_points;
  Hashtbl.iter
    (fun fp (n, s) -> feed t registry ~probe:"latency" ~label:fp (s /. n))
    lat;
  (* engine-lock contention over this window: wait-time vs hold-time
     sums aggregated across every statement class.  The fed value is
     the wait/hold ratio as a percentage — 100 means requests spent as
     long waiting for the engine as using it *)
  let lock_wait = ref 0.0 and lock_hold = ref 0.0 and lock_seen = ref false in
  Array.iter
    (fun p ->
      match p.p_kind with
      | Hist
        when p.p_name = "serve.lock.wait_us"
             || p.p_name = "serve.lock.hold_us" ->
        lock_seen := true;
        let n0, s0 = before p in
        let ds =
          Float.max 0.0
            (if p.p_value < n0 then p.p_sum else p.p_sum -. s0)
        in
        if p.p_name = "serve.lock.wait_us" then lock_wait := !lock_wait +. ds
        else lock_hold := !lock_hold +. ds
      | Hist | Counter | Gauge -> ())
    cur.f_points;
  if !lock_seen then
    feed t registry ~probe:"lock-contention" ~label:""
      (100.0 *. !lock_wait /. Float.max !lock_hold 1.0);
  Array.iter
    (fun p ->
      match (p.p_kind, p.p_name, p.p_labels) with
      | Counter, "plan.switch", [] ->
        feed t registry ~probe:"plan-switch" ~label:""
          (increase ~prev:(fst (before p)) ~cur:p.p_value)
      | Gauge, "runtime.db_epoch", [] ->
        (* the epoch only moves forward, so a gauge delta is the
           invalidation count of the window *)
        feed t registry ~probe:"invalidation" ~label:""
          (increase ~prev:(fst (before p)) ~cur:p.p_value)
      | Gauge, "runtime.heap_words", [] ->
        feed t registry ~probe:"heap" ~label:"" p.p_value
      | Gauge, "serve.queue_peak_pct", [] ->
        (* the server latches the admission-queue high watermark here;
           feeding it rearms the latch, making the gauge
           peak-since-last-tick *)
        feed t registry ~probe:"queue-saturation" ~label:"" p.p_value;
        Metric.set (Registry.gauge registry "serve.queue_peak_pct") 0.0
      | Gauge, "runtime.wal_fsync_us", [] ->
        feed t registry ~probe:"fsync-stall" ~label:"" p.p_value
      | _ -> ())
    cur.f_points

(* ------------------------------------------------------------------ *)
(* Tick                                                                 *)

let tick ?epoch t registry =
  with_lock t (fun () ->
      update_runtime ?epoch registry;
      update_fsync t registry;
      (* register the verdict gauge before snapshotting, so the frame
         carries last tick's verdict and expose always shows one *)
      let hg = Registry.gauge registry "health.state" in
      let now = !Monotonic.clock () in
      let f =
        {
          f_seq = t.seq;
          f_unix = now;
          f_ticks = Monotonic.ticks ();
          f_points = snapshot registry;
        }
      in
      let prev = last_u t in
      push_raw t f;
      t.last_tick <- now;
      (match prev with
       | Some prev when prev.f_seq < f.f_seq ->
         evaluate t registry ~prev ~cur:f
       | Some _ | None -> ());
      Metric.set hg (float_of_int (health_exit (health_u t)));
      f)

let maybe_tick ?epoch t registry =
  if !Monotonic.clock () -. t.last_tick >= t.tl_interval then begin
    ignore (tick ?epoch t registry);
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* The global timeline                                                  *)

let state : t option ref = ref None

(* [on] and [source] are read by the background sampler thread while
   the statement path writes them, so they must be Atomic *)
let on = Atomic.make true
let env_read = ref false
let source : Registry.t option Atomic.t = Atomic.make None

(* background-sampler generation token: each start hands the freshly
   incremented value to the loop it spawns, and each stop increments
   it again, so a stale loop sees the mismatch and exits while a later
   [configure ~background:true] can always respawn *)
let bg_gen = Atomic.make 0
let bg_running = ref false  (* caller-side bookkeeping only *)

let env_tick () =
  match Option.map String.trim (Sys.getenv_opt "MAD_OBS_TICK") with
  | None | Some "" | Some "off" | Some "0" -> None
  | Some s ->
    let secs, bg =
      match String.index_opt s ':' with
      | Some i ->
        ( String.sub s 0 i,
          String.equal (String.sub s (i + 1) (String.length s - i - 1)) "bg" )
      | None -> (s, false)
    in
    (match float_of_string_opt secs with
     | Some v when v > 0.0 && Float.is_finite v -> Some (v, bg)
     | Some _ | None ->
       Printf.eprintf
         "mad_obs: ignoring invalid MAD_OBS_TICK=%S (expected SECS or \
          SECS:bg)\n%!"
         s;
       None)

let rec background_loop t gen =
  if Atomic.get bg_gen = gen then begin
    Unix.sleepf t.tl_interval;
    if Atomic.get bg_gen = gen && Atomic.get on then
      (match Atomic.get source with
       | Some registry -> ( try ignore (tick t registry) with _ -> ())
       | None -> ());
    background_loop t gen
  end

let start_background t =
  if not !bg_running then begin
    bg_running := true;
    let gen = 1 + Atomic.fetch_and_add bg_gen 1 in
    ignore (Thread.create (background_loop t) gen)
  end

let stop_background () =
  if !bg_running then begin
    bg_running := false;
    ignore (Atomic.fetch_and_add bg_gen 1)
  end

let configure ?capacity ?interval ?(background = false) () =
  env_read := true;
  let t =
    match !state with
    | Some t -> t
    | None ->
      let t = create ?capacity ?interval () in
      state := Some t;
      t
  in
  Atomic.set on true;
  if background then start_background t;
  t

let init_from_env () =
  if not !env_read then begin
    env_read := true;
    match env_tick () with
    | Some (interval, background) ->
      ignore (configure ~interval ~background ())
    | None -> ()
  end

let active () =
  init_from_env ();
  !state

let enabled () = Atomic.get on && Option.is_some (active ())
let set_enabled b = Atomic.set on b

let auto_tick ?epoch registry =
  match active () with
  | None -> ()
  | Some t ->
    Atomic.set source (Some registry);
    if Atomic.get on then ignore (maybe_tick ?epoch t registry)

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let kind_tag = function Counter -> "c" | Gauge -> "g" | Hist -> "h"

let point_json p =
  Json.Obj
    ([
       ("name", Json.Str p.p_name);
       ( "labels",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) p.p_labels) );
       ("kind", Json.Str (kind_tag p.p_kind));
       ("value", Json.Num p.p_value);
     ]
    @ if p.p_kind = Hist then [ ("sum", Json.Num p.p_sum) ] else [])

let frame_json f =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int f.f_seq));
      ("unix", Json.Num f.f_unix);
      ("ticks", Json.Num (float_of_int f.f_ticks));
      ("points", Json.List (List.map point_json (Array.to_list f.f_points)));
    ]

let probe_json p =
  Json.Obj
    [
      ("probe", Json.Str p.Probe.p_probe);
      ("label", Json.Str p.Probe.p_label);
      ("firing", Json.Bool (Probe.firing p));
      ( "value",
        if Float.is_nan p.Probe.p_last then Json.Null
        else Json.Num p.Probe.p_last );
      ( "baseline",
        if Float.is_nan p.Probe.p_baseline then Json.Null
        else Json.Num p.Probe.p_baseline );
      ("fired", Json.Num (float_of_int p.Probe.p_fired));
      ("seen", Json.Num (float_of_int p.Probe.p_seen));
    ]

let health_json t =
  with_lock t (fun () ->
      let h = health_u t in
      Json.Obj
        [
          ("state", Json.Str (health_name h));
          ("exit", Json.Num (float_of_int (health_exit h)));
          ("frames", Json.Num (float_of_int (sampled t)));
          ("probes", Json.List (List.map probe_json (probes_u t)));
        ])

let to_json t =
  with_lock t (fun () ->
      Json.Obj
        [
          ("interval_s", Json.Num t.tl_interval);
          ("frames", Json.List (List.map frame_json (frames_u t)));
          ("health", Json.Str (health_name (health_u t)));
          ("probes", Json.List (List.map probe_json (probes_u t)));
        ])

let csv_labels labels =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

(* [frames t] takes the lock; frames are immutable once read, so
   serializing the snapshot outside the lock is safe *)
let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "frame,unix,ticks,kind,name,labels,value,sum\n";
  List.iter
    (fun f ->
      Array.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%.6f,%d,%s,%s,%s,%g,%g\n" f.f_seq f.f_unix
               f.f_ticks (kind_tag p.p_kind) p.p_name (csv_labels p.p_labels)
               p.p_value p.p_sum))
        f.f_points)
    (frames t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Dashboard ([madql top], repl [:top])                                 *)

let find_point f name =
  Array.to_list f.f_points
  |> List.find_opt (fun p -> p.p_name = name && p.p_labels = [])

let pp_dashboard ppf t =
  with_lock t @@ fun () ->
  let h = health_u t in
  Format.fprintf ppf "health: %s  (%d frame(s), %d probe(s)" (health_name h)
    (sampled t)
    (List.length (probes_u t));
  (match List.filter Probe.firing (probes_u t) with
   | [] -> Format.fprintf ppf ")@."
   | firing ->
     Format.fprintf ppf "; firing: %s)@."
       (String.concat ", " (List.map Probe.id firing)));
  match last_u t with
  | None -> Format.fprintf ppf "no frames yet@."
  | Some cur ->
    let gauge name =
      match find_point cur name with Some p -> Some p.p_value | None -> None
    in
    let num name = Option.value ~default:0.0 (gauge name) in
    Format.fprintf ppf
      "runtime: heap %.1f MB  minor GCs %.0f  major GCs %.0f  epoch %.0f  \
       wal fsync %.1f us@."
      (num "runtime.heap_words" *. 8.0 /. 1048576.0)
      (num "runtime.gc_minor_collections")
      (num "runtime.gc_major_collections")
      (num "runtime.db_epoch")
      (num "runtime.wal_fsync_us");
    let prev =
      let fs = frames_u t in
      let rec penultimate = function
        | [ p; _ ] -> Some p
        | _ :: rest -> penultimate rest
        | [] -> None
      in
      penultimate fs
    in
    (match prev with
     | None -> ()
     | Some prev ->
       let dt = Float.max 1e-9 (cur.f_unix -. prev.f_unix) in
       let moved =
         delta ~prev cur
         |> List.filter (fun (k, d) ->
                d > 0.0
                && not
                     (String.length k >= 8 && String.sub k 0 8 = "runtime."))
         |> List.sort (fun (_, a) (_, b) -> compare b a)
       in
       Format.fprintf ppf "last %.2fs window:@." dt;
       List.iteri
         (fun i (k, d) ->
           if i < 8 then
             Format.fprintf ppf "  %-56s +%-8.0f %.1f/s@." k d (d /. dt))
         moved;
       (* the contention panel: engine-lock profile per statement
          class over the window, plus the saturation gauges — only on
          registries that carry the serve metrics *)
       let tbl = prev_index prev in
       let before p =
         match Hashtbl.find_opt tbl (flat_key p) with
         | Some q -> (q.p_value, q.p_sum)
         | None -> (0.0, 0.0)
       in
       let lock = Hashtbl.create 8 in
       Array.iter
         (fun p ->
           if p.p_kind = Hist then
             match (p.p_name, List.assoc_opt "class" p.p_labels) with
             | ("serve.lock.wait_us" | "serve.lock.hold_us"), Some cls ->
               let n0, s0 = before p in
               let dn = increase ~prev:n0 ~cur:p.p_value in
               let ds =
                 Float.max 0.0
                   (if p.p_value < n0 then p.p_sum else p.p_sum -. s0)
               in
               let wn, ws, hn, hs =
                 Option.value ~default:(0.0, 0.0, 0.0, 0.0)
                   (Hashtbl.find_opt lock cls)
               in
               if p.p_name = "serve.lock.wait_us" then
                 Hashtbl.replace lock cls (wn +. dn, ws +. ds, hn, hs)
               else Hashtbl.replace lock cls (wn, ws, hn +. dn, hs +. ds)
             | _ -> ())
         cur.f_points;
       let rows =
         Hashtbl.fold (fun cls v acc -> (cls, v) :: acc) lock []
         |> List.filter (fun (_, (wn, _, hn, _)) -> wn > 0.0 || hn > 0.0)
         |> List.sort (fun (_, (_, _, _, a)) (_, (_, _, _, b)) ->
                compare b a)
       in
       if rows <> [] then begin
         Format.fprintf ppf "lock contention (window):@.";
         Format.fprintf ppf "  %-10s %8s %14s %14s@." "class" "stmts"
           "wait us/stmt" "hold us/stmt";
         List.iter
           (fun (cls, (wn, ws, hn, hs)) ->
             let per n s = if n > 0.0 then s /. n else 0.0 in
             Format.fprintf ppf "  %-10s %8.0f %14.1f %14.1f@." cls
               (Float.max wn hn) (per wn ws) (per hn hs))
           rows
       end;
       (match find_point cur "serve.lock.contended" with
        | None -> ()
        | Some c ->
          let c0 =
            match Hashtbl.find_opt tbl (flat_key c) with
            | Some q -> q.p_value
            | None -> 0.0
          in
          Format.fprintf ppf
            "contention: contended +%.0f  lock waiters %.0f  fsync waiters \
             %.0f  queue peak %.0f%%@."
            (increase ~prev:c0 ~cur:c.p_value)
            (num "serve.lock.waiters")
            (num "serve.group.waiters")
            (num "serve.queue_peak_pct")));
    (match probes_u t with
     | [] -> ()
     | ps ->
       Format.fprintf ppf "%-28s %-8s %12s %12s %6s@." "probe" "state"
         "value" "baseline" "fired";
       List.iter
         (fun p ->
           let fv v =
             if Float.is_nan v then "-" else Printf.sprintf "%.1f" v
           in
           Format.fprintf ppf "%-28s %-8s %12s %12s %6d@." (Probe.id p)
             (if Probe.firing p then "FIRING" else "ok")
             (fv p.Probe.p_last)
             (fv p.Probe.p_baseline)
             p.Probe.p_fired)
         ps)

(* ------------------------------------------------------------------ *)
(* Persistence: [timeline.mad], in the .mad word syntax                *)

module Serialize = Mad_store.Serialize

let header = "# MAD timeline v2"

(* names, label keys and label values are quoted strings, so any
   registered name or label round-trips; a point's labels follow its
   name as alternating key and value words *)
let to_string t =
  with_lock t @@ fun () ->
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let q = Serialize.quote in
  line "%s" header;
  List.iter
    (fun f ->
      line "frame %d %.17g %d %d" f.f_seq f.f_unix f.f_ticks
        (Array.length f.f_points);
      Array.iter
        (fun p ->
          line "pt %s %.17g %.17g %s%s" (kind_tag p.p_kind) p.p_value p.p_sum
            (q p.p_name)
            (String.concat ""
               (List.map (fun (k, v) -> " " ^ q k ^ " " ^ q v) p.p_labels)))
        f.f_points)
    (frames_u t);
  List.iter
    (fun p ->
      line "probe %s %s %.17g %d %d" (q p.Probe.p_probe) (q p.Probe.p_label)
        p.Probe.p_baseline p.Probe.p_fired
        (if Probe.firing p then 1 else 0))
    (probes_u t);
  Buffer.contents buf

let rec labels = function
  | [] -> []
  | k :: v :: rest -> (Serialize.unquote k, Serialize.unquote v) :: labels rest
  | [ w ] -> failwith ("label key without a value: " ^ w)

(* points accumulate under the open frame until the next frame, probe
   or the end of the text pushes it *)
let merge t read =
  with_lock t @@ fun () ->
  let pending = ref None and pts = ref [] in
  let flush () =
    Option.iter
      (fun (f_seq, f_unix, f_ticks) ->
        push_raw t
          { f_seq; f_unix; f_ticks; f_points = Array.of_list (List.rev !pts) })
      !pending;
    pending := None;
    pts := []
  in
  let record = function
    | [ "frame"; seq; unix; ticks; _n ] ->
      let f =
        (int_of_string seq, float_of_string unix, int_of_string ticks)
      in
      flush ();
      pending := Some f
    | "pt" :: kind :: value :: sum :: name :: rest when !pending <> None ->
      let p_kind =
        match kind with
        | "c" -> Counter
        | "g" -> Gauge
        | "h" -> Hist
        | k -> failwith ("unknown point kind " ^ k)
      in
      let p =
        {
          p_name = Serialize.unquote name;
          p_labels = labels rest;
          p_kind;
          p_value = float_of_string value;
          p_sum = float_of_string sum;
        }
      in
      pts := p :: !pts
    | [ "probe"; probe; label; baseline; fired; firing ] ->
      let probe = Serialize.unquote probe and label = Serialize.unquote label in
      let baseline = float_of_string baseline and fired = int_of_string fired in
      let firing = int_of_string firing <> 0 in
      flush ();
      Probe.restore (ensure_probe t ~probe ~label) ~baseline ~fired ~firing
    | words -> failwith ("unknown record " ^ String.concat " " words)
  in
  let read_ok = read record in
  flush ();
  read_ok

let merge_string ~warn t s =
  merge t (Serialize.read_advisory ~file:"timeline.mad" ~header ~warn s)

let save t path = Serialize.write_atomically path (to_string t)
let load t path = merge t (Serialize.load_advisory ~header path)
