(** The metrics registry: get-or-create instruments by (name, labels).

    A registry is the unit of aggregation and isolation — each MOL
    session and each EXPLAIN ANALYZE run owns one, so actual counters
    can be compared against a plan's estimates without cross-talk. *)

type key = string * Metric.labels

(* the lock serializes every Hashtbl / [order] access: the timeline's
   background sampler thread snapshots ([to_list]) while the statement
   path registers new instruments, and stdlib Hashtbl is not safe
   under unsynchronized use from preemptible threads.  Instrument mutation
   (Metric.incr and friends) stays lock-free — word-sized fields never
   tear, and telemetry tolerates a stale read. *)
type t = {
  metrics : (key, Metric.sample) Hashtbl.t;
  lock : Mutex.t;
  mutable order : key list;  (** registration order, reversed *)
}

let create () =
  { metrics = Hashtbl.create 32; lock = Mutex.create (); order = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let canon labels = List.sort compare labels

let get_or_create t name labels build cast kind =
  let key = (name, canon labels) in
  locked t @@ fun () ->
  match Hashtbl.find_opt t.metrics key with
  | Some sample -> begin
    match cast sample with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Mad_obs.Registry: %s already registered as a non-%s"
           name kind)
  end
  | None ->
    let m, sample = build () in
    Hashtbl.replace t.metrics key sample;
    t.order <- key :: t.order;
    m

let counter ?(labels = []) t name =
  get_or_create t name labels
    (fun () ->
      let c = Metric.counter ~labels:(canon labels) name in
      (c, Metric.Counter c))
    (function Metric.Counter c -> Some c | _ -> None)
    "counter"

let gauge ?(labels = []) t name =
  get_or_create t name labels
    (fun () ->
      let g = Metric.gauge ~labels:(canon labels) name in
      (g, Metric.Gauge g))
    (function Metric.Gauge g -> Some g | _ -> None)
    "gauge"

let histogram ?(labels = []) ?bounds t name =
  get_or_create t name labels
    (fun () ->
      let h = Metric.histogram ~labels:(canon labels) ?bounds name in
      (h, Metric.Histogram h))
    (function Metric.Histogram h -> Some h | _ -> None)
    "histogram"

let find t ?(labels = []) name =
  let key = (name, canon labels) in
  locked t (fun () -> Hashtbl.find_opt t.metrics key)

let counter_value t ?labels name =
  match find t ?labels name with
  | Some (Metric.Counter c) -> Metric.value c
  | Some (Metric.Gauge _ | Metric.Histogram _) | None -> 0

let to_list t =
  locked t (fun () ->
      List.rev_map (fun key -> Hashtbl.find t.metrics key) t.order)

let reset t = List.iter Metric.reset (to_list t)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:(any "@,") Metric.pp) (to_list t)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                           *)

(* metric names may only use [a-zA-Z0-9_:]; the engine's dotted names
   ("op.latency_us") map onto underscores *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels buf = function
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (prom_name k);
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (prom_escape v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let expose t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 8 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  let line name labels value =
    Buffer.add_string buf name;
    prom_labels buf labels;
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun sample ->
      match sample with
      | Metric.Counter c ->
        let name = prom_name c.Metric.c_name in
        type_line name "counter";
        line name c.Metric.c_labels (string_of_int (Metric.value c))
      | Metric.Gauge g ->
        let name = prom_name g.Metric.g_name in
        type_line name "gauge";
        line name g.Metric.g_labels (prom_float (Metric.get g))
      | Metric.Histogram h ->
        let name = prom_name h.Metric.h_name in
        type_line name "histogram";
        (* OpenMetrics exemplar: the flight-recorder seq of the last
           span that landed in the bucket, so a histogram outlier links
           back to a concrete trace event.  When the ring is disabled
           (MAD_OBS_RING=0, or toggled off mid-run) the seqs cannot be
           chased into a trace, so no exemplar is rendered — a stale
           seq pointing at an overwritten or never-recorded event is
           worse than none. *)
        let ring_on = Recorder.enabled () in
        let exemplar i value =
          let seq = Metric.exemplar_seq h i in
          if (not ring_on) || seq < 0 then value
          else
            Printf.sprintf "%s # {span_seq=\"%d\"} %s" value seq
              (prom_float (Metric.exemplar_value h i))
        in
        let acc = ref 0 in
        Array.iteri
          (fun i bound ->
            acc := !acc + Metric.bucket_count h i;
            line (name ^ "_bucket")
              (h.Metric.h_labels @ [ ("le", prom_float bound) ])
              (exemplar i (string_of_int !acc)))
          h.Metric.bounds;
        line (name ^ "_bucket")
          (h.Metric.h_labels @ [ ("le", "+Inf") ])
          (exemplar (Array.length h.Metric.bounds)
             (string_of_int (Metric.count h)));
        line (name ^ "_sum") h.Metric.h_labels (prom_float (Metric.sum h));
        line (name ^ "_count") h.Metric.h_labels
          (string_of_int (Metric.count h)))
    (to_list t);
  Buffer.contents buf
