(** Metric instruments.

    An instrument is a mutable cell; recording is a field update, so
    instruments can sit on hot paths (molecule derivation visits one
    counter per atom).  Aggregation, naming and export live in
    {!Registry}; an unregistered instrument is just a
    cheap local accumulator (the [Derive.stats] shim uses that). *)

type labels = (string * string) list

type counter = {
  c_name : string;
  c_labels : labels;
  count : int Atomic.t;
      (** atomic so preemptible connection threads can account into
          the same counter without losing increments *)
}

type gauge = {
  g_name : string;
  g_labels : labels;
  cell : float Atomic.t;
      (** atomic for the same reason as [count] *)
}

(* Histograms are fully atomic: server worker threads observe into the
   same instrument concurrently (per-request phase timings, lock
   profiles), so every cell is an [Atomic.t] — bucket increments are
   [fetch_and_add], float accumulators are CAS retry loops.  A reader
   racing writers may see a bucket total and [h_n] momentarily out of
   step; exposition tolerates that (telemetry reads are snapshots, not
   transactions). *)
type histogram = {
  h_name : string;
  h_labels : labels;
  bounds : float array;  (** inclusive upper bounds, strictly increasing *)
  counts : int Atomic.t array;
      (** length = length bounds + 1 (overflow bucket) *)
  ex_seq : int Atomic.t array;
      (** per-bucket exemplar: recorder seq of the last span that
          landed in the bucket, [-1] while the bucket has none *)
  ex_val : float Atomic.t array;  (** the exemplar's observed value *)
  h_sum : float Atomic.t;
  h_n : int Atomic.t;
  h_min : float Atomic.t;  (** [infinity] while empty *)
  h_max : float Atomic.t;  (** [neg_infinity] while empty *)
}

type sample = Counter of counter | Gauge of gauge | Histogram of histogram

(* ------------------------------------------------------------------ *)

let counter ?(labels = []) name =
  { c_name = name; c_labels = labels; count = Atomic.make 0 }

let incr c = Atomic.incr c.count
let add c n = ignore (Atomic.fetch_and_add c.count n)
let value c = Atomic.get c.count

let gauge ?(labels = []) name =
  { g_name = name; g_labels = labels; cell = Atomic.make 0.0 }

let set g v = Atomic.set g.cell v
let get g = Atomic.get g.cell

(* [compare_and_set] on a boxed float compares the box physically; we
   retry with the freshly read box, so the loop is ABA-safe. *)
let rec add_float cell d =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. d)) then add_float cell d

let add_gauge g d = add_float g.cell d

let rec fold_float cell f v =
  let cur = Atomic.get cell in
  let next = f cur v in
  if next <> cur && not (Atomic.compare_and_set cell cur next) then
    fold_float cell f v

(** Default histogram bounds: a 1-2-5 ladder covering microsecond to
    multi-second durations in milliseconds. *)
let default_bounds =
  [| 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0;
     10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0; 5000.0 |]

(** A 1-2-5 ladder for operator latencies in microseconds: 1 µs up to
    5 s — the bounds of the [op.latency_us] histograms. *)
let latency_bounds_us =
  [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1e3; 2e3; 5e3;
     1e4; 2e4; 5e4; 1e5; 2e5; 5e5; 1e6; 2e6; 5e6 |]

let histogram ?(labels = []) ?(bounds = default_bounds) name =
  {
    h_name = name;
    h_labels = labels;
    bounds;
    counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
    ex_seq = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make (-1));
    ex_val = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0.0);
    h_sum = Atomic.make 0.0;
    h_n = Atomic.make 0;
    h_min = Atomic.make infinity;
    h_max = Atomic.make neg_infinity;
  }

let observe ?(exemplar = -1) h v =
  let k = Array.length h.bounds in
  let rec bucket i = if i >= k || v <= h.bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  ignore (Atomic.fetch_and_add h.counts.(i) 1);
  if exemplar >= 0 then begin
    (* value first, seq last: a racing exposition keyed on [seq >= 0]
       never reads the value of a half-written exemplar pair (the pair
       can mix two concurrent exemplars — diagnostic, tolerated) *)
    Atomic.set h.ex_val.(i) v;
    Atomic.set h.ex_seq.(i) exemplar
  end;
  add_float h.h_sum v;
  ignore (Atomic.fetch_and_add h.h_n 1);
  fold_float h.h_min Float.min v;
  fold_float h.h_max Float.max v

let count h = Atomic.get h.h_n
let sum h = Atomic.get h.h_sum
let bucket_count h i = Atomic.get h.counts.(i)
let exemplar_seq h i = Atomic.get h.ex_seq.(i)
let exemplar_value h i = Atomic.get h.ex_val.(i)

let min_raw h = Atomic.get h.h_min
let max_raw h = Atomic.get h.h_max

let mean h =
  let n = count h in
  if n = 0 then 0.0 else sum h /. float_of_int n

let min_value h = if count h = 0 then 0.0 else min_raw h
let max_value h = if count h = 0 then 0.0 else max_raw h

(** Approximate quantile ([q] in [0,1]): find the bucket holding the
    target rank, then interpolate linearly inside it.  The first
    bucket's lower edge is the tracked minimum and the overflow
    bucket's upper edge is the tracked maximum, so long-tail
    observations beyond the last bound report their true range instead
    of being capped at [bounds.(k-1)].  [None] while the histogram is
    empty — there is no rank to interpolate against, and the sentinels
    [h_min = infinity] / [h_max = neg_infinity] must not leak. *)
let quantile h q =
  let n = count h in
  if n = 0 then None
  else begin
    let min_v = min_raw h and max_v = max_raw h in
    let target = int_of_float (Float.round (q *. float_of_int n)) in
    let target = max 1 (min n target) in
    let k = Array.length h.bounds in
    let rec go i before =
      let c = bucket_count h i in
      if i < k && before + c < target then go (i + 1) (before + c)
      else begin
        let lower = if i = 0 then min_v else h.bounds.(i - 1) in
        let upper = if i < k then h.bounds.(i) else max_v in
        let v =
          if c = 0 then upper
          else
            lower
            +. (upper -. lower)
               *. (float_of_int (target - before) /. float_of_int c)
        in
        (* observed range always brackets the estimate *)
        Float.max min_v (Float.min max_v v)
      end
    in
    Some (go 0 0)
  end

(** Merge a persisted histogram snapshot into [h] (same bounds ladder
    assumed) — the digest store uses this to fold [digest.mad] counts
    back into live instruments. *)
let absorb h ~counts ~sum ~n ~min_v ~max_v =
  let k = min (Array.length h.counts) (Array.length counts) in
  for i = 0 to k - 1 do
    ignore (Atomic.fetch_and_add h.counts.(i) counts.(i))
  done;
  add_float h.h_sum sum;
  ignore (Atomic.fetch_and_add h.h_n n);
  if n > 0 then begin
    fold_float h.h_min Float.min min_v;
    fold_float h.h_max Float.max max_v
  end

let reset = function
  | Counter c -> Atomic.set c.count 0
  | Gauge g -> Atomic.set g.cell 0.0
  | Histogram h ->
    Array.iter (fun c -> Atomic.set c 0) h.counts;
    Array.iter (fun c -> Atomic.set c (-1)) h.ex_seq;
    Array.iter (fun c -> Atomic.set c 0.0) h.ex_val;
    Atomic.set h.h_sum 0.0;
    Atomic.set h.h_n 0;
    Atomic.set h.h_min infinity;
    Atomic.set h.h_max neg_infinity

(* ------------------------------------------------------------------ *)

let name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let labels = function
  | Counter c -> c.c_labels
  | Gauge g -> g.g_labels
  | Histogram h -> h.h_labels

let pp_labels ppf = function
  | [] -> ()
  | labels ->
    Fmt.pf ppf "{%a}"
      Fmt.(list ~sep:(any ",") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
      labels

let pp_quantile ppf = function
  | None -> Fmt.pf ppf "-"
  | Some v -> Fmt.pf ppf "%.3f" v

let pp ppf = function
  | Counter c ->
    Fmt.pf ppf "%s%a = %d" c.c_name pp_labels c.c_labels (Atomic.get c.count)
  | Gauge g ->
    Fmt.pf ppf "%s%a = %g" g.g_name pp_labels g.g_labels (Atomic.get g.cell)
  | Histogram h ->
    Fmt.pf ppf "%s%a: n=%d sum=%.3f min=%.3f mean=%.3f p50=%a p95=%a max=%.3f"
      h.h_name pp_labels h.h_labels (count h) (sum h) (min_value h) (mean h)
      pp_quantile (quantile h 0.5) pp_quantile (quantile h 0.95) (max_value h)
