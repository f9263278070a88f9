(** Anomaly probes: EWMA baselines with trip/clear hysteresis (see the
    interface for the model).  Probes are plain unsynchronized state —
    the timeline tick that feeds them is already serialized. *)

type t = {
  p_probe : string;
  p_label : string;
  p_factor : float;
  p_min_fire : float;
  p_trip : int;
  p_clear : int;
  p_alpha : float;
  p_skip_zero : bool;
  mutable p_baseline : float;
  mutable p_hot : int;
  mutable p_cool : int;
  mutable p_firing : bool;
  mutable p_fired : int;
  mutable p_last : float;
  mutable p_seen : int;
}

let create ?(factor = 3.0) ?(min_fire = 0.0) ?(trip = 3) ?(clear = 3)
    ?(alpha = 0.3) ?(skip_zero = false) ~probe ?(label = "") () =
  {
    p_probe = probe;
    p_label = label;
    p_factor = factor;
    p_min_fire = min_fire;
    p_trip = max 1 trip;
    p_clear = max 1 clear;
    p_alpha = Float.max 0.01 (Float.min 1.0 alpha);
    p_skip_zero = skip_zero;
    p_baseline = nan;
    p_hot = 0;
    p_cool = 0;
    p_firing = false;
    p_fired = 0;
    p_last = nan;
    p_seen = 0;
  }

let firing t = t.p_firing
let id t = if t.p_label = "" then t.p_probe else t.p_probe ^ ":" ^ t.p_label

let observe t v =
  if not (Float.is_finite v) then false
  else begin
    t.p_last <- v;
    t.p_seen <- t.p_seen + 1;
    (* an unseeded probe cannot call anything anomalous: the first
       observation becomes the baseline *)
    let anomalous =
      v >= t.p_min_fire
      && (not (Float.is_nan t.p_baseline))
      && v > t.p_factor *. t.p_baseline
    in
    if anomalous then begin
      t.p_hot <- t.p_hot + 1;
      t.p_cool <- 0
    end
    else begin
      t.p_hot <- 0;
      (* only normal observations teach the baseline: a sustained
         regression keeps firing rather than redefining normal.  A
         zero under [skip_zero] is normal for hysteresis but teaches
         nothing — idle frames must not drag a rate baseline to 0 *)
      if not (t.p_skip_zero && v = 0.0) then
        t.p_baseline <-
          (if Float.is_nan t.p_baseline then v
           else (t.p_alpha *. v) +. ((1.0 -. t.p_alpha) *. t.p_baseline));
      if t.p_firing then t.p_cool <- t.p_cool + 1
    end;
    let fired_now = (not t.p_firing) && t.p_hot >= t.p_trip in
    if fired_now then begin
      t.p_firing <- true;
      t.p_fired <- t.p_fired + 1
    end;
    if t.p_firing && t.p_cool >= t.p_clear then begin
      t.p_firing <- false;
      t.p_cool <- 0
    end;
    fired_now
  end

let restore t ~baseline ~fired ~firing =
  if t.p_seen = 0 then begin
    if Float.is_finite baseline then t.p_baseline <- baseline;
    t.p_fired <- max t.p_fired fired;
    t.p_firing <- firing
  end
