(** Thread-safe lazy initialization.

    OCaml's [Lazy] is not thread-safe: two threads forcing the same
    unforced suspension concurrently fail with
    [CamlinternalLazy.Undefined] (or [RacyLazy]).  The process-wide
    singletons of the observability layer — the default context, the
    global flight-recorder ring, shared metric handles — can see their
    first use from any thread (e.g. several server workers accepting
    their first connections at once), so they initialize through this
    double-checked mutex instead. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make f] suspends [f] until the first {!force}. *)

val force : 'a t -> 'a
(** The value of the suspension.  [f] runs at most once; concurrent
    first forces block until it finished.  If [f] raises, the
    suspension stays unforced and the next force retries it. *)
