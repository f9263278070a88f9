(** The engine clock and its monotonic ticks (engine-clock
    nanoseconds) for event stamping. *)

val clock : (unit -> float) ref
(** The engine clock in seconds; defaults to [Unix.gettimeofday].
    Tests install a deterministic clock; platforms with a true
    monotonic clock can install it here. *)

val ticks : unit -> int
(** Nanoseconds on {!clock}, as a native [int]. *)
