(** The engine clock and its monotonic ticks.

    Every timing in the engine — spans, latency histograms, the WAL,
    the commit coordinator, the timeline — reads the pluggable
    {!clock}, so the deterministic clocks tests install drive them all,
    and a platform that swaps a true monotonic clock in upgrades every
    consumer at once.  A tick is a nanosecond on that clock.  Ticks fit
    a native [int] (63 bits outlast the epoch in nanoseconds);
    arithmetic on them is allocation-free, which is what lets recorder
    events be stamped on the hot path. *)

let clock = ref Unix.gettimeofday

let ticks () = int_of_float (!clock () *. 1e9)
