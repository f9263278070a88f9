(** The MQL network service: [madql serve].

    A TCP server multiplexing MOL sessions over one database.  Each
    accepted connection is served by a worker thread for the
    connection's lifetime and owns a private {!Mad_mql.Session} with
    its own observability context, adaptive catalog slot and workload
    digest — so slow-log and digest attribution stay per-connection.
    Statement execution is serialized under one engine mutex (the
    store is not thread-safe); durability acknowledgement is not:
    writers publish the WAL position their statement reached and then
    wait on the cross-session {!Mad_durable.Coordinator}, so one
    batched fsync acknowledges every commit it covers and the fsyncs
    per commit drop below one under concurrent writers.

    Admission control: at most [workers] connections are served
    concurrently; up to [max_pending] more wait in a bounded queue;
    beyond that the server answers the handshake with a typed busy
    verdict ({!Wire.H_busy}) and closes — clients see
    [Error Busy], never a raw reset.

    A durable server must {e not} use [snapshot_every] auto-rolling
    (it truncates the WAL mid-stream, which breaks the coordinator's
    monotone positions); snapshot on shutdown instead.

    Metrics (in the server's [obs]): [serve.connections],
    [serve.busy], [serve.errors], [serve.bytes_in]/[serve.bytes_out]
    counters, [serve.active] gauge, [serve.requests{op=...}] counters,
    the [serve.request_us] latency histogram, and — durable only —
    the coordinator's [serve.group.commits] / [serve.group.fsyncs] /
    [serve.group.batch] / [serve.group.wait_us].  Every connection
    open/close and every served request also journals to the flight
    recorder ([Serve_conn] / [Serve_request] events). *)

type config = {
  host : string;  (** bind address (name or dotted quad) *)
  port : int;  (** 0 picks an ephemeral port — read it back with {!port} *)
  workers : int;  (** worker threads = max connections served at once *)
  max_pending : int;  (** accepted connections waiting for a worker *)
  idle_timeout : float;  (** seconds between requests before the server says Bye *)
  read_timeout : float;  (** seconds a started frame may stall mid-read *)
  max_frame : int;  (** request payload cap in bytes *)
}

val default_config : config
(** 127.0.0.1:0, 4 workers, 16 pending, 300 s idle, 30 s read,
    {!Wire.default_max_frame} cap. *)

type t

val start :
  ?obs:Mad_obs.Obs.t ->
  ?config:config ->
  ?durable:Mad_durable.Durable.t ->
  Mad_store.Database.t ->
  t
(** Bind, listen and start the accept and worker threads (all in the
    calling domain); returns once the server is accepting.  [obs] (default a fresh
    [Mad_obs.Obs.create ()]) holds the [serve.*] metrics and is what
    the [Stats] request exposes.  With [durable], pass
    [Mad_durable.Durable.db h] as the database: DML is journaled by
    the store's WAL hook and acknowledged through the group-commit
    coordinator.  Ignores [SIGPIPE] process-wide (socket writes to a
    vanished peer must surface as [EPIPE], not kill the server).
    Fails with a typed [Err.Mad_error] when the address cannot be
    resolved or bound. *)

val port : t -> int
(** The bound port (the ephemeral pick when [config.port] was 0). *)

val config : t -> config
val obs : t -> Mad_obs.Obs.t
val db : t -> Mad_store.Database.t

val coordinator : t -> Mad_durable.Coordinator.t option
(** The cross-session group-commit coordinator ([Some] iff durable). *)

val connections : t -> int
(** Connections accepted and admitted so far. *)

val request_stop : t -> unit
(** Ask the server to stop.  Async-signal-safe (one atomic store) —
    this is what a SIGINT/SIGTERM handler calls; follow with {!stop}
    from ordinary context. *)

val stopped : t -> bool

val stop : t -> unit
(** Stop and join: close the listener, wake the accept and worker
    threads, let each worker finish the request it is serving (the
    response is sent) and say Bye, then close never-served pending
    connections.  Idempotent; safe after {!request_stop}. *)
