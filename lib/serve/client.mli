(** The MQL network client: a blocking connection to a [madql serve]
    endpoint ([madql connect] and the tests drive the server through
    this).  One request in flight at a time; every wire wait is
    bounded by the connection's [timeout]. *)

type t

type connect_error =
  | Busy  (** admission control refused the connection *)
  | Version_mismatch of int  (** the server's protocol version *)
  | Protocol of string  (** handshake violation, peer vanished, … *)

val pp_connect_error : Format.formatter -> connect_error -> unit

exception Remote of string
(** Transport or framing failure after the handshake.  The connection
    is unusable once raised (the stream cannot be resynchronized). *)

val connect :
  ?max_frame:int ->
  ?timeout:float ->
  host:string ->
  int ->
  (t, connect_error) result
(** TCP connect plus handshake proposing {!Wire.version}; a server
    that speaks another version answers [Version_mismatch].
    [timeout] (default 30 s) bounds each
    subsequent wire wait; [max_frame] caps response payloads.  Raises
    [Unix.Unix_error] only when the TCP connect itself fails
    (connection refused, unreachable). *)

val request : ?meta:Wire.meta -> t -> Wire.req -> Wire.status * string
(** One round trip.  [meta] rides statement requests.  Raises
    {!Remote} on transport failure. *)

val query : t -> string -> (string, string) result
(** Evaluate one MOL statement, rendered result or error message. *)

val query_traced :
  ?span:int -> t -> string -> (string * (string * float) list, string) result
(** Like {!query}, but also asks the server for its per-phase timing
    breakdown ([(phase, µs)] pairs; the phases partition the server's
    request wall-clock).  [span] is this client's trace span seq,
    recorded into the server's ring alongside the request. *)

val exec : t -> string -> (string, string) result
(** Evaluate one MOL statement, effect summary only. *)

val explain : t -> string -> (string, string) result

val stats : t -> string
(** Prometheus exposition of the server registry. *)

val health : t -> string
(** The server's health verdict document (JSON). *)

val ping : t -> bool
(** True on Pong. *)

val close : ?quit:bool -> t -> unit
(** Close the connection; [quit] (default true) first sends Quit and
    waits briefly for the server's Bye.  Idempotent. *)
