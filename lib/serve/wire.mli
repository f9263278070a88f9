(** The MQL wire protocol: a length-prefixed binary framing over TCP.

    Connection establishment is a fixed-size handshake:
    {v
    client → server   "MADQ" + u16 LE version + 2 reserved bytes
    server → client   "MADQ" + u16 LE version + u8 status + 1 reserved
    v}
    Handshake status: 0 = accepted, 1 = version mismatch (the server's
    version, 2, rides in the reply), 2 = busy (admission control
    refused the connection).  After a non-zero status the server
    closes.  The only version is 2: a proposal of any other version is
    refused with status 1.

    Then framed request/response, one response per request:
    {v
    request    u32 LE payload length | u8 opcode | payload
    response   u32 LE payload length | u8 status | payload
    v}
    Opcodes: 1 Query, 2 Exec, 3 Explain, 4 Stats, 5 Health, 6 Ping,
    7 Quit.  Response status: 0 Ok, 1 Error, 2 Busy, 3 Pong, 4 Bye.
    The length counts the payload only; a frame whose declared length
    exceeds the receiver's cap is rejected and the connection closed
    (there is no way to resynchronize a stream after a framing
    violation).

    {2 Statement metadata}

    Every statement payload (opcodes 1–3) starts with a fixed 9-byte
    metadata prefix:
    {v
    u8 flags | i64 LE client span seq | statement text
    v}
    flags bit 0 asks the server to return its phase breakdown; the
    span seq links the request to the client's own trace ring.  When
    phases were requested, an [Ok] response to the statement is
    re-framed as
    {v
    u32 LE result length | result | phase text
    v}
    where the phase text is [name:us;name:us;…] ({!encode_phases}). *)

val magic : string
(** ["MADQ"]. *)

val version : int
(** The protocol version this library speaks (2). *)

val default_max_frame : int
(** Default request/response payload cap: 4 MiB. *)

val hello_bytes : int
(** Size of either handshake message (8). *)

val header_bytes : int
(** Frame overhead per message: u32 length + u8 opcode/status (5). *)

type req =
  | Query of string  (** evaluate one MOL statement, render the result *)
  | Exec of string  (** evaluate, return only a summary (DML-friendly) *)
  | Explain of string  (** the algebra plan, without executing *)
  | Stats  (** Prometheus exposition of the server registry *)
  | Health  (** the timeline health verdict as JSON *)
  | Ping
  | Quit

val req_op : req -> int
val req_name : req -> string
(** Stable lowercase tag ("query", "exec", …) for metrics labels. *)

type meta = { want_phases : bool; span : int }
(** Per-request metadata carried by statement payloads:
    [want_phases] asks for the server-side phase breakdown in the
    response; [span] is the client's trace span seq (0 when the client
    is not tracing). *)

val no_meta : meta
(** [{ want_phases = false; span = 0 }] — what a statement carries
    when the caller supplied none. *)

val meta_bytes : int
(** Size of the encoded metadata prefix (9). *)

val encode_phases : (string * float) list -> string
(** [name:us;name:us;…] — phase names never contain [':'] or [';']. *)

val decode_phases : string -> (string * float) list
(** Inverse of {!encode_phases}; malformed segments are dropped. *)

val encode_result_with_phases : string -> (string * float) list -> string
(** The phase-carrying [Ok] payload: u32 LE result length, the result,
    then the encoded phases. *)

val decode_result_with_phases : string -> (string * (string * float) list) option
(** [None] when the payload is too short or the embedded length is
    inconsistent. *)

type status = Ok | Error | Busy | Pong | Bye

val status_code : status -> int
val status_name : status -> string

type hello_status = H_ok | H_version | H_busy

(** {1 Blocking fd IO}

    Reads poll: the socket should carry a short [SO_RCVTIMEO] slice,
    and every time a read would block, [keep_waiting ~started] decides
    whether to keep going ([started] is true once any byte of the
    current message has arrived — callers use it to distinguish an
    idle connection from a stalled mid-frame sender). *)

type 'a incoming =
  | Msg of 'a
  | Closed  (** peer closed at a message boundary *)
  | Truncated  (** peer closed mid-message *)
  | Oversized of int  (** declared payload length exceeds the cap *)
  | Bad_magic
  | Timeout  (** [keep_waiting] said stop *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string (retrying partial writes and [EINTR]). *)

val write_client_hello : Unix.file_descr -> version:int -> unit
val write_server_hello : Unix.file_descr -> version:int -> hello_status -> unit

val read_client_hello :
  keep_waiting:(started:bool -> bool) -> Unix.file_descr -> int incoming
(** The client's proposed version. *)

val read_server_hello :
  keep_waiting:(started:bool -> bool) ->
  Unix.file_descr ->
  (int * hello_status) incoming
(** The server's (version, verdict). *)

val write_req : ?meta:meta -> Unix.file_descr -> req -> unit
(** Statement requests always carry the metadata prefix ([meta],
    default {!no_meta}); [meta] is ignored on other requests. *)

val write_resp : Unix.file_descr -> status -> string -> unit

val read_req :
  ?max_len:int ->
  keep_waiting:(started:bool -> bool) ->
  Unix.file_descr ->
  (req * meta option) incoming
(** The metadata is [Some _] exactly for statement requests.  An
    unknown opcode byte — or a statement payload shorter than the
    metadata prefix — is a protocol violation and yields [Bad_magic]
    (the stream cannot be trusted past it; the server closes the
    connection). *)

val read_resp :
  ?max_len:int ->
  keep_waiting:(started:bool -> bool) ->
  Unix.file_descr ->
  (status * string) incoming

val req_bytes : req -> int
(** On-wire size of the request (header + payload, including the
    statement metadata prefix). *)

val resp_bytes : string -> int
(** On-wire size of a response with this payload. *)
