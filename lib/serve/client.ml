(** The MQL network client — see the interface for the contract. *)

type t = {
  fd : Unix.file_descr;
  max_frame : int;
  timeout : float;
  mutable closed : bool;
}

type connect_error =
  | Busy
  | Version_mismatch of int
  | Protocol of string

let pp_connect_error ppf = function
  | Busy -> Fmt.pf ppf "server busy (admission control refused the connection)"
  | Version_mismatch v -> Fmt.pf ppf "protocol version mismatch (server speaks %d)" v
  | Protocol msg -> Fmt.pf ppf "%s" msg

exception Remote of string

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))

let deadline_wait timeout =
  let t0 = Unix.gettimeofday () in
  fun ~started:_ -> Unix.gettimeofday () -. t0 < timeout

let connect ?(max_frame = Wire.default_max_frame) ?(timeout = 30.0) ~host
    port =
  (* same rationale as the server: a dead peer is an EPIPE, not a
     process death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = resolve host in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let fail e =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error e
  in
  match
    Unix.connect fd (Unix.ADDR_INET (addr, port));
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
    Wire.write_client_hello fd ~version:Wire.version;
    Wire.read_server_hello ~keep_waiting:(deadline_wait timeout) fd
  with
  | Wire.Msg (_, Wire.H_ok) -> Ok { fd; max_frame; timeout; closed = false }
  | Wire.Msg (v, Wire.H_version) -> fail (Version_mismatch v)
  | Wire.Msg (_, Wire.H_busy) -> fail Busy
  | Wire.Closed | Wire.Truncated ->
    fail (Protocol "connection closed during handshake")
  | Wire.Bad_magic -> fail (Protocol "not a madql server (bad magic)")
  | Wire.Oversized _ -> fail (Protocol "malformed handshake")
  | Wire.Timeout -> fail (Protocol "handshake timed out")
  | exception (Unix.Unix_error _ as e) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let broken t msg =
  t.closed <- true;
  raise (Remote msg)

let request ?meta t req =
  if t.closed then raise (Remote "connection is closed");
  (try Wire.write_req ?meta t.fd req
   with Unix.Unix_error (e, _, _) ->
     broken t (Printf.sprintf "send failed: %s" (Unix.error_message e)));
  match
    Wire.read_resp ~max_len:t.max_frame ~keep_waiting:(deadline_wait t.timeout)
      t.fd
  with
  | Wire.Msg (st, payload) -> (st, payload)
  | Wire.Closed | Wire.Truncated -> broken t "server closed the connection"
  | Wire.Oversized n ->
    broken t (Printf.sprintf "oversized response (%d byte payload)" n)
  | Wire.Bad_magic -> broken t "malformed response frame"
  | Wire.Timeout -> broken t "response timed out"
  | exception (Unix.Unix_error (e, _, _)) ->
    broken t (Printf.sprintf "receive failed: %s" (Unix.error_message e))

let expect_result t req =
  match request t req with
  | Wire.Ok, payload -> Ok payload
  | Wire.Error, msg -> Error msg
  | st, _ ->
    raise (Remote (Printf.sprintf "unexpected %s response" (Wire.status_name st)))

let query t stmt = expect_result t (Wire.Query stmt)
let exec t stmt = expect_result t (Wire.Exec stmt)
let explain t stmt = expect_result t (Wire.Explain stmt)

let query_traced ?(span = 0) t stmt =
  let meta = { Wire.want_phases = true; span } in
  match request ~meta t (Wire.Query stmt) with
  | Wire.Ok, payload -> begin
    match Wire.decode_result_with_phases payload with
    | Some (r, phases) -> Ok (r, phases)
    | None -> broken t "malformed phase-annotated response"
  end
  | Wire.Error, msg -> Error msg
  | st, _ ->
    raise
      (Remote (Printf.sprintf "unexpected %s response" (Wire.status_name st)))

let expect_ok t req =
  match expect_result t req with
  | Ok payload -> payload
  | Error msg -> raise (Remote msg)

let stats t = expect_ok t Wire.Stats
let health t = expect_ok t Wire.Health
let ping t = match request t Wire.Ping with Wire.Pong, _ -> true | _ -> false

let close ?(quit = true) t =
  if not t.closed then begin
    (if quit then
       try ignore (request t Wire.Quit) with Remote _ | Unix.Unix_error _ -> ());
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
