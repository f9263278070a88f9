(** Wire framing — see the interface for the layout. *)

let magic = "MADQ"
let version = 2
let default_max_frame = 4 * 1024 * 1024
let hello_bytes = 8
let header_bytes = 5

type req =
  | Query of string
  | Exec of string
  | Explain of string
  | Stats
  | Health
  | Ping
  | Quit

let req_op = function
  | Query _ -> 1
  | Exec _ -> 2
  | Explain _ -> 3
  | Stats -> 4
  | Health -> 5
  | Ping -> 6
  | Quit -> 7

let req_name = function
  | Query _ -> "query"
  | Exec _ -> "exec"
  | Explain _ -> "explain"
  | Stats -> "stats"
  | Health -> "health"
  | Ping -> "ping"
  | Quit -> "quit"

let req_payload = function
  | Query s | Exec s | Explain s -> s
  | Stats | Health | Ping | Quit -> ""

(* --- request metadata ----------------------------------------------- *)

type meta = { want_phases : bool; span : int }

let no_meta = { want_phases = false; span = 0 }
let meta_bytes = 9

let encode_meta m =
  let b = Bytes.create meta_bytes in
  Bytes.set_uint8 b 0 (if m.want_phases then 1 else 0);
  Bytes.set_int64_le b 1 (Int64.of_int m.span);
  Bytes.unsafe_to_string b

let decode_meta payload =
  if String.length payload < meta_bytes then None
  else
    let want_phases = String.get_uint8 payload 0 land 1 = 1 in
    let span = Int64.to_int (String.get_int64_le payload 1) in
    let text =
      String.sub payload meta_bytes (String.length payload - meta_bytes)
    in
    Some ({ want_phases; span }, text)

(* --- phase breakdown codec ------------------------------------------ *)

let encode_phases phases =
  String.concat ";"
    (List.map (fun (k, us) -> Printf.sprintf "%s:%.3f" k us) phases)

let decode_phases s =
  if String.length s = 0 then []
  else
    String.split_on_char ';' s
    |> List.filter_map (fun part ->
           match String.index_opt part ':' with
           | None -> None
           | Some i ->
             let k = String.sub part 0 i in
             let v = String.sub part (i + 1) (String.length part - i - 1) in
             Option.map (fun f -> (k, f)) (float_of_string_opt v))

let decode_result_with_phases s =
  if String.length s < 4 then None
  else
    let rl = Int32.to_int (String.get_int32_le s 0) in
    if rl < 0 || 4 + rl > String.length s then None
    else
      Some
        ( String.sub s 4 rl,
          decode_phases (String.sub s (4 + rl) (String.length s - 4 - rl)) )

type status = Ok | Error | Busy | Pong | Bye

let status_code = function Ok -> 0 | Error -> 1 | Busy -> 2 | Pong -> 3 | Bye -> 4

let status_name = function
  | Ok -> "ok"
  | Error -> "error"
  | Busy -> "busy"
  | Pong -> "pong"
  | Bye -> "bye"

let status_of_code = function
  | 0 -> Some Ok
  | 1 -> Some Error
  | 2 -> Some Busy
  | 3 -> Some Pong
  | 4 -> Some Bye
  | _ -> None

type hello_status = H_ok | H_version | H_busy

let hello_code = function H_ok -> 0 | H_version -> 1 | H_busy -> 2

let hello_of_code = function
  | 0 -> Some H_ok
  | 1 -> Some H_version
  | 2 -> Some H_busy
  | _ -> None

(* --- blocking fd IO ------------------------------------------------- *)

type 'a incoming =
  | Msg of 'a
  | Closed
  | Truncated
  | Oversized of int
  | Bad_magic
  | Timeout

let rec write_off fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_off fd s (off + n) (len - n)
  end

let write_all fd s = write_off fd s 0 (String.length s)

(* Read exactly [n] bytes into [buf] at [off].  [started] carries
   whether an earlier part of the same message already arrived, so the
   idle-vs-stalled distinction survives the header/payload boundary. *)
let read_exact ~keep_waiting ~started fd buf off n =
  let got = ref 0 in
  let rec go () =
    if !got = n then `Done
    else
      match Unix.read fd buf (off + !got) (n - !got) with
      | 0 -> if !got = 0 && not started then `Closed else `Truncated
      | k ->
        got := !got + k;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if keep_waiting ~started:(started || !got > 0) then go () else `Timeout
  in
  go ()

(* --- handshake ------------------------------------------------------ *)

let write_client_hello fd ~version =
  let b = Bytes.make hello_bytes '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint16_le b 4 version;
  write_all fd (Bytes.unsafe_to_string b)

let write_server_hello fd ~version st =
  let b = Bytes.make hello_bytes '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint16_le b 4 version;
  Bytes.set_uint8 b 6 (hello_code st);
  write_all fd (Bytes.unsafe_to_string b)

let read_hello ~keep_waiting fd =
  let b = Bytes.create hello_bytes in
  match read_exact ~keep_waiting ~started:false fd b 0 hello_bytes with
  | `Closed -> Closed
  | `Truncated -> Truncated
  | `Timeout -> Timeout
  | `Done ->
    if not (String.equal (Bytes.sub_string b 0 4) magic) then Bad_magic
    else Msg b

let read_client_hello ~keep_waiting fd =
  match read_hello ~keep_waiting fd with
  | Msg b -> Msg (Bytes.get_uint16_le b 4)
  | Closed -> Closed
  | Truncated -> Truncated
  | Oversized n -> Oversized n
  | Bad_magic -> Bad_magic
  | Timeout -> Timeout

let read_server_hello ~keep_waiting fd =
  match read_hello ~keep_waiting fd with
  | Msg b -> begin
    match hello_of_code (Bytes.get_uint8 b 6) with
    | Some st -> Msg (Bytes.get_uint16_le b 4, st)
    | None -> Bad_magic
  end
  | Closed -> Closed
  | Truncated -> Truncated
  | Oversized n -> Oversized n
  | Bad_magic -> Bad_magic
  | Timeout -> Timeout

(* --- frames --------------------------------------------------------- *)

let frame tag payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_uint8 b 4 tag;
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* every statement payload carries the fixed-size metadata prefix
   (zeros when the caller supplied none), so decoding never sniffs *)
let write_req ?meta fd r =
  let payload =
    match r with
    | Query _ | Exec _ | Explain _ ->
      encode_meta (Option.value meta ~default:no_meta) ^ req_payload r
    | _ -> req_payload r
  in
  write_all fd (frame (req_op r) payload)
let write_resp fd st payload = write_all fd (frame (status_code st) payload)

(* read one frame; [decode tag payload] interprets it *)
let read_frame ?(max_len = default_max_frame) ~keep_waiting ~decode fd =
  let hdr = Bytes.create header_bytes in
  match read_exact ~keep_waiting ~started:false fd hdr 0 header_bytes with
  | `Closed -> Closed
  | `Truncated -> Truncated
  | `Timeout -> Timeout
  | `Done ->
    let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
    let tag = Bytes.get_uint8 hdr 4 in
    if len < 0 || len > max_len then Oversized len
    else begin
      let payload = Bytes.create len in
      match read_exact ~keep_waiting ~started:true fd payload 0 len with
      | `Closed | `Truncated -> Truncated
      | `Timeout -> Timeout
      | `Done -> decode tag (Bytes.unsafe_to_string payload)
    end

let read_req ?max_len ~keep_waiting fd =
  read_frame ?max_len ~keep_waiting fd ~decode:(fun tag payload ->
      let stmt mk =
        match decode_meta payload with
        | Some (m, text) -> Msg (mk text, Some m)
        | None -> Bad_magic
      in
      match tag with
      | 1 -> stmt (fun s -> Query s)
      | 2 -> stmt (fun s -> Exec s)
      | 3 -> stmt (fun s -> Explain s)
      | 4 -> Msg (Stats, None)
      | 5 -> Msg (Health, None)
      | 6 -> Msg (Ping, None)
      | 7 -> Msg (Quit, None)
      | _ -> Bad_magic)

let read_resp ?max_len ~keep_waiting fd =
  read_frame ?max_len ~keep_waiting fd ~decode:(fun tag payload ->
      match status_of_code tag with
      | Some st -> Msg (st, payload)
      | None -> Bad_magic)

let req_bytes r =
  let m = match r with Query _ | Exec _ | Explain _ -> meta_bytes | _ -> 0 in
  header_bytes + m + String.length (req_payload r)

(* --- responses built in place --------------------------------------- *)

let reply_cap_error cap = Printf.sprintf "result exceeds the %d byte reply cap" cap

(* Cut the buffer to [n] bytes.  One past 1 MiB gives its storage
   back, so a large reply does not stay pinned to its connection. *)
let rewind b n =
  if Buffer.length b <= 1 lsl 20 then Buffer.truncate b n
  else begin
    Buffer.reset b;
    Buffer.add_string b (String.make n '\000')
  end

let reply_start b ~phases =
  rewind b 0;
  Buffer.add_string b (String.make (if phases then header_bytes + 4 else header_bytes) '\000')

let reply_error b msg =
  rewind b header_bytes;
  Buffer.add_string b msg

let reply_finish ~max_len b status phases =
  let rl = Buffer.length b - header_bytes - 4 in
  let phased =
    match phases with
    | Some p when status = Ok ->
      Buffer.add_string b (encode_phases p);
      true
    | Some _ | None -> false
  in
  let status =
    if Buffer.length b - header_bytes <= max_len then status
    else begin
      reply_error b (reply_cap_error max_len);
      Error
    end
  in
  let f = Buffer.to_bytes b in
  Bytes.set_int32_le f 0 (Int32.of_int (Bytes.length f - header_bytes));
  Bytes.set_uint8 f 4 (status_code status);
  if phased && status = Ok then Bytes.set_int32_le f header_bytes (Int32.of_int rl);
  (status, f)
