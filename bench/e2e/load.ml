(* Load generation over the wire: one blocking Client connection per
   role, closed-loop readers and an open-loop writer, each recording
   one sample per statement. *)

module Client = Mad_serve.Client

type sample = {
  conn : int;
  tmpl : string;
  text : string;
  sent : float;  (** when the statement went out *)
  lat : float;  (** seconds: closed loop from [sent], open loop from its due time *)
  late : float;  (** open loop: [sent] minus the due time; 0 in a closed loop *)
  reply_bytes : int;
  ok : bool;
  phases : (string * float) list;  (** server-reported µs per phase, traced only *)
}

(* One round trip of [s], due at [due] (by default when it is sent);
   [traced t] asks for the server's phases on a statement sent at [t].
   The sample, and whether the connection is still usable (a transport
   failure cannot be resynchronized). *)
let send ~conn ~traced ?due c (s : Mix.stmt) =
  let sent = Report.now () in
  let due = Option.value due ~default:sent in
  let out =
    try
      Ok
        (if traced sent then Client.query_traced c s.text
         else Result.map (fun r -> (r, [])) (Client.query c s.text))
    with Client.Remote m -> Error m
  in
  let fin = Report.now () in
  let ok, reply_bytes, phases, usable =
    match out with
    | Ok (Ok (r, phases)) -> (true, String.length r, phases, true)
    | Ok (Error m) ->
      prerr_endline ("madbench: error reply: " ^ m ^ " for " ^ s.text);
      (false, 0, [], true)
    | Error m ->
      prerr_endline ("madbench: transport failure: " ^ m);
      (false, 0, [], false)
  in
  ( { conn; tmpl = s.tmpl; text = s.text; sent; lat = fin -. due; late = sent -. due;
      reply_bytes; ok; phases },
    usable )

(* Closed loop: statement k+1 goes out when the reply to statement k
   is in, until [until]. *)
let closed_loop ~conn ~traced ~until ~next c =
  let rec go k acc =
    if Report.now () >= until then List.rev acc
    else
      let sm, usable = send ~conn ~traced c (next k) in
      if usable then go (k + 1) (sm :: acc) else List.rev (sm :: acc)
  in
  go 0 []

(* Open loop: statement k is due at [start + k / rate] whatever the
   previous ones took; latency counts from the due time, so a stall
   also delays (and is charged to) the statements queued behind it. *)
let open_loop ~conn ~traced ~rate ~start ~until ~next c =
  let rec go k acc =
    let due = start +. (float_of_int k /. rate) in
    if due >= until then List.rev acc
    else begin
      let wait = due -. Report.now () in
      if wait > 0.0 then Unix.sleepf wait;
      let sm, usable = send ~conn ~traced ~due c (next k) in
      if usable then go (k + 1) (sm :: acc) else List.rev (sm :: acc)
    end
  in
  go 0 []

(* Run one function per connection concurrently (the first on the
   calling domain) and collect the results in connection order. *)
let in_parallel fs =
  match fs with
  | [] -> []
  | f0 :: rest ->
    let ds = List.map (fun f -> Domain.spawn f) rest in
    let r0 = match f0 () with r -> Ok r | exception e -> Error e in
    let rs = List.map Domain.join ds in
    (match r0 with Ok r -> r | Error e -> raise e) :: rs
