(* The traced run's spans: kept in memory, written at exit as a Chrome
   trace (loadable in chrome://tracing and Perfetto).  Each statement
   is one trace, its sequence number the trace id; a span names the
   span that called it as its parent. *)

type span = {
  name : string;
  track : int;  (** 1: the client's view of the server, 2: the in-process replay *)
  conn : int;
  trace_id : int;
  id : int;
  parent : int;  (** 0 for a statement's root span *)
  t0_ns : int;
  dur_ns : int;
}

let spans : span list ref = ref []
let next_id = ref 0

(* Record a finished span; its id, for children to name as parent. *)
let add ~name ~track ~conn ~trace_id ?(parent = 0) ~t0_ns ~dur_ns () =
  incr next_id;
  spans :=
    { name; track; conn; trace_id; id = !next_id; parent; t0_ns; dur_ns = max 0 dur_ns }
    :: !spans;
  !next_id

let event ~origin s =
  Printf.sprintf
    "{\"name\": %s, \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \
     \"args\": {\"trace_id\": %d, \"span_id\": %d, \"parent_id\": %d}}"
    (Report.json_string s.name) s.track s.conn
    (float_of_int (s.t0_ns - origin) /. 1e3)
    (float_of_int s.dur_ns /. 1e3)
    s.trace_id s.id s.parent

let write path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun m s -> min m s.t0_ns) max_int all in
  let meta pid name =
    Printf.sprintf
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"args\": {\"name\": %s}}"
      pid (Report.json_string name)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      output_string oc (meta 1 "served (client view, server phases)");
      output_string oc ",\n";
      output_string oc (meta 2 "in-process replay");
      List.iter (fun s -> output_string oc (",\n" ^ event ~origin s)) all;
      output_string oc "\n]}\n")
