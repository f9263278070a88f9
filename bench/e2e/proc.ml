(* The run directory and the [madql serve] child processes.

   Everything a run writes (the dump, the servers' --data directories,
   their logs) lives under one directory inside the working directory,
   removed on every exit path.  Every spawned server is registered, and
   an at_exit hook kills and reaps whatever is still alive, so an
   exception or SIGINT/SIGTERM never leaves a server behind. *)

let live : int list ref = ref []
let run_dir : string option ref = ref None

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> live := List.filter (( <> ) pid) !live
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    live := List.filter (( <> ) pid) !live

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let cleanup () =
  List.iter kill9 !live;
  match !run_dir with
  | Some d ->
    run_dir := None;
    (try
       rm_rf d;
       (* the parent goes too once no other run uses it *)
       if Sys.readdir (Filename.dirname d) = [||] then Unix.rmdir (Filename.dirname d)
     with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ()

(* Create [.bench_run/<tag>-<pid>] under the working directory and arm
   the cleanup. *)
let init ~tag =
  let base = ".bench_run" in
  let d = Filename.concat base (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  rm_rf d;
  (* another run's cleanup may remove [base] between the two mkdirs *)
  let rec mk () =
    (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.ENOENT, _, _) -> mk ()
  in
  mk ();
  run_dir := Some d;
  at_exit cleanup;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  (* a server that dies under the load generator must surface as EPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  d

(* --- the server ------------------------------------------------------ *)

type server = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (** its stdout, held open so a late write cannot fail *)
}

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* Read the server's stdout until its "listening on HOST:PORT" line. *)
let await_port pid fd ~deadline =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec go () =
    let text = Buffer.contents buf in
    match String.index_opt text '\n' with
    | Some nl -> (
      let line = String.sub text 0 nl in
      match Scanf.sscanf line "listening on %_[^:]:%d" Fun.id with
      | port -> port
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
        failf "server %d: unexpected first line %S" pid line)
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then failf "server %d: no listening line in time" pid;
      (match Unix.select [ fd ] [] [] left with
       | [], _, _ -> ()
       | _ ->
         let n = Unix.read fd chunk 0 (Bytes.length chunk) in
         if n = 0 then failf "server %d exited before listening" pid;
         Buffer.add_subbytes buf chunk 0 n
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
  in
  go ()

(* Spawn [madql serve] on [dump] with the durable store [data] and wait
   until it listens.  A fresh [data] is seeded from the dump; an
   existing one is recovered (snapshot + WAL replay). *)
let spawn ~madql ~dump ~data ~workers =
  let r, w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (data ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let argv =
    [| madql; "serve"; "-d"; dump; "--data"; data; "--port"; "0";
       "--workers"; string_of_int workers |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close log)
      (fun () -> Unix.create_process madql argv Unix.stdin w log)
  in
  live := pid :: !live;
  match await_port pid r ~deadline:(Unix.gettimeofday () +. 120.0) with
  | port -> { pid; port; out = r }
  | exception e ->
    kill9 pid;
    Unix.close r;
    raise e

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failf "no VmHWM for process %d" pid
      in
      go ())

(* Stop the server the way a crash would: SIGKILL, then reap.  Every
   server is stopped this way — a clean SIGTERM would first roll a
   snapshot of the whole database, which is slow and writes the
   results the queries materialized. *)
let crash s =
  kill9 s.pid;
  try Unix.close s.out with Unix.Unix_error _ -> ()
