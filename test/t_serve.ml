(* The network service: wire framing round trips, the handshake's
   version check, admission control (typed busy), concurrent writers
   converging through the cross-session group-commit coordinator, and
   clean shutdown draining in-flight requests. *)

open Mad_serve

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let in_tmp name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("t_serve_" ^ name)
  in
  Mad_durable.Harness.rm_rf dir;
  Fun.protect
    ~finally:(fun () -> Mad_durable.Harness.rm_rf dir)
    (fun () -> f dir)

let brazil () = Workloads.Geo_brazil.db (Workloads.Geo_brazil.build ())
let wait_forever ~started:_ = true

(* --- wire framing --------------------------------------------------- *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      (* every opcode survives the frame codec *)
      let reqs =
        [
          Wire.Query "SELECT ALL FROM state;";
          Wire.Exec "INSERT INTO state VALUES ('X', 1);";
          Wire.Explain "SELECT ALL FROM state;";
          Wire.Stats;
          Wire.Health;
          Wire.Ping;
          Wire.Quit;
        ]
      in
      List.iter
        (fun r ->
          Wire.write_req a r;
          match Wire.read_req ~keep_waiting:wait_forever b with
          | Wire.Msg (got, meta) ->
            check "req round trip" true (got = r);
            let statement =
              match r with
              | Wire.Query _ | Wire.Exec _ | Wire.Explain _ -> true
              | _ -> false
            in
            check "statements alone carry metadata" statement
              (Option.is_some meta)
          | _ -> Alcotest.fail "request did not round trip")
        reqs;
      (* responses, including an empty payload *)
      Wire.write_resp b Wire.Error "boom";
      (match Wire.read_resp ~keep_waiting:wait_forever a with
       | Wire.Msg (Wire.Error, "boom") -> ()
       | _ -> Alcotest.fail "response did not round trip");
      Wire.write_resp b Wire.Pong "";
      (match Wire.read_resp ~keep_waiting:wait_forever a with
       | Wire.Msg (Wire.Pong, "") -> ()
       | _ -> Alcotest.fail "empty response did not round trip");
      (* hello round trip *)
      Wire.write_client_hello a ~version:7;
      (match Wire.read_client_hello ~keep_waiting:wait_forever b with
       | Wire.Msg 7 -> ()
       | _ -> Alcotest.fail "client hello");
      Wire.write_server_hello b ~version:Wire.version Wire.H_busy;
      match Wire.read_server_hello ~keep_waiting:wait_forever a with
      | Wire.Msg (v, Wire.H_busy) -> check_int "server hello version" Wire.version v
      | _ -> Alcotest.fail "server hello")

let test_wire_limits () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let closed = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !closed then Unix.close a;
      Unix.close b)
    (fun () ->
      let cap = 64 * 1024 in
      (* a payload (metadata prefix and text) of exactly the cap
         passes...  (written from a domain: a socketpair buffer cannot
         hold 64 KiB unread) *)
      let text = cap - Wire.meta_bytes in
      let big = String.make text 'q' in
      let w = Stdlib.Domain.spawn (fun () -> Wire.write_req a (Wire.Query big)) in
      (match Wire.read_req ~max_len:cap ~keep_waiting:wait_forever b with
       | Wire.Msg (Wire.Query got, _) ->
         check_int "max-size frame" text (String.length got)
       | _ -> Alcotest.fail "max-size frame rejected");
      Stdlib.Domain.join w;
      (* ...one byte more is rejected before the payload is read *)
      let over = String.make (text + 1) 'q' in
      let w = Stdlib.Domain.spawn (fun () -> Wire.write_req a (Wire.Query over)) in
      (match Wire.read_req ~max_len:cap ~keep_waiting:wait_forever b with
       | Wire.Oversized n -> check_int "oversized declares its length" (cap + 1) n
       | _ -> Alcotest.fail "oversized frame accepted");
      Stdlib.Domain.join w;
      (* drain the oversized payload left in the stream *)
      let buf = Bytes.create 4096 in
      let rec drain n =
        if n > 0 then drain (n - Unix.read b buf 0 (min 4096 n))
      in
      drain (cap + 1);
      (* a frame whose sender dies mid-payload is Truncated, not Closed *)
      let hdr = Bytes.create 5 in
      Bytes.set_int32_le hdr 0 64l;
      Bytes.set_uint8 hdr 4 1;
      Wire.write_all a (Bytes.to_string hdr);
      Wire.write_all a "only-eight";
      Unix.close a;
      closed := true;
      (match Wire.read_req ~keep_waiting:wait_forever b with
       | Wire.Truncated -> ()
       | _ -> Alcotest.fail "mid-frame close should be Truncated");
      (* and a close at a message boundary is Closed *)
      match Wire.read_req ~keep_waiting:wait_forever b with
      | Wire.Closed -> ()
      | _ -> Alcotest.fail "boundary close should be Closed")

let test_wire_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.05;
      match Wire.read_req ~keep_waiting:(fun ~started:_ -> false) b with
      | Wire.Timeout -> ()
      | _ -> Alcotest.fail "empty socket should time out")

(* --- request metadata and phase payloads ------------------------------ *)

let test_wire_v2_codec () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      (* a statement always carries the 9-byte metadata prefix *)
      let meta = { Wire.want_phases = true; span = 42 } in
      Wire.write_req ~meta a (Wire.Query "SELECT ALL FROM state;");
      (match Wire.read_req ~keep_waiting:wait_forever b with
       | Wire.Msg (Wire.Query s, Some m) ->
         check_string "statement text" "SELECT ALL FROM state;" s;
         check "meta wants phases" true m.Wire.want_phases;
         check_int "meta span" 42 m.Wire.span
       | _ -> Alcotest.fail "statement did not round trip");
      (* metadata defaults to no_meta when the writer supplies none *)
      Wire.write_req a (Wire.Exec "INSERT;");
      (match Wire.read_req ~keep_waiting:wait_forever b with
       | Wire.Msg (Wire.Exec _, Some m) ->
         check "default meta is inert" false m.Wire.want_phases;
         check_int "default meta span" 0 m.Wire.span
       | _ -> Alcotest.fail "default meta did not round trip");
      (* non-statement opcodes never carry metadata *)
      Wire.write_req a Wire.Ping;
      (match Wire.read_req ~keep_waiting:wait_forever b with
       | Wire.Msg (Wire.Ping, None) -> ()
       | _ -> Alcotest.fail "ping must stay meta-free");
      (* the statement is meta_bytes bigger on the wire, and the byte
         accounting knows *)
      check_int "req_bytes counts the prefix"
        (Wire.header_bytes + Wire.meta_bytes + 1)
        (Wire.req_bytes (Wire.Query "x"));
      check_int "ping has no prefix" Wire.header_bytes
        (Wire.req_bytes Wire.Ping);
      (* the frame cap applies to the whole payload, prefix included *)
      let cap = 64 in
      let text = String.make (cap - Wire.meta_bytes + 1) 'q' in
      let w =
        Stdlib.Domain.spawn (fun () ->
            Wire.write_req a (Wire.Query text))
      in
      (match Wire.read_req ~max_len:cap ~keep_waiting:wait_forever b with
       | Wire.Oversized n -> check_int "oversized includes prefix" (cap + 1) n
       | _ -> Alcotest.fail "oversized frame accepted");
      Stdlib.Domain.join w;
      let buf = Bytes.create 256 in
      let rec drain n = if n > 0 then drain (n - Unix.read b buf 0 (min 256 n)) in
      drain (cap + 1);
      (* a statement payload shorter than the prefix is a protocol
         violation, same as an unknown opcode *)
      let hdr = Bytes.create 5 in
      Bytes.set_int32_le hdr 0 4l;
      Bytes.set_uint8 hdr 4 1;
      Wire.write_all a (Bytes.to_string hdr ^ "abcd");
      (match Wire.read_req ~keep_waiting:wait_forever b with
       | Wire.Bad_magic -> ()
       | _ -> Alcotest.fail "short payload must be rejected");
      (* phase codec round trip, including the empty list *)
      let phases = [ ("lock", 12.5); ("exec", 0.0); ("fsync", 3250.125) ] in
      (match
         Wire.decode_result_with_phases
           (Wire.encode_result_with_phases "result text" phases)
       with
       | Some (r, got) ->
         check_string "result survives" "result text" r;
         check_int "phase count" 3 (List.length got);
         check "phase values survive" true
           (List.assoc "fsync" got = 3250.125 && List.assoc "lock" got = 12.5)
       | None -> Alcotest.fail "phase payload did not decode");
      (match
         Wire.decode_result_with_phases (Wire.encode_result_with_phases "" [])
       with
       | Some ("", []) -> ()
       | _ -> Alcotest.fail "empty phase payload");
      (* malformed phase payloads are rejected, not misread *)
      check "truncated payload rejected" true
        (Wire.decode_result_with_phases "ab" = None);
      check "inconsistent length rejected" true
        (Wire.decode_result_with_phases "\255\255\255\127rest" = None))

(* --- the coordinator ------------------------------------------------ *)

let test_coordinator_batches () =
  let syncs = Atomic.make 0 in
  let c =
    (* a private obs context: coordinators over the shared noop context
       would get the same metric instances and bleed counts across tests *)
    Mad_durable.Coordinator.create
      ~obs:(Mad_obs.Obs.create ())
      ~sync:(fun () ->
        Atomic.incr syncs;
        Unix.sleepf 0.3)
      ()
  in
  (* the leader's fsync is deliberately slow: the three committers that
     publish while it is in flight must share the NEXT fsync *)
  let leader =
    Stdlib.Domain.spawn (fun () -> Mad_durable.Coordinator.wait_durable c 1)
  in
  Unix.sleepf 0.05;
  let late =
    List.init 3 (fun i ->
        Stdlib.Domain.spawn (fun () ->
            Mad_durable.Coordinator.wait_durable c (2 + i)))
  in
  Stdlib.Domain.join leader;
  List.iter Stdlib.Domain.join late;
  check_int "four commits" 4 (Mad_durable.Coordinator.commits c);
  check_int "two fsync batches cover them" 2 (Mad_durable.Coordinator.fsyncs c);
  check_int "sync ran once per batch" 2 (Atomic.get syncs);
  (* an already-covered position is acknowledged without an fsync *)
  Mad_durable.Coordinator.wait_durable c 3;
  check_int "covered position is free" 2 (Mad_durable.Coordinator.fsyncs c)

let test_coordinator_leader_failure () =
  let armed = ref true in
  let c =
    Mad_durable.Coordinator.create
      ~obs:(Mad_obs.Obs.create ())
      ~sync:(fun () -> if !armed then failwith "disk on fire")
      ()
  in
  (match Mad_durable.Coordinator.wait_durable c 1 with
   | () -> Alcotest.fail "leader failure must propagate"
   | exception Failure msg -> check_string "leader sees the failure" "disk on fire" msg);
  (* the next committer retries as a fresh leader and succeeds *)
  armed := false;
  Mad_durable.Coordinator.wait_durable c 1;
  check_int "retry fsynced" 1 (Mad_durable.Coordinator.fsyncs c)

(* --- server lifecycle ----------------------------------------------- *)

let with_server ?durable ?(config = Serve.default_config) db f =
  let srv = Serve.start ~config ?durable db in
  Fun.protect ~finally:(fun () -> Serve.stop srv) (fun () -> f srv)

let connect_ok srv =
  match Client.connect ~host:"127.0.0.1" (Serve.port srv) with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %a" Client.pp_connect_error e

let test_basic_requests () =
  with_server (brazil ()) @@ fun srv ->
  let c = connect_ok srv in
  check "ping" true (Client.ping c);
  (match Client.query c "SELECT ALL FROM state WHERE state.name = 'SP';" with
   | Ok out -> check "query renders molecules" true (contains ~affix:"state" out)
   | Error msg -> Alcotest.failf "query: %s" msg);
  (match Client.exec c "INSERT INTO state VALUES ('Wireland', 9);" with
   | Ok out -> check "exec summarizes" true (contains ~affix:"insert" out)
   | Error msg -> Alcotest.failf "exec: %s" msg);
  (match Client.explain c "SELECT ALL FROM state;" with
   | Ok out -> check "explain shows a plan" true (String.length out > 0)
   | Error msg -> Alcotest.failf "explain: %s" msg);
  (* statement errors are typed Error responses, not hangups *)
  (match Client.query c "THIS IS NOT MOL;" with
   | Error msg -> check "parse error travels" true (contains ~affix:"parse" msg)
   | Ok _ -> Alcotest.fail "garbage should fail");
  check "still alive after an error" true (Client.ping c);
  let stats = Client.stats c in
  check "stats exposes serve counters" true
    (contains ~affix:"serve_connections" stats);
  check "stats exposes request labels" true (contains ~affix:"op=\"query\"" stats);
  check "stats exposes phase histograms" true
    (contains ~affix:"serve_phase_us" stats);
  check "stats exposes the lock profile by class" true
    (contains ~affix:"serve_lock_wait_us" stats
     && contains ~affix:"class=\"query\"" stats);
  check "stats exposes the saturation gauge" true
    (contains ~affix:"serve_queue_peak_pct" stats);
  let doc = Client.health c in
  check "health is a verdict document" true (contains ~affix:"\"state\"" doc);
  Client.close c;
  check_int "one connection admitted" 1 (Serve.connections srv)

(* a raw hello proposing [v]: the server's verdict *)
let hello srv v =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Serve.port srv));
      Wire.write_client_hello fd ~version:v;
      Wire.read_server_hello ~keep_waiting:wait_forever fd)

let test_version_mismatch () =
  with_server (brazil ()) @@ fun srv ->
  (match hello srv 99 with
   | Wire.Msg (v, Wire.H_version) ->
     check_int "server states its version" Wire.version v
   | _ -> Alcotest.fail "version 99 must be rejected");
  (* the rejection did not wedge the server *)
  let c = connect_ok srv in
  check "server still serves" true (Client.ping c);
  Client.close c

(* wire v1 is gone: a v1 proposal is refused like any other *)
let test_v1_refused () =
  with_server (brazil ()) @@ fun srv ->
  match hello srv 1 with
  | Wire.Msg (v, Wire.H_version) -> check_int "refusal names version 2" 2 v
  | _ -> Alcotest.fail "a v1 hello must be refused"

(* --- request phases -------------------------------------------------- *)

let test_phase_breakdown () =
  with_server (brazil ()) @@ fun srv ->
  let c = connect_ok srv in
  (match
     Client.query_traced ~span:7 c
       "SELECT ALL FROM state WHERE state.name = 'SP';"
   with
   | Ok (out, phases) ->
     check "traced query renders" true (contains ~affix:"state" out);
     List.iter
       (fun n ->
         match List.assoc_opt n phases with
         | Some v -> check (n ^ " phase is non-negative") true (v >= 0.0)
         | None -> Alcotest.failf "missing %s phase" n)
       [ "lock"; "exec"; "wal"; "fsync"; "other" ]
   | Error msg -> Alcotest.failf "traced query: %s" msg);
  (* a few more requests of each flavor, then let the connection close
     so every in-flight observation lands *)
  (match Client.exec c "INSERT INTO state VALUES ('Phase', 77);" with
   | Ok _ -> ()
   | Error m -> Alcotest.failf "exec: %s" m);
  ignore (Client.ping c);
  (match Client.query c "SELECT ALL FROM state;" with
   | Ok _ -> ()
   | Error m -> Alcotest.failf "query: %s" m);
  Client.close c;
  (* the worker observes metrics after writing the response, so wait
     for the connection teardown (active gauge back to zero) before
     auditing the histograms *)
  let obs = Serve.obs srv in
  let g_active = Mad_obs.Obs.gauge obs "serve.active" in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Mad_obs.Metric.get g_active > 0.0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  (* sum consistency: the six per-request phases partition request_us
     — equal counts, sums matching within float rounding *)
  let h_req =
    Mad_obs.Obs.histogram ~bounds:Mad_obs.Metric.latency_bounds_us obs
      "serve.request_us"
  in
  let phase n =
    Mad_obs.Obs.histogram
      ~labels:[ ("phase", n) ]
      ~bounds:Mad_obs.Metric.latency_bounds_us obs "serve.phase_us"
  in
  let names = [ "lock"; "exec"; "wal"; "fsync"; "write"; "other" ] in
  let n_req = Mad_obs.Metric.count h_req in
  check "requests were measured" true (n_req >= 4);
  List.iter
    (fun n ->
      check_int
        (n ^ " phase count partitions requests")
        n_req
        (Mad_obs.Metric.count (phase n)))
    names;
  let phase_sum =
    List.fold_left (fun acc n -> acc +. Mad_obs.Metric.sum (phase n)) 0.0 names
  in
  let total = Mad_obs.Metric.sum h_req in
  check "phase sums partition request_us" true
    (Float.abs (phase_sum -. total)
     <= (0.001 *. Float.max 1.0 total) +. (0.01 *. float_of_int n_req))

let test_admission_busy () =
  let config = { Serve.default_config with Serve.workers = 1; max_pending = 1 } in
  with_server ~config (brazil ()) @@ fun srv ->
  (* c1 holds the only worker... *)
  let c1 = connect_ok srv in
  check "c1 served" true (Client.ping c1);
  (* ...c2 fills the pending queue (its handshake stays unanswered
     until a worker frees, so connect runs in its own domain)... *)
  let c2 =
    Stdlib.Domain.spawn (fun () ->
        Client.connect ~timeout:10.0 ~host:"127.0.0.1" (Serve.port srv))
  in
  Unix.sleepf 0.3;
  (* ...and c3 is over capacity: a typed busy verdict, not a reset *)
  (match Client.connect ~host:"127.0.0.1" (Serve.port srv) with
   | Error Client.Busy -> ()
   | Ok _ -> Alcotest.fail "third connection must be refused"
   | Error e -> Alcotest.failf "wrong refusal: %a" Client.pp_connect_error e);
  (* closing c1 frees the worker; the queued c2 is then served *)
  Client.close c1;
  (match Stdlib.Domain.join c2 with
   | Ok c2 ->
     check "queued connection eventually served" true (Client.ping c2);
     Client.close c2
   | Error e -> Alcotest.failf "queued connect failed: %a" Client.pp_connect_error e);
  check "admission rejections counted" true
    (Mad_obs.Registry.counter_value
       (Mad_obs.Obs.registry (Serve.obs srv))
       "serve.busy"
     >= 1)

let test_concurrent_writers () =
  in_tmp "writers" @@ fun dir ->
  let writers = 8 and per_writer = 5 in
  let h = Mad_durable.Durable.open_dir ~seed:(brazil ()) dir in
  let before = Mad_store.Database.total_atoms (Mad_durable.Durable.db h) in
  let commits, fsyncs =
    Fun.protect
      ~finally:(fun () -> Mad_durable.Durable.close h)
      (fun () ->
        let config = { Serve.default_config with Serve.workers = 4 } in
        with_server ~config ~durable:h (Mad_durable.Durable.db h) @@ fun srv ->
        let spawn w =
          Stdlib.Domain.spawn (fun () ->
              let c = connect_ok srv in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  for j = 1 to per_writer do
                    match
                      Client.exec c
                        (Printf.sprintf
                           "INSERT INTO state VALUES ('W%d_%d', %d);" w j
                           (100 + w))
                    with
                    | Ok _ -> ()
                    | Error msg -> Alcotest.failf "writer %d: %s" w msg
                  done))
        in
        let doms = List.init writers (fun w -> spawn (w + 1)) in
        List.iter Stdlib.Domain.join doms;
        let coord = Option.get (Serve.coordinator srv) in
        ( Mad_durable.Coordinator.commits coord,
          Mad_durable.Coordinator.fsyncs coord ))
  in
  check_int "every statement committed" (writers * per_writer) commits;
  check "at least one fsync" true (fsyncs >= 1);
  check "fsyncs never exceed commits" true (fsyncs <= commits);
  (* convergence: recovery sees the serial-equivalent state — every
     insert from every writer, and an integrity-clean database *)
  let h2 = Mad_durable.Durable.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Mad_durable.Durable.close h2)
    (fun () ->
      check_int "all inserts durable"
        (before + (writers * per_writer))
        (Mad_store.Database.total_atoms (Mad_durable.Durable.db h2)))

let test_shutdown_drains () =
  let srv = Serve.start (brazil ()) in
  let c = connect_ok srv in
  check "served before stop" true (Client.ping c);
  (* a statement that is genuinely in flight when stop arrives: the
     fault spin keeps it executing while the stopper runs *)
  Mad_mql.Session.fault_spin_ms := Some 600.0;
  Fun.protect
    ~finally:(fun () -> Mad_mql.Session.fault_spin_ms := None)
    (fun () ->
      let stopper =
        Stdlib.Domain.spawn (fun () ->
            Unix.sleepf 0.15;
            Serve.stop srv)
      in
      (match Client.query c "SELECT ALL FROM state WHERE state.name = 'SP';" with
       | Ok out ->
         check "in-flight request completed through shutdown" true
           (contains ~affix:"state" out)
       | Error msg -> Alcotest.failf "drained request failed: %s" msg);
      Stdlib.Domain.join stopper);
  check "server reports stopped" true (Serve.stopped srv);
  (* the drained connection was closed by the shutdown *)
  (match Client.ping c with
   | exception Client.Remote _ -> ()
   | alive -> check "connection closed after drain" false alive);
  Client.close ~quit:false c

(* --- one domain: workers are threads ------------------------------- *)

(* a worker per thread, not per domain: 200 workers would exceed the
   runtime's domain limit (128) and fail at start *)
let test_many_workers () =
  let config = { Serve.default_config with Serve.workers = 200 } in
  with_server ~config (brazil ()) @@ fun srv ->
  let c1 = connect_ok srv and c2 = connect_ok srv in
  List.iter
    (fun c ->
      (match Client.query c "SELECT ALL FROM state WHERE state.name = 'SP';" with
       | Ok out -> check "query served" true (contains ~affix:"state" out)
       | Error msg -> Alcotest.failf "query: %s" msg);
      Client.close c)
    [ c1; c2 ];
  check_int "two connections admitted" 2 (Serve.connections srv)

(* each connection is served by its own thread, and the flight
   recorder stamps events with the recording thread: two concurrent
   connections land their serve.request slices on two Chrome tracks *)
let test_connection_tracks () =
  let ring = Mad_obs.Recorder.global () in
  Mad_obs.Recorder.set_enabled true;
  let first = Mad_obs.Recorder.recorded ring in
  with_server (brazil ()) @@ fun srv ->
  let c1 = connect_ok srv and c2 = connect_ok srv in
  let ask c =
    Thread.create
      (fun () ->
        match Client.query c "SELECT ALL FROM state;" with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "query: %s" msg)
      ()
  in
  List.iter Thread.join [ ask c1; ask c2 ];
  Client.close c1;
  Client.close c2;
  let events =
    match Mad_obs.Json.member "traceEvents" (Mad_obs.Recorder.to_chrome ring) with
    | Some (Mad_obs.Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let num k e = Option.bind (Mad_obs.Json.member k e) Mad_obs.Json.to_float in
  let str k e = Option.bind (Mad_obs.Json.member k e) Mad_obs.Json.to_str in
  let tids =
    List.filter_map
      (fun e ->
        let seq = Option.bind (Mad_obs.Json.member "args" e) (num "seq") in
        match (str "cat" e, seq) with
        | Some "serve.request", Some q when int_of_float q >= first -> num "tid" e
        | _ -> None)
      events
    |> List.sort_uniq compare
  in
  check_int "two connection tracks" 2 (List.length tids);
  List.iter
    (fun tid ->
      let name =
        List.find_map
          (fun e ->
            if str "name" e = Some "thread_name" && num "tid" e = Some tid then
              Option.bind (Mad_obs.Json.member "args" e) (str "name")
            else None)
          events
      in
      check_string "track named after its thread"
        (Printf.sprintf "thread %d" (int_of_float tid))
        (Option.value name ~default:"<unnamed>"))
    tids

(* --- typed data-directory errors ------------------------------------ *)

(* root ignores permission bits, so provoke the failures with ENOTDIR
   (a path through a regular file) — those fail for any uid *)
let test_data_dir_errors () =
  in_tmp "baddir" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "plain" in
  let oc = open_out file in
  output_string oc "not a directory\n";
  close_out oc;
  (match Mad_durable.Durable.open_dir file with
   | _ -> Alcotest.fail "opening a file as a data dir must fail"
   | exception Mad_store.Err.Mad_error msg ->
     check "names the path" true (contains ~affix:file msg);
     check "says why" true (contains ~affix:"not a directory" msg));
  let nested = Filename.concat file "sub" in
  match Mad_durable.Durable.open_dir nested with
  | _ -> Alcotest.fail "a path through a file must fail"
  | exception Mad_store.Err.Mad_error msg ->
    check "typed creation error" true (contains ~affix:"cannot create" msg)

(* [madql serve --data] keeps the timeline frames an earlier run left
   in timeline.mad: the server loads its side state before it serves
   and saves it when it stops *)
let test_serve_keeps_timeline () =
  in_tmp "timeline" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "timeline.mad" in
  let tl = Mad_obs.Timeline.create () in
  let reg = Mad_obs.Registry.create () in
  for _ = 1 to 4 do
    ignore (Mad_obs.Timeline.tick tl reg)
  done;
  Mad_obs.Timeline.save tl path;
  let madql =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/madql.exe"
  in
  let log = Filename.concat dir "serve.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Unix.create_process_env madql
      [| "madql"; "serve"; "-d"; "brazil"; "--data"; dir; "--port"; "0" |]
      (Array.append [| "MAD_OBS_TICK=0.05" |] (Unix.environment ()))
      Unix.stdin out out
  in
  Unix.close out;
  let rec await n =
    let text = In_channel.with_open_bin log In_channel.input_all in
    if contains ~affix:"listening on" text then true
    else if n = 0 then false
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  let up = await 400 in
  Unix.kill pid Sys.sigterm;
  ignore (Unix.waitpid [] pid);
  check "server came up" true up;
  let tl2 = Mad_obs.Timeline.create () in
  check "timeline.mad still loads" true (Mad_obs.Timeline.load tl2 path);
  check "the earlier frames are kept" true
    (List.length (Mad_obs.Timeline.frames tl2) >= 4)

let suite =
  [
    Alcotest.test_case "wire round trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire size limits and truncation" `Quick test_wire_limits;
    Alcotest.test_case "wire timeout" `Quick test_wire_timeout;
    Alcotest.test_case "wire v2 metadata and phase codec" `Quick
      test_wire_v2_codec;
    Alcotest.test_case "coordinator batches commits" `Quick test_coordinator_batches;
    Alcotest.test_case "coordinator leader failure" `Quick
      test_coordinator_leader_failure;
    Alcotest.test_case "basic requests" `Quick test_basic_requests;
    Alcotest.test_case "handshake version mismatch" `Quick test_version_mismatch;
    Alcotest.test_case "handshake refuses wire v1" `Quick test_v1_refused;
    Alcotest.test_case "request phases partition latency" `Quick
      test_phase_breakdown;
    Alcotest.test_case "admission control says busy" `Quick test_admission_busy;
    Alcotest.test_case "concurrent writers converge" `Quick
      test_concurrent_writers;
    Alcotest.test_case "shutdown drains in-flight requests" `Quick
      test_shutdown_drains;
    Alcotest.test_case "many worker threads (200)" `Quick test_many_workers;
    Alcotest.test_case "connections trace on their own tracks" `Quick
      test_connection_tracks;
    Alcotest.test_case "typed data-dir errors" `Quick test_data_dir_errors;
    Alcotest.test_case "serve start/stop keeps timeline frames" `Quick
      test_serve_keeps_timeline;
  ]
