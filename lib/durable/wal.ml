(** The write-ahead log file: length-prefixed, checksummed records.

    Framing, per record:
    {v
    +----------------+----------------+------------------+
    | length (u32 LE)| crc32 (u32 LE) | payload bytes    |
    +----------------+----------------+------------------+
    v}
    The CRC-32 (IEEE polynomial) covers the payload only; the length
    field is validated against the remaining file size.  A record is
    durable iff its full frame is on disk and the checksum matches —
    anything else at the end of the file is a {e torn tail}, which
    {!read} reports (and recovery drops) instead of failing.

    The writer appends each frame with a single [output] call followed
    by a channel flush — an appended record reaches the OS and so
    survives process death; {!fsync} (group commit, or [sync] mode) is
    the separate power-loss boundary.  Appended bytes count into the
    [wal.append_bytes] counter and fsync durations into the
    [wal.fsync_us] histogram of the observability context the writer
    was given, and every append routes through an optional
    fault-injection plan ({!Faults}). *)

open Mad_store

(* --- CRC-32 (IEEE), table-driven ------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* --- framing -------------------------------------------------------- *)

let header_bytes = 8

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* --- writer --------------------------------------------------------- *)

type writer = {
  path : string;
  tag : string;  (** [basename path]; labels flight-recorder events *)
  oc : out_channel;
  sync : bool;  (** fsync after every append *)
  faults : Faults.t option;
  append_bytes : Mad_obs.Metric.counter;
  fsync_us : Mad_obs.Metric.histogram;
  mutable records : int;  (** records appended through this writer *)
}

let create ?faults ?(obs = Mad_obs.Obs.noop) ?(sync = false) ~truncate path =
  let flags =
    Open_wronly :: Open_creat :: Open_binary
    :: (if truncate then [ Open_trunc ] else [ Open_append ])
  in
  {
    path;
    tag = Filename.basename path;
    oc = open_out_gen flags 0o644 path;
    sync;
    faults;
    append_bytes = Mad_obs.Obs.counter obs "wal.append_bytes";
    fsync_us =
      Mad_obs.Obs.histogram ~bounds:Mad_obs.Metric.latency_bounds_us obs
        "wal.fsync_us";
    records = 0;
  }

let fsync w =
  flush w.oc;
  let t0 = !Mad_obs.Monotonic.clock () in
  Unix.fsync (Unix.descr_of_out_channel w.oc);
  let dt = !Mad_obs.Monotonic.clock () -. t0 in
  Mad_obs.Metric.observe w.fsync_us (dt *. 1e6);
  Mad_obs.Recorder.note Wal_fsync
    ~dur_ns:(int_of_float (dt *. 1e9))
    ~label:w.tag ()

let append w payload =
  let framed = frame payload in
  let write_all () =
    output_string w.oc framed;
    (* hand the frame to the OS at once: an appended record must
       survive process death (crash = lost channel buffer); fsync is
       the separate power-loss boundary *)
    flush w.oc;
    Mad_obs.Metric.add w.append_bytes (String.length framed);
    Mad_obs.Recorder.note Wal_append ~label:w.tag ~a:(String.length framed) ();
    w.records <- w.records + 1;
    if w.sync then fsync w
  in
  match w.faults with
  | None -> write_all ()
  | Some f -> begin
    match Faults.next f ~len:(String.length framed) with
    | `Write ->
      write_all ();
      Faults.wrote f
    | `Fail -> Err.failf "%s: injected append failure (record not written)"
                 (Filename.basename w.path)
    | `Short n ->
      (* a torn record: a prefix of the frame reaches the file, then
         the process dies *)
      output_substring w.oc framed 0 n;
      flush w.oc;
      raise (Faults.Crash (Printf.sprintf "short write (%d of %d bytes)"
                             n (String.length framed)))
    | `Crash -> raise (Faults.Crash "crash between appends")
  end

let flush_writer w = flush w.oc

let close w =
  flush w.oc;
  close_out w.oc

let records w = w.records

(* --- reader --------------------------------------------------------- *)

type tail =
  | Clean
  | Torn of { bytes_dropped : int }
      (** trailing bytes that do not form a whole checksummed record *)

(** All durable records of the log at [path] plus the state of its
    tail.  A missing file is an empty, clean log.  Scanning stops at
    the first frame that is incomplete or fails its checksum: that
    frame and everything after it is the torn tail. *)
let read path =
  if not (Sys.file_exists path) then ([], Clean)
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> In_channel.input_all ic)
    in
    let total = String.length data in
    let rec go off acc =
      if off = total then (List.rev acc, Clean)
      else if total - off < header_bytes then
        (List.rev acc, Torn { bytes_dropped = total - off })
      else
        let len = Int32.to_int (String.get_int32_le data off) in
        if len < 0 || off + header_bytes + len > total then
          (List.rev acc, Torn { bytes_dropped = total - off })
        else
          let payload = String.sub data (off + header_bytes) len in
          let crc =
            Int32.to_int (String.get_int32_le data (off + 4)) land 0xffffffff
          in
          if crc32 payload <> crc then
            (List.rev acc, Torn { bytes_dropped = total - off })
          else go (off + header_bytes + len) (payload :: acc)
    in
    go 0 []
  end
