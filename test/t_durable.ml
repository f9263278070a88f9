(* The durability engine: WAL framing and torn tails, logical record
   codec, recovery (snapshot + replay + integrity), snapshot rolling,
   fault injection, catalog persistence, and the crash-recovery
   property (every crash point of a seeded workload converges). *)

open Mad_store
open Mad_durable

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* every test works in its own throwaway directory *)
let in_tmp name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("t_durable_" ^ name)
  in
  Harness.rm_rf dir;
  Fun.protect ~finally:(fun () -> Harness.rm_rf dir) (fun () -> f dir)

let wal_file dir =
  Unix.mkdir dir 0o755;
  Filename.concat dir Durable.wal_basename

(* --- WAL framing ---------------------------------------------------- *)

let test_wal_roundtrip () =
  in_tmp "roundtrip" @@ fun dir ->
  let path = wal_file dir in
  let payloads = [ "alpha"; ""; "two words"; String.make 300 'x' ] in
  let obs = Mad_obs.Obs.create () in
  let w = Wal.create ~obs ~truncate:true path in
  List.iter (Wal.append w) payloads;
  check_int "writer count" (List.length payloads) (Wal.records w);
  Wal.close w;
  let got, tail = Wal.read path in
  Alcotest.(check (list string)) "payloads survive" payloads got;
  check "clean tail" true (tail = Wal.Clean);
  let bytes =
    List.fold_left (fun n p -> n + Wal.header_bytes + String.length p) 0 payloads
  in
  check_int "wal.append_bytes counts frames" bytes
    (Mad_obs.Metric.value (Mad_obs.Obs.counter obs "wal.append_bytes"));
  (* appending to an existing log keeps the prefix *)
  let w2 = Wal.create ~truncate:false path in
  Wal.append w2 "tail";
  Wal.close w2;
  let got2, _ = Wal.read path in
  Alcotest.(check (list string)) "append mode" (payloads @ [ "tail" ]) got2

let test_wal_torn_tail () =
  in_tmp "torn" @@ fun dir ->
  let path = wal_file dir in
  let w = Wal.create ~truncate:true path in
  List.iter (Wal.append w) [ "one"; "two"; "three" ];
  Wal.close w;
  (* tear the last record: drop its final byte *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 1);
  Unix.close fd;
  let got, tail = Wal.read path in
  Alcotest.(check (list string)) "durable prefix" [ "one"; "two" ] got;
  (match tail with
   | Wal.Torn { bytes_dropped } ->
     check_int "dropped the torn frame" (Wal.header_bytes + 5 - 1) bytes_dropped
   | Wal.Clean -> Alcotest.fail "expected a torn tail");
  (* a lone partial header is also just a torn tail *)
  let oc = open_out_bin path in
  output_string oc "abc";
  close_out oc;
  let got, tail = Wal.read path in
  check_int "no records" 0 (List.length got);
  check "short header torn" true (tail <> Wal.Clean)

let test_wal_corrupt_record () =
  in_tmp "corrupt" @@ fun dir ->
  let path = wal_file dir in
  let w = Wal.create ~truncate:true path in
  List.iter (Wal.append w) [ "one"; "two"; "three" ];
  Wal.close w;
  (* flip a payload byte of the middle record: scanning must stop
     before it, even though the last record is intact *)
  let off = (2 * Wal.header_bytes) + 3 + 1 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  let got, tail = Wal.read path in
  Alcotest.(check (list string)) "stops at the bad checksum" [ "one" ] got;
  check "torn" true (tail <> Wal.Clean)

(* --- the logical record codec ---------------------------------------- *)

let test_logrec_roundtrip () =
  let db = Harness.seed_db () in
  let ops = ref [] in
  Database.set_journal db (Some (fun op -> ops := op :: !ops));
  let a =
    Database.insert_atom db ~atype:"part"
      [
        Value.String "it's 'quoted'";
        Value.Int (-3);
        Value.List [ Value.Int 1; Value.Int 2 ];
      ]
  in
  let b = List.hd (Database.atoms db "box") in
  Database.add_link db "in" ~left:b.Atom.id ~right:a.Atom.id;
  Database.set_attribute db ~atype:"part" a.Atom.id ~index:1 (Value.Int 9);
  Database.remove_link db "in" ~left:b.Atom.id ~right:a.Atom.id;
  Database.delete_atom db a.Atom.id;
  ignore
    (Database.declare_atom_type db "extra" [ Schema.Attr.v "n" Domain.Int ]);
  Database.drop_atom_type db "extra";
  Database.set_journal db None;
  check "all kinds journaled" true (List.length !ops >= 7);
  List.iter
    (fun op ->
      let payload = Logrec.encode op in
      check_string
        ("round-trip of " ^ payload)
        payload
        (Logrec.encode (Logrec.decode ~recno:1 payload)))
    !ops;
  (* a damaged payload names its record *)
  match Logrec.decode ~recno:7 "frobnicate x" with
  | _ -> Alcotest.fail "expected decode failure"
  | exception Err.Mad_error msg ->
    check "names the record" true (contains ~affix:"record 7" msg)

(* --- recovery -------------------------------------------------------- *)

(* a short straight-line workload driven through the public mutators
   and the Manipulate layer (cascading delete is one logical record) *)
let mutate db =
  let part v w =
    (Database.insert_atom db ~atype:"part"
       [ Value.String v; Value.Int w; Value.List [] ])
      .Atom.id
  in
  let p1 = part "wheel" 4 and p2 = part "axle" 2 in
  let box = (List.hd (Database.atoms db "box")).Atom.id in
  Database.add_link db "in" ~left:box ~right:p1;
  Database.set_attribute db ~atype:"part" p1 ~index:1 (Value.Int 5);
  let linked =
    Mad.Manipulate.insert_atom_linked db ~atype:"part"
      [ Value.String "rim"; Value.Int 1; Value.List [ Value.Int 8 ] ]
      ~links:[ ("in", box) ]
  in
  Database.delete_atom db p2;
  Database.delete_atom db linked.Atom.id (* cascades over the link *)

let test_reopen_replays () =
  in_tmp "reopen" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  check "fresh dir got a snapshot" true
    (Sys.file_exists (Filename.concat dir Durable.snapshot_basename));
  mutate (Durable.db h);
  let written = Durable.wal_records h in
  check "journaled" true (written > 0);
  let want = Serialize.dump (Durable.db h) in
  Durable.close h;
  let obs = Mad_obs.Obs.create () in
  let h2 = Durable.open_dir ~obs dir in
  let r = Durable.recovery h2 in
  check "snapshot loaded" true r.Durable.snapshot_loaded;
  check_int "all records replayed" written r.Durable.replayed_records;
  check_int "clean tail" 0 r.Durable.torn_tail_bytes;
  check_int "metric recovery.replayed_records" written
    (Mad_obs.Metric.value
       (Mad_obs.Obs.counter obs "recovery.replayed_records"));
  check_string "recovered state" want (Serialize.dump (Durable.db h2));
  check "recovered db valid" true (Integrity.is_valid (Durable.db h2));
  Durable.close h2

let test_torn_final_record_skipped () =
  in_tmp "torn-skip" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  mutate (Durable.db h);
  let written = Durable.wal_records h in
  let want = Serialize.dump (Durable.db h) in
  Durable.close h;
  (* a crash mid-append: garbage after the last whole record *)
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_binary ]
      0o644
      (Filename.concat dir Durable.wal_basename)
  in
  output_string oc "\x40\x00\x00\x00 half a frame";
  close_out oc;
  let h2 = Durable.open_dir dir in
  let r = Durable.recovery h2 in
  check "torn tail detected" true (r.Durable.torn_tail_bytes > 0);
  check_int "durable records replayed" written r.Durable.replayed_records;
  check_string "torn tail dropped, state intact" want
    (Serialize.dump (Durable.db h2));
  Durable.close h2;
  (* recovery rewrote the log to its durable prefix *)
  let h3 = Durable.open_dir dir in
  check_int "log healed" 0 (Durable.recovery h3).Durable.torn_tail_bytes;
  check_int "same records" written
    (Durable.recovery h3).Durable.replayed_records;
  Durable.close h3

let test_snapshot_truncates () =
  in_tmp "snapshot" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  mutate (Durable.db h);
  let want = Serialize.dump (Durable.db h) in
  Durable.snapshot h;
  check_int "log truncated" 0 (Durable.wal_records h);
  Durable.close h;
  let h2 = Durable.open_dir dir in
  check_int "nothing to replay" 0 (Durable.recovery h2).Durable.replayed_records;
  check_string "snapshot carries the state" want
    (Serialize.dump (Durable.db h2));
  Durable.close h2

let test_snapshot_every () =
  in_tmp "snapshot-every" @@ fun dir ->
  let h = Durable.open_or_seed ~snapshot_every:3 ~seed:Harness.seed_db dir in
  let db = Durable.db h in
  for i = 1 to 7 do
    ignore
      (Database.insert_atom db ~atype:"part"
         [ Value.String (Printf.sprintf "p%d" i); Value.Int i; Value.List [] ])
  done;
  (* 7 inserts with a roll at every 3rd record: 1 left in the log *)
  check_int "auto-rolled" 1 (Durable.wal_records h);
  let want = Serialize.dump db in
  Durable.close h;
  let h2 = Durable.open_dir dir in
  check_int "replays only the tail" 1
    (Durable.recovery h2).Durable.replayed_records;
  check_string "converged" want (Serialize.dump (Durable.db h2));
  Durable.close h2

(* --- fault injection -------------------------------------------------- *)

let test_fail_append_is_clean () =
  in_tmp "fail-append" @@ fun dir ->
  let faults = Faults.create ~after:2 Faults.Fail_append in
  let h = Durable.open_or_seed ~faults ~seed:Harness.seed_db dir in
  let db = Durable.db h in
  let ins name =
    ignore
      (Database.insert_atom db ~atype:"part"
         [ Value.String name; Value.Int 1; Value.List [] ])
  in
  ins "a";
  ins "b";
  (* the third append fails cleanly: Mad_error, process survives *)
  (match ins "c" with
   | () -> Alcotest.fail "expected an injected append failure"
   | exception Err.Mad_error msg ->
     check "names the log" true (contains ~affix:Durable.wal_basename msg));
  check "plan fired" true (Faults.fired faults);
  ins "d" (* the plan fires once; later appends succeed *);
  Durable.close h;
  (* the un-logged mutation is simply not durable *)
  let h2 = Durable.open_dir dir in
  check_int "two records before, one after the failure" 3
    (Durable.recovery h2).Durable.replayed_records;
  let names =
    List.map
      (fun (a : Atom.t) ->
        match a.Atom.values.(0) with Value.String s -> s | _ -> "?")
      (Database.atoms (Durable.db h2) "part")
  in
  check "survivors logged" true
    (List.mem "a" names && List.mem "b" names && List.mem "d" names);
  check "failed append lost" false (List.mem "c" names);
  Durable.close h2

let test_crash_property seed =
  in_tmp (Printf.sprintf "harness-%d" seed) @@ fun dir ->
  let r = Harness.run ~seed ~ops:15 ~dir () in
  check "converged" true (Harness.converged r);
  check_int "every crash point plus the clean run"
    ((2 * r.Harness.records) + 1)
    r.Harness.scenarios;
  check "torn tails exercised" true (r.Harness.torn_recoveries > 0)

(* --- damaged state names its file ------------------------------------ *)

let test_recovery_errors_name_files () =
  in_tmp "damage" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  mutate (Durable.db h);
  Durable.close h;
  (* a whole, checksummed record whose payload is garbage is
     corruption, not a torn tail: recovery must refuse and say where *)
  let w =
    Wal.create ~truncate:false (Filename.concat dir Durable.wal_basename)
  in
  Wal.append w "frobnicate x";
  Wal.close w;
  (match Durable.open_dir dir with
   | _ -> Alcotest.fail "expected recovery failure on a corrupt record"
   | exception Err.Mad_error msg ->
     check "names wal.log" true (contains ~affix:Durable.wal_basename msg));
  (* a damaged snapshot is named too *)
  let oc = open_out (Filename.concat dir Durable.snapshot_basename) in
  output_string oc "frobnicate x y\n";
  close_out oc;
  match Durable.open_dir dir with
  | _ -> Alcotest.fail "expected recovery failure on a corrupt snapshot"
  | exception Err.Mad_error msg ->
    check "names snapshot.mad" true
      (contains ~affix:Durable.snapshot_basename msg)

(* --- queries never journal ------------------------------------------- *)

(* Queries write nothing durable: Σ and Π results stay over the base
   types, and the scratch types the atom algebra and molecule products
   declare are unjournaled — none of it may reach the WAL, and a
   restriction must not leave types for the snapshot to write. *)
let test_queries_do_not_journal () =
  in_tmp "query-nolog" @@ fun dir ->
  let h = Durable.open_or_seed ~seed:Harness.seed_db dir in
  let snapshot_types () =
    Durable.snapshot h;
    In_channel.with_open_text
      (Filename.concat dir Durable.snapshot_basename)
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l ->
           String.starts_with ~prefix:"atomtype " l
           || String.starts_with ~prefix:"linktype " l)
  in
  let types_before = snapshot_types () in
  let before = Durable.wal_records h in
  let session = Mad_mql.Session.create (Durable.db h) in
  ignore
    (Mad_mql.Session.add_on_commit session (fun () -> Durable.commit h));
  ignore (Mad_mql.Session.run_to_string session "SELECT ALL FROM box-part;");
  ignore
    (Mad_mql.Session.run_to_string session
       "SELECT ALL FROM box-part WHERE part.weight >= 2;");
  check_int "queries journaled nothing" before (Durable.wal_records h);
  Alcotest.(check (list string))
    "snapshot writes the same types" types_before (snapshot_types ());
  (* DML through the same session still journals *)
  ignore
    (Mad_mql.Session.run_to_string session "INSERT INTO box VALUES ('s', 1);");
  check_int "DML journaled one record" (before + 1) (Durable.wal_records h);
  Durable.close h;
  let h2 = Durable.open_dir dir in
  check_int "replay sees only the DML" (before + 1)
    (Durable.recovery h2).Durable.replayed_records;
  Durable.close h2

(* --- the learned-catalog file ---------------------------------------- *)

let test_catalog_roundtrip () =
  let db = Harness.seed_db () in
  let s = Prima.Stats.collect db in
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  let s' =
    match Prima.Catalog_io.of_string ~warn (Prima.Catalog_io.to_string s) with
    | Some s' -> s'
    | None -> Alcotest.fail "catalog ignored"
  in
  let module Smap = Prima.Stats.Smap in
  check "atom counts" true
    (Smap.equal ( = ) s.Prima.Stats.atom_counts s'.Prima.Stats.atom_counts);
  check "distinct" true
    (Smap.equal ( = ) s.Prima.Stats.distinct s'.Prima.Stats.distinct);
  check "link stats" true
    (Smap.equal ( = ) s.Prima.Stats.link_stats s'.Prima.Stats.link_stats);
  check "no warning" true (!warnings = []);
  (* a malformed record is skipped and located; the rest loads *)
  (match
     Prima.Catalog_io.of_string ~warn
       "# MAD adaptive catalog v2\nfrobnicate\ncount part 3\n"
   with
   | Some s ->
     check "good record kept" true
       (Smap.find_opt "part" s.Prima.Stats.atom_counts = Some 3)
   | None -> Alcotest.fail "catalog ignored");
  (match !warnings with
   | [ w ] -> check "names file and line" true (contains ~affix:"stats.mad: line 2" w)
   | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws));
  (* a v1 file is ignored with one warning *)
  warnings := [];
  check "v1 ignored" true
    (Prima.Catalog_io.of_string ~warn "# MAD adaptive catalog v1\ncount part 3\n"
     = None);
  check_int "one warning" 1 (List.length !warnings)

(* strings with line breaks, tabs and quotes, and floats that need 17
   digits, come back the same through WAL replay and through a
   snapshot *)
let test_tricky_values_durable () =
  in_tmp "tricky" @@ fun dir ->
  let seed = Database.create () in
  ignore
    (Database.declare_atom_type seed "t"
       [ Schema.Attr.v "s" Domain.String; Schema.Attr.v "w" Domain.Float ]);
  let h = Durable.open_dir ~seed dir in
  List.iter
    (fun (str, f) ->
      ignore
        (Database.insert_atom (Durable.db h) ~atype:"t"
           [ Value.String str; Value.Float f ]))
    [
      ("a\nb", 1. /. 3.);
      ("x\r\ny", 123456.789012345);
      ("tab\there", 0.333333333333333315);
      ("it's\n", -0.1);
    ];
  Durable.commit h;
  let values db =
    List.map (fun (a : Atom.t) -> Array.to_list a.values) (Database.atoms db "t")
  in
  let want = values (Durable.db h) in
  Durable.close h;
  let h = Durable.open_dir dir in
  check_int "replayed" 4 (Durable.recovery h).Durable.replayed_records;
  check "same after WAL replay" true (values (Durable.db h) = want);
  Durable.snapshot h;
  Durable.close h;
  let h = Durable.open_dir dir in
  check "snapshot loaded" true (Durable.recovery h).Durable.snapshot_loaded;
  check "same after snapshot" true (values (Durable.db h) = want);
  Durable.close h

(* a kill during a save used to leave a side file cut anywhere (they
   were rewritten in place); every prefix of each file must load
   without raising *)
let test_side_file_prefixes () =
  in_tmp "prefixes" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let module Smap = Prima.Stats.Smap in
  let s = Prima.Stats.collect (Harness.seed_db ()) in
  let s =
    {
      s with
      Prima.Stats.learned =
        Smap.add "in"
          { Prima.Stats.lf_fwd = Some 1.5; lf_bwd = None; lr_fwd = None;
            lr_bwd = Some 0.25 }
          s.Prima.Stats.learned;
      learned_sel = Smap.add "part|part.name = 'p 1'" 0.1 s.learned_sel;
    }
  in
  let reg = Mad_obs.Registry.create () in
  let dg = Mad_obs.Digest.create reg in
  ignore
    (Mad_obs.Digest.record dg ~fp:0xabc ~text:"SELECT ALL FROM part\nWHERE part.name = '?';"
       ~plan:0x11 ~latency_us:120.0 ~rows:5 ~error:false ());
  let tl = Mad_obs.Timeline.create () in
  Mad_obs.Metric.add (Mad_obs.Registry.counter reg ~labels:[ ("k", "a b") ] "n") 3;
  ignore (Mad_obs.Timeline.tick tl reg);
  ignore (Mad_obs.Timeline.tick tl reg);
  let saved save name =
    let path = Filename.concat dir name in
    save path;
    In_channel.with_open_bin path In_channel.input_all
  in
  let warn = ignore in
  let loaders =
    [
      ( saved (Prima.Catalog_io.save s) "stats.mad",
        fun text -> ignore (Prima.Catalog_io.of_string ~warn text) );
      ( saved (Mad_obs.Digest.save dg) "digest.mad",
        fun text ->
          ignore
            (Mad_obs.Digest.merge_string ~warn
               (Mad_obs.Digest.create (Mad_obs.Registry.create ()))
               text) );
      ( saved (Mad_obs.Timeline.save tl) "timeline.mad",
        fun text ->
          ignore
            (Mad_obs.Timeline.merge_string ~warn (Mad_obs.Timeline.create ())
               text) );
    ]
  in
  List.iter
    (fun (text, load) ->
      for n = 0 to String.length text do
        load (String.sub text 0 n)
      done)
    loaders;
  check "no temp file left behind" false
    (Sys.file_exists (Filename.concat dir "stats.mad.tmp"))

let suite =
  [
    Alcotest.test_case "WAL round-trip and append mode" `Quick
      test_wal_roundtrip;
    Alcotest.test_case "WAL torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "WAL checksum corruption" `Quick
      test_wal_corrupt_record;
    Alcotest.test_case "log record codec round-trip" `Quick
      test_logrec_roundtrip;
    Alcotest.test_case "reopen replays the journal" `Quick test_reopen_replays;
    Alcotest.test_case "torn final record skipped" `Quick
      test_torn_final_record_skipped;
    Alcotest.test_case "snapshot truncates the log" `Quick
      test_snapshot_truncates;
    Alcotest.test_case "snapshot_every auto-rolls" `Quick test_snapshot_every;
    Alcotest.test_case "injected append failure is clean" `Quick
      test_fail_append_is_clean;
    Alcotest.test_case "crash recovery converges (seed 0)" `Quick (fun () ->
        test_crash_property 0);
    Alcotest.test_case "crash recovery converges (seed 3)" `Quick (fun () ->
        test_crash_property 3);
    Alcotest.test_case "recovery errors name their file" `Quick
      test_recovery_errors_name_files;
    Alcotest.test_case "queries never journal" `Quick
      test_queries_do_not_journal;
    Alcotest.test_case "tricky strings and floats survive replay and snapshot"
      `Quick test_tricky_values_durable;
    Alcotest.test_case "every prefix of a side file loads" `Quick
      test_side_file_prefixes;
    Alcotest.test_case "learned catalog round-trip" `Quick
      test_catalog_roundtrip;
  ]
