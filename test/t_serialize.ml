(* Persistence: dump/load round-trips preserving identity, schema,
   occurrence and derived molecules; diagnostics on malformed input. *)

open Mad_store
open Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let same_db a b =
  Alcotest.(check (list string))
    "atom types" (Database.atom_type_names a) (Database.atom_type_names b);
  Alcotest.(check (list string))
    "link types" (Database.link_type_names a) (Database.link_type_names b);
  List.iter
    (fun at ->
      check_int ("atoms of " ^ at) (Database.count_atoms a at)
        (Database.count_atoms b at);
      List.iter2
        (fun (x : Atom.t) (y : Atom.t) ->
          check "same id" true (Aid.equal x.id y.id);
          check "same values" true (Atom.same_values x y))
        (Database.atoms a at) (Database.atoms b at))
    (Database.atom_type_names a);
  List.iter
    (fun lt ->
      check_int ("links of " ^ lt) (Database.count_links a lt)
        (Database.count_links b lt))
    (Database.link_type_names a)

let test_roundtrip_brazil () =
  let brazil = Geo_brazil.build () in
  let db = Geo_brazil.db brazil in
  let db' = Serialize.load (Serialize.dump db) in
  same_db db db';
  check "loaded db valid" true (Integrity.is_valid db');
  (* derivations agree molecule for molecule *)
  let desc = Geo_brazil.mt_state_desc brazil in
  let desc' = Geo_schema.mt_state_desc db' in
  let occ = Mad.Derive.m_dom db desc and occ' = Mad.Derive.m_dom db' desc' in
  check "same molecules" true
    (List.equal Mad.Molecule.equal occ occ')

let test_roundtrip_bom () =
  let bom = Bom_gen.build Bom_gen.default in
  let db' = Serialize.load (Serialize.dump bom.Bom_gen.db) in
  same_db bom.Bom_gen.db db';
  (* the reflexive link type's roles survive: explosions agree *)
  let d = Mad_recursive.Recursive.v db' ~root_type:"part" ~link:"composition" () in
  let root = bom.Bom_gen.levels.(0).(0) in
  let m = Mad_recursive.Recursive.derive_one db' d root in
  check "explosion preserved" true
    (Aid.Set.equal m.Mad_recursive.Recursive.members
       (Bom_gen.explosion_reference bom root))

let test_fresh_ids_after_load () =
  let db = Office_gen.build Office_gen.default in
  let db' = Serialize.load (Serialize.dump db) in
  let a = Database.insert_atom db' ~atype:"document"
      [ Value.String "New"; Value.Int 2000 ]
  in
  (* the fresh id must not collide with any loaded atom *)
  check "unique new id" true
    (List.for_all
       (fun at ->
         List.for_all
           (fun (b : Atom.t) -> (not (Aid.equal a.Atom.id b.id)) || at = "document")
           (Database.atoms db' at))
       (Database.atom_type_names db'))

let test_tricky_values () =
  let db = Database.create () in
  ignore
    (Database.declare_atom_type db "t"
       [
         Schema.Attr.v "s" Domain.String;
         Schema.Attr.v "f" Domain.Float;
         Schema.Attr.v "b" Domain.Bool;
         Schema.Attr.v "l" (Domain.List_of Domain.Int);
         Schema.Attr.v "e" (Domain.Enum [ "red"; "blue" ]);
       ]);
  ignore
    (Database.insert_atom db ~atype:"t"
       [
         Value.String "it's a 'quoted' string with spaces";
         Value.Float 3.25;
         Value.Bool true;
         Value.List [ Value.Int 1; Value.Int 2; Value.Int 3 ];
         Value.String "blue";
       ]);
  ignore
    (Database.insert_atom db ~atype:"t"
       [
         Value.String "";
         Value.Float (-0.5);
         Value.Bool false;
         Value.List [];
         Value.String "red";
       ]);
  (* strings with line breaks, tabs, percent signs, backslashes and
     quotes; floats that need all 17 digits *)
  List.iter
    (fun (str, f) ->
      ignore
        (Database.insert_atom db ~atype:"t"
           [
             Value.String str;
             Value.Float f;
             Value.Bool true;
             Value.List [];
             Value.String "red";
           ]))
    [
      ("a\nb", 1. /. 3.);
      ("x\r\ny", 123456.789012345);
      ("tab\there", 0.1 +. 0.2);
      ("50%25", 1e16);
      ("back\\slash", -1234567890123456.);
      ("it's", Float.pi);
    ];
  let text = Serialize.dump db in
  let db' = Serialize.load text in
  same_db db db';
  check "floats read back exactly" true
    (List.for_all2
       (fun (x : Atom.t) (y : Atom.t) -> x.values.(1) = y.values.(1))
       (Database.atoms db "t") (Database.atoms db' "t"));
  (* the dump is a fixed point *)
  Alcotest.(check string) "dump of the load" text (Serialize.dump db')

(* list items split at [;] outside strings and inner lists *)
let test_nested_lists () =
  let db = Database.create () in
  ignore
    (Database.declare_atom_type db "t"
       [
         Schema.Attr.v "ss" (Domain.List_of Domain.String);
         Schema.Attr.v "ll" (Domain.List_of (Domain.List_of Domain.Int));
       ]);
  ignore
    (Database.insert_atom db ~atype:"t"
       [
         Value.List [ Value.String "a;b"; Value.String "[c]"; Value.String "'" ];
         Value.List
           [ Value.List [ Value.Int 1; Value.Int 2 ]; Value.List []; Value.List [ Value.Int 3 ] ];
       ]);
  same_db db (Serialize.load (Serialize.dump db))

(* the record reader: a record ends at a newline outside strings and
   lists, and errors name the line a record starts on *)
let test_records () =
  let records = ref [] in
  Serialize.iter_records "# c\na 'x\n# y' [1;\n2]\n\n  b\n" (fun line words ->
      records := (line, words) :: !records);
  check "records" true
    (List.rev !records = [ (2, [ "a"; "'x\n# y'"; "[1;\n2]" ]); (6, [ "b" ]) ]);
  match Serialize.load "atomtype t s:STRING\n\natom t @1 'open\n" with
  | _ -> Alcotest.fail "expected unterminated string"
  | exception Err.Mad_error msg ->
    Alcotest.(check string) "names the record's line" "line 3: unterminated string" msg

let test_malformed_rejected () =
  let bad text =
    match Serialize.load text with
    | _ -> Alcotest.failf "expected load failure for %S" text
    | exception Err.Mad_error _ -> ()
  in
  bad "frobnicate x y";
  bad "atomtype t broken-attr-spec";
  bad "atom nosuchtype @1 1";
  bad "atomtype t n:INT\natom t @1 'wrong type'";
  bad "atomtype t n:INT\natom t @1 1\natom t @1 2" (* duplicate id *);
  bad "atomtype t n:INT\natom t @x 1" (* not an identity *);
  bad "atomtype t r:ID(t)\natom t @1 @y";
  bad "atomtype a n:INT\natomtype b m:INT\nlinktype ab a b 1:1\nlink ab @1 @2"
    (* dangling link *)

let test_error_names_file () =
  (* a write that cannot happen is a typed error naming the target *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir/x.mad"
  in
  (match Serialize.dump_file (Database.create ()) path with
   | () -> Alcotest.fail "expected write failure"
   | exception Err.Mad_error msg ->
     check "target named" true
       (String.starts_with ~prefix:(path ^ ": cannot write") msg));
  (* diagnostics from a named source (load_file, the durability
     engine's snapshots) lead with the file name *)
  match Serialize.load ~file:"snapshot.mad" "frobnicate x y" with
  | _ -> Alcotest.fail "expected load failure"
  | exception Err.Mad_error msg ->
    check "file named" true
      (String.length msg > 13 && String.sub msg 0 13 = "snapshot.mad:")

let suite =
  [
    Alcotest.test_case "round-trip Brazil" `Quick test_roundtrip_brazil;
    Alcotest.test_case "round-trip BOM (reflexive roles)" `Quick
      test_roundtrip_bom;
    Alcotest.test_case "nested lists and lists of strings" `Quick
      test_nested_lists;
    Alcotest.test_case "records span lines inside strings" `Quick test_records;
    Alcotest.test_case "fresh ids after load" `Quick test_fresh_ids_after_load;
    Alcotest.test_case "tricky values" `Quick test_tricky_values;
    Alcotest.test_case "malformed input rejected" `Quick
      test_malformed_rejected;
    Alcotest.test_case "errors name their file" `Quick test_error_names_file;
  ]
