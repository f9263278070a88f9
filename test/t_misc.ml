(* Odds and ends: value/domain edges, forced propagation strategies,
   projection over a pruned plan, session rendering, the CLI's
   profiled query. *)

open Mad_store
open Workloads
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_value_edges () =
  check "id values" true (Domain.mem (Value.Id 7) (Domain.Id_of "state"));
  check "id not int" false (Domain.mem (Value.Id 7) Domain.Int);
  check "nested lists" true
    (Domain.mem
       (Value.List [ Value.List [ Value.Int 1 ] ])
       (Domain.List_of (Domain.List_of Domain.Int)));
  check "default enum" true
    (Value.equal (Domain.default (Domain.Enum [ "a"; "b" ])) (Value.String "a"));
  check "default list" true
    (Value.equal (Domain.default (Domain.List_of Domain.Int)) (Value.List []));
  (* semantic vs structural comparison *)
  check "sem eq across kinds" true
    (Value.equal_sem (Value.Float 3.0) (Value.Int 3));
  check "sem order mixes numerics" true
    (Value.compare_sem (Value.Int 2) (Value.Float 2.5) < 0)

let test_forced_prop_strategies () =
  let b = Geo_brazil.build () in
  let db = Geo_brazil.db b in
  let desc = Geo_brazil.mt_state_desc b in
  let occ = Mad.Derive.m_dom db desc in
  let shared =
    Mad.Propagate.prop ~strategy:`Shared db ~name:"fs" ~desc
      ~attr_proj:MT.Smap.empty occ
  in
  let copied =
    Mad.Propagate.prop ~strategy:`Copied db ~name:"fc" ~desc
      ~attr_proj:MT.Smap.empty occ
  in
  let exact (m : Mad.Propagate.t) = Mad.Propagate.exact db m.mdesc m.mocc in
  check "shared exact" true (exact shared);
  check "copied exact" true (exact copied);
  (* copied materializes strictly more atoms than shared (shared borders) *)
  let atoms_of (m : Mad.Propagate.t) =
    MT.Smap.fold
      (fun _ tname acc -> acc + Database.count_atoms db tname)
      m.node_map 0
  in
  check "copied > shared" true (atoms_of copied > atoms_of shared);
  check "db still valid" true (Integrity.is_valid db)

(* The rewritten plan's projection (over a pruned derivation) is the
   algebra's Π: unselected attributes are hidden and no type is
   declared. *)
let test_executor_projection () =
  let b = Geo_brazil.build () in
  let db = Geo_brazil.db b in
  let run select =
    let p =
      Mad_mql.Translate.P_restrict
        ( Mad.Qual.(attr "state" "hectare" >% int 900),
          Mad_mql.Translate.alpha ~name:"q" (Geo_brazil.mt_state_desc b) )
    in
    let p =
      match select with
      | None -> p
      | Some items -> Mad_mql.Translate.P_project (items, p)
    in
    match
      Mad_mql.Translate.run db (fun _ -> None) (Mad_mql.Translate.optimize p)
    with
    | Mad_mql.Translate.Molecules mt -> mt
    | _ -> Alcotest.fail "expected molecules"
  in
  let types () = (Database.atom_type_names db, Database.link_type_names db) in
  let before = types () in
  let all = run None in
  let projected = run (Some [ ("state", Some [ "name" ]); ("area", None) ]) in
  check_int "same cardinality" (MT.cardinality all) (MT.cardinality projected);
  Alcotest.(check (list string))
    "state shows name only" [ "name" ]
    (MT.visible_attrs db projected "state");
  Alcotest.(check (list string))
    "area keeps every attribute"
    (MT.visible_attrs db all "area")
    (MT.visible_attrs db projected "area");
  check "no type declared" true (types () = before)

let test_session_rendering () =
  let b = Geo_brazil.build () in
  let s = Mad_mql.Session.create (Geo_brazil.db b) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "insert rendering" true
    (contains
       (Mad_mql.Session.run_to_string s "INSERT INTO city VALUES ('T', 1);")
       "inserted city");
  check "dml rendering" true
    (contains
       (Mad_mql.Session.run_to_string s
          "MODIFY state.hectare = 7 FROM state-area WHERE state.name='SP';")
       "modified state.hectare");
  check "define rendering" true
    (contains
       (Mad_mql.Session.run_to_string s "DEFINE MOLECULE m1 AS state-area;")
       "defined molecule type m1")

let test_atom_pp_named () =
  let b = Geo_brazil.build () in
  let db = Geo_brazil.db b in
  let at = Database.atom_type db "state" in
  let a = List.hd (Database.atoms db "state") in
  let s = Format.asprintf "%a" (Atom.pp_named at) a in
  check "named attrs" true
    (String.length s > 0
     &&
     let rec go i =
       i + 5 <= String.length s && (String.sub s i 5 = "name=" || go (i + 1))
     in
     go 0)

let test_link_type_helpers () =
  let lt = Schema.Link_type.v "ab" ("a", "b") in
  check "other end a->b" true (String.equal (Schema.Link_type.other_end lt "a") "b");
  check "other end b->a" true (String.equal (Schema.Link_type.other_end lt "b") "a");
  check "role left" true (Schema.Link_type.role_of lt "a" = `Left);
  let refl = Schema.Link_type.v "cc" ("c", "c") in
  check "reflexive" true (Schema.Link_type.reflexive refl);
  check "role both" true (Schema.Link_type.role_of refl "c" = `Both);
  (match Schema.Link_type.other_end lt "z" with
   | _ -> Alcotest.fail "expected failure"
   | exception Err.Mad_error _ -> ())

let test_qual_pp_roundtrip_operators () =
  (* the DSL builders produce what the printer says they do *)
  let open Mad.Qual in
  Alcotest.(check string)
    "pp" "(state.hectare > 900 AND COUNT(edge) = 4)"
    (to_string (And (attr "state" "hectare" >% int 900, Count "edge" =% int 4)));
  check "agg pp" true
    (to_string (Agg (Sum, "edge", "length") >=% int 4) |> fun s ->
     String.length s > 0 && String.sub s 0 3 = "SUM")

(* [madql query --profile] prints the reply and the profile of one
   run: a profiled INSERT adds exactly one atom *)
let test_cli_profile_runs_once () =
  let madql =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/madql.exe"
  in
  let dir = Filename.temp_dir "t_misc_profile" "" in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let query args =
    let ic =
      Unix.open_process_args_in madql
        (Array.of_list ([ "madql"; "query"; "-d"; "brazil"; "--data"; dir ] @ args))
    in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> out
    | _ -> Alcotest.failf "madql %s failed:\n%s" (String.concat " " args) out
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let out =
    query [ "--profile=pretty"; "INSERT INTO city VALUES ('Zed', 5);" ]
  in
  check "the reply ends its line" true
    (List.exists
       (fun l -> String.length l > 9 && String.sub l 0 9 = "inserted ")
       (String.split_on_char '\n' out));
  check "the profile follows" true (contains out "actual:");
  check "one Zed" true
    (contains
       (query [ "SELECT ALL FROM city WHERE city.name = 'Zed';" ])
       "(1 molecules)")

let suite =
  [
    Alcotest.test_case "value/domain edges" `Quick test_value_edges;
    Alcotest.test_case "cli query --profile runs once" `Quick
      test_cli_profile_runs_once;
    Alcotest.test_case "forced prop strategies" `Quick
      test_forced_prop_strategies;
    Alcotest.test_case "executor projection is Pi" `Quick
      test_executor_projection;
    Alcotest.test_case "session rendering" `Quick test_session_rendering;
    Alcotest.test_case "atom pp_named" `Quick test_atom_pp_named;
    Alcotest.test_case "link-type helpers" `Quick test_link_type_helpers;
    Alcotest.test_case "qual printing" `Quick test_qual_pp_roundtrip_operators;
  ]
