(* Golden bytes of every renderer: molecule sets (Fig. 2's trees, with
   and without Π'd labels), recursive explosions with their cycle and
   shared marks, cycle recursion, and the session's non-result
   outcomes.  The files under [golden/] were written by the Format
   printers the buffer walkers replaced; a byte that moves fails here.

   To rewrite them after a deliberate output change:
     MAD_GOLDEN_WRITE=$PWD/test/golden dune exec test/test_main.exe -- test golden *)

open Mad_store
open Workloads
module R = Mad_recursive.Recursive
module S = Mad_mql.Session

let brazil () =
  let b = Geo_brazil.build () in
  let db = Geo_brazil.db b in
  (b, db, Mad.Molecule_algebra.define db ~name:"mt_state" (Geo_brazil.mt_state_desc b))

let mt_state () =
  let _, db, mt = brazil () in
  Format.asprintf "%a" (Mad.Render.pp_molecule_type db) mt

(* the name attribute projected away: every state label falls back to
   its id, and area keeps all of its attributes *)
let projected () =
  let _, db, mt = brazil () in
  let proj =
    Mad.Molecule_algebra.project db [ ("state", Some [ "hectare" ]); ("area", None) ] mt
  in
  Format.asprintf "%a" (Mad.Render.pp_molecule_type db) proj

let session_run db stmts =
  let s = S.create db in
  String.concat "---\n" (List.map (S.run_to_string s) stmts)

(* MOL queries over Brazil: a diamond structure, a projection, a
   product and a restriction, rendered as the server replies *)
let brazil_queries () =
  let _, db, _ = brazil () in
  session_run db
    [
      "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.name = 'pn';";
      "SELECT state(hectare), area, edge FROM state-area-edge WHERE state.hectare >= 40;";
      "SELECT ALL FROM state-area, river;";
      "SELECT ALL FROM river-net-edge-area-state;";
    ]

(* a composition with sharing (b and c both contain d) and a data
   cycle (d contains b): an explosion shows both marks *)
let cyclic_bom () =
  let db = Database.create () in
  Bom_gen.define_schema db;
  let part name =
    (Database.insert_atom db ~atype:"part" [ Value.String name; Value.Int 0; Value.Int 1 ]).id
  in
  let a = part "a" and b = part "b" and c = part "c" and d = part "d" in
  List.iter
    (fun (l, r) -> Database.add_link db "composition" ~left:l ~right:r)
    [ (a, b); (a, c); (b, d); (c, d); (d, b) ];
  (db, a)

let bom_explosions () =
  let db, a = cyclic_bom () in
  let show view max_depth =
    let d = R.v db ~root_type:"part" ~link:"composition" ~view ?max_depth () in
    Format.asprintf "%a" R.pp (db, R.define db ~name:"t" d)
  in
  let desc = R.v db ~root_type:"part" ~link:"composition" () in
  let m = R.derive_one db desc a in
  let t = { R.name = "t"; desc; occ = [ m ] } in
  String.concat "---\n"
    [
      show R.Sub None;
      show R.Super None;
      show R.Sub (Some 1);
      Format.asprintf "%a" (R.pp_molecule db t) m;
    ]

(* the WITH component's "| node" lines; the header is printed under
   two names, because a long one makes Format break the description *)
let vlsi_with () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let db = design.Vlsi_gen.db in
  match
    S.run (S.create db)
      "SELECT ALL FROM cell RECURSIVE BY instantiates WITH cell-pin WHERE cell.cname = 'TOP';"
  with
  | S.Result (Mad_mql.Translate.Recursive r) ->
    let show name = Format.asprintf "%a" R.pp (db, { r with R.name }) in
    show "top" ^ "---\n" ^ show "the_top_cell_and_all_of_its_pins"
  | _ -> Alcotest.fail "expected a recursive result"

let vlsi_cycle () =
  let design = Vlsi_gen.build Vlsi_gen.default in
  let db = design.Vlsi_gen.db in
  let d =
    R.cycle db ~root_type:"cell"
      ~steps:[ ("cell-pin", `Fwd); ("net-pin", `Bwd); ("net-pin", `Fwd); ("cell-pin", `Bwd) ]
      ~max_depth:2 ()
  in
  Format.asprintf "%a" R.pp_cycle (db, R.cycle_define db ~name:"conn" d)

(* every non-result outcome, through the session's renderer *)
let outcomes () =
  let _, db, _ = brazil () in
  session_run db
    [
      "DEFINE MOLECULE sa AS state-area;";
      "INSERT INTO state VALUES ('XX', 7);";
      "MODIFY state.hectare = 9 FROM state WHERE state.name = 'XX';";
      "INSERT INTO city VALUES ('Zz', 5) LINK city-point @8;";
      "DELETE FROM state WHERE state.name = 'XX' DETACH;";
      "SELECT ALL FROM sa WHERE state.name = 'GO';";
    ]

let cases =
  [
    ("mt_state", mt_state);
    ("projected", projected);
    ("brazil_queries", brazil_queries);
    ("bom_explosions", bom_explosions);
    ("vlsi_with", vlsi_with);
    ("vlsi_cycle", vlsi_cycle);
    ("outcomes", outcomes);
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* MOL names an anonymous FROM item [q<k>], and Σ, Π, Ω, Δ, Ψ and X
   name an unnamed result [<operand>_<op>_<k>], both from process-wide
   counters that the suites before this one advance: mask those digits
   on both sides, so the golden files stay the bytes one run printed. *)
let mask_counters s =
  let tags = [ " q"; "\nq"; "_sigma_"; "_pi_"; "_omega_"; "_delta_"; "_psi_"; "_x_" ] in
  let n = String.length s in
  let b = Buffer.create n in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let tagged i t =
    let l = String.length t in
    i + l <= n && String.sub s i l = t && digit (i + l)
  in
  let rec go i =
    if i < n then
      match List.find_opt (tagged i) tags with
      | Some t ->
        Buffer.add_string b t;
        Buffer.add_char b '#';
        let j = ref (i + String.length t) in
        while digit !j do
          incr j
        done;
        go !j
      | None ->
        Buffer.add_char b s.[i];
        go (i + 1)
  in
  go 0;
  Buffer.contents b

let golden (name, render) =
  Alcotest.test_case name `Quick (fun () ->
      let file = name ^ ".txt" in
      let got = render () in
      match Sys.getenv_opt "MAD_GOLDEN_WRITE" with
      | Some dir ->
        Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
            Out_channel.output_string oc got)
      | None ->
        Alcotest.(check string) file
          (mask_counters (read_file (Filename.concat "golden" file)))
          (mask_counters got))

let suite = List.map golden cases
