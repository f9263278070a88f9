(* FIG5 — the three-stage definition of the molecule-type operations
   (operation-specific actions -> propagation -> molecule-type
   definition): per-operator cost, the cost of the propagation stage
   that Σ Π Ω Δ Ψ leave to the closure check, and a printed trace of Σ
   on mt_state. *)

module Table = Mad_store.Table
open Workloads
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let run () =
  Bench_util.section "FIG5 - molecule-type operations and prop";

  let brazil = Geo_brazil.build () in
  let db0 = Geo_brazil.db brazil in
  let desc = Geo_brazil.mt_state_desc brazil in

  (* the printed trace: Σ[hectare>900](mt_state) stage by stage *)
  let db = Mad_store.Database.copy db0 in
  let mt = MA.define db ~name:"mt_state" desc in
  let pred = Mad.Qual.(attr "state" "hectare" >% int 900) in
  let rsv = List.filter (fun m -> MA.molecule_satisfies db mt m pred) (MT.occ mt) in
  Format.printf
    "operation-specific actions: %d of %d molecules qualify@."
    (List.length rsv) (MT.cardinality mt);
  let before = Mad_store.Database.total_atoms db in
  let mat : Mad.Propagate.t =
    Mad.Propagate.prop db ~name:"sigma_trace" ~desc ~attr_proj:MT.Smap.empty rsv
  in
  Format.printf
    "prop: database enlarged by %d atoms, %d atom types, %d link types \
     (strategy %s)@."
    (Mad_store.Database.total_atoms db - before)
    (MT.Smap.cardinal mat.node_map)
    (MT.Smap.cardinal mat.link_map)
    (match mat.strategy with `Shared -> "shared" | `Copied -> "copied");
  Format.printf "molecule-type definition: re-derivation exact: %b@."
    (Mad.Propagate.exact db mat.mdesc mat.mocc);

  (* per-operator cost *)
  let t = Table.create [ "operator"; "result molecules"; "cost" ] in
  let fresh_db () =
    let db = Mad_store.Database.copy db0 in
    let mt = MA.define db ~name:(Printf.sprintf "m%d" (Hashtbl.hash db land 0xfff)) desc in
    (db, mt)
  in
  let db, mt = fresh_db () in
  let big () = MA.restrict db pred mt in
  let touch () = MA.restrict db Mad.Qual.(attr "point" "name" =% str "pn") mt in
  let b = big () and c = touch () in
  let rows =
    [
      ("alpha (define)", (fun () -> ignore (MA.define db ~name:(Mad.Molecule_algebra.gen_name "a") desc)), MT.cardinality mt);
      ("sigma (restrict)", (fun () -> ignore (big ())), MT.cardinality b);
      ( "pi (project)",
        (fun () ->
          ignore (MA.project db [ ("state", Some [ "name" ]); ("area", None) ] mt)),
        MT.cardinality mt );
      ("omega (union)", (fun () -> ignore (MA.union b c)), MT.cardinality (MA.union b c));
      ("delta (difference)", (fun () -> ignore (MA.diff b c)), MT.cardinality (MA.diff b c));
      ("psi (intersection)", (fun () -> ignore (MA.intersect b c)), MT.cardinality (MA.intersect b c));
      ("x (product)", (fun () -> ignore (MA.product db b c)), MT.cardinality (MA.product db b c));
    ]
  in
  List.iter
    (fun (name, f, card) ->
      let ns = Bench_util.time_ns ("fig5/" ^ name) f in
      Table.add_row t [ name; string_of_int card; Bench_util.pp_ns ns ])
    rows;
  Table.print t;

  (* the share of prop: the filter alone vs Σ followed by the Def. 9
     propagation (and its cleanup) the closure check runs — on a fresh
     copy, since the X rows above leave their types behind *)
  let db, mt = fresh_db () in
  let filter_only () =
    List.filter (fun m -> MA.molecule_satisfies db mt m pred) (MT.occ mt)
  in
  let sigma_with_prop () =
    let s = MA.restrict db pred mt in
    Mad.Propagate.cleanup db
      (Mad.Propagate.prop db ~name:s.MT.name ~desc ~attr_proj:s.MT.attr_proj
         s.MT.occ)
  in
  let filter_ns = Bench_util.time_ns "fig5/filter-only" (fun () -> ignore (filter_only ())) in
  let full_ns = Bench_util.time_ns "fig5/sigma-with-prop" sigma_with_prop in
  Format.printf
    "sigma then prop = filter %s + prop %s (prop is %.0f%% of the pair; \
     served sigma stops after the filter)@."
    (Bench_util.pp_ns filter_ns)
    (Bench_util.pp_ns (full_ns -. filter_ns))
    (100. *. (full_ns -. filter_ns) /. full_ns)
