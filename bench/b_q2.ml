(* Q2 — ch. 4's second query: the point-neighborhood restriction
   WHERE point.name='pn'.  The pushdown ablation: PRIMA's naive plan
   (derive all molecules, then filter — the letter of Def. 10) versus
   the optimized plan (root restriction pushed into the scan), and the
   relational filtered plan, at scale. *)

module Table = Mad_store.Table
open Workloads
module T = Mad_mql.Translate

let run () =
  Bench_util.section
    "Q2 - point neighborhood with restriction (pushdown ablation)";

  (* the query pipeline's plan for Q2: naive (derive all molecules,
     then filter) or rewritten (root restriction pushed into the scan) *)
  let plan ~optimize gdb name =
    let p =
      T.P_restrict
        ( Mad.Qual.(attr "point" "name" =% str name),
          T.alpha ~name:"q2" (Geo_schema.point_neighborhood_desc gdb) )
    in
    if optimize then T.optimize p else p
  in
  let work ~optimize gdb name =
    let stats = Mad.Derive.stats () in
    match T.run ~stats gdb (fun _ -> None) (plan ~optimize gdb name) with
    | T.Molecules mt ->
      ( Mad.Molecule_type.cardinality mt,
        Mad.Derive.atoms_visited stats + Mad.Derive.links_traversed stats )
    | T.Recursive _ | T.Cycles _ -> assert false
  in

  (* correctness on the paper instance *)
  let brazil = Geo_brazil.build () in
  let db = Geo_brazil.db brazil in
  let n_naive, w_naive = work ~optimize:false db "pn" in
  let n_opt, w_opt = work ~optimize:true db "pn" in
  assert (n_naive = n_opt);
  Format.printf
    "result: %d molecule (pn); derivation work (atoms + links): naive %d, \
     optimized %d@."
    n_opt w_naive w_opt;

  let t =
    Table.create
      [
        "scale"; "points"; "naive"; "optimized"; "speedup";
        "relational filtered"; "NF2 select"; "NF2 embed (once)";
      ]
  in
  List.iter
    (fun (label, p) ->
      let g = Geo_gen.build p in
      let gdb = g.Geo_grid.db in
      (* restrict to one named point of the generated grid *)
      let env _ = None in
      let naive = plan ~optimize:false gdb "p1_1"
      and optimized = plan ~optimize:true gdb "p1_1" in
      let naive_ns =
        Bench_util.time_ns ("q2/naive/" ^ label) (fun () -> T.run gdb env naive)
      in
      let opt_ns =
        Bench_util.time_ns ("q2/optimized/" ^ label) (fun () ->
            T.run gdb env optimized)
      in
      let map = Relational.Mapping.of_database gdb in
      let rel_ns =
        Bench_util.time_ns ("q2/rel/" ^ label) (fun () ->
            Relational.Emulate.derive_filtered map gdb
              (Geo_schema.point_neighborhood_desc gdb) ~root_pred:(fun tu ->
                match tu.(1) with
                | Mad_store.Value.String s -> String.equal s "p1_1"
                | _ -> false))
      in
      (* the hierarchical baseline: pre-materialize the embedding (the
         duplication cost), then select on the root attribute *)
      let mt =
        Mad.Molecule_algebra.define gdb
          ~name:(Printf.sprintf "pn_%s" label)
          (Geo_schema.point_neighborhood_desc gdb)
      in
      let embed () = Nf2.Embed.of_molecule_type gdb mt in
      let e = embed () in
      let nf2_select () =
        Nf2.Query.select_exists e.Nf2.Embed.nrel ~path:[] ~attr:"name"
          (fun v -> Mad_store.Value.equal_sem v (Mad_store.Value.String "p1_1"))
      in
      let nf2_ns = Bench_util.time_ns ("q2/nf2-select/" ^ label) nf2_select in
      let embed_ns = Bench_util.time_ns ("q2/nf2-embed/" ^ label) embed in
      Table.add_row t
        [
          label;
          string_of_int (Mad_store.Database.count_atoms gdb "point");
          Bench_util.pp_ns naive_ns;
          Bench_util.pp_ns opt_ns;
          Bench_util.ratio naive_ns opt_ns;
          Bench_util.pp_ns rel_ns;
          Bench_util.pp_ns nf2_ns;
          Bench_util.pp_ns embed_ns;
        ])
    [
      ("4x4", { Geo_gen.default with Geo_gen.rows = 4; cols = 4 });
      ("8x8", { Geo_gen.default with Geo_gen.rows = 8; cols = 8 });
      ("16x16", { Geo_gen.default with Geo_gen.rows = 16; cols = 16 });
    ];
  Table.print t;
  Format.printf
    "the naive plan derives one molecule per point; pushdown derives only \
     the qualifying root's molecule — the gap widens linearly with the \
     number of points.@."
