(* FIG2 — the two molecule types of Fig. 2 ('mt state' and 'point
   neighborhood') derived from the same atom networks, with shared
   subobjects; cost compared across the three engines: MAD derivation,
   the relational join plan over auxiliary relations, and the NF²
   embedding (which must duplicate shared atoms); and what rendering
   Fig. 2's hierarchical trees costs at the served benchmark's scale. *)

open Mad_store
open Workloads

let run () =
  Bench_util.section
    "FIG2 - molecule types 'mt state' and 'point neighborhood'";

  let brazil = Geo_brazil.build () in
  let db = Geo_brazil.db brazil in

  (* reproduce the figure's content *)
  let mt_state =
    Mad.Molecule_algebra.define db ~name:"mt_state"
      (Geo_brazil.mt_state_desc brazil)
  in
  let pn_mt =
    Mad.Molecule_algebra.define db ~name:"pn"
      (Geo_brazil.point_neighborhood_desc brazil)
  in
  Format.printf
    "mt state: %d molecules; shared atoms across molecules: %d; NF2 \
     duplication: %.2f@."
    (Mad.Molecule_type.cardinality mt_state)
    (List.length (Mad.Render.shared_subobjects mt_state))
    (Nf2.Embed.duplication (Nf2.Embed.of_molecule_type db mt_state));
  let pn =
    match Mad.Molecule_type.find_by_root pn_mt brazil.Geo_brazil.pn with
    | Some m -> m
    | None -> assert false
  in
  Format.printf
    "point neighborhood of pn: %d states, %d rivers (Fig. 2: SP MS MG GO; \
     Parana)@."
    (Aid.Set.cardinal (Mad.Molecule.component pn "state"))
    (Aid.Set.cardinal (Mad.Molecule.component pn "river"));

  (* derivation cost across engines, at scale *)
  let t =
    Table.create
      [ "scale"; "structure"; "MAD derive"; "relational joins"; "rel/MAD" ]
  in
  List.iter
    (fun (label, p) ->
      let g = Geo_gen.build p in
      let gdb = g.Geo_grid.db in
      let map = Relational.Mapping.of_database gdb in
      List.iter
        (fun (sname, desc) ->
          let mad_ns =
            Bench_util.time_ns
              (Printf.sprintf "fig2/mad/%s/%s" label sname)
              (fun () -> Mad.Derive.m_dom gdb desc)
          in
          let rel_ns =
            Bench_util.time_ns
              (Printf.sprintf "fig2/rel/%s/%s" label sname)
              (fun () -> Relational.Emulate.derive map gdb desc)
          in
          Table.add_row t
            [
              label;
              sname;
              Bench_util.pp_ns mad_ns;
              Bench_util.pp_ns rel_ns;
              Bench_util.ratio rel_ns mad_ns;
            ])
        [
          ("mt_state", Geo_schema.mt_state_desc gdb);
          ("point_nbhd", Geo_schema.point_neighborhood_desc gdb);
        ])
    [
      ("4x4", { Geo_gen.default with Geo_gen.rows = 4; cols = 4 });
      ("8x8", { Geo_gen.default with Geo_gen.rows = 8; cols = 8 });
    ];
  Table.print t;

  (* the symmetric-index ablation: a single frontier expansion
     (area -> edge for every area) through the adjacency index vs by
     scanning the link type's pairs — the per-traversal price a model
     without first-class links pays *)
  let t = Table.create [ "scale"; "via index"; "via pair scan"; "scan/index" ] in
  List.iter
    (fun (label, p) ->
      let g = Geo_gen.build p in
      let gdb = g.Geo_grid.db in
      let areas = Database.atoms gdb "area" in
      let expand neighbors =
        List.iter
          (fun (a : Atom.t) -> ignore (neighbors gdb "area-edge" ~dir:`Fwd a.Atom.id))
          areas
      in
      let idx_ns =
        Bench_util.time_ns ("fig2/index/" ^ label) (fun () ->
            expand Database.neighbors)
      in
      let scan_ns =
        Bench_util.time_ns ("fig2/scan/" ^ label) (fun () ->
            expand Database.neighbors_scan)
      in
      Table.add_row t
        [
          label;
          Bench_util.pp_ns idx_ns;
          Bench_util.pp_ns scan_ns;
          Bench_util.ratio scan_ns idx_ns;
        ])
    [
      ("4x4", { Geo_gen.default with Geo_gen.rows = 4; cols = 4 });
      ("8x8", { Geo_gen.default with Geo_gen.rows = 8; cols = 8 });
    ];
  Table.print t;

  (* NF2 embedding cost and duplication at scale *)
  let t =
    Table.create
      [ "scale"; "distinct atoms"; "NF2 instances"; "duplication"; "embed time" ]
  in
  List.iter
    (fun (label, p) ->
      let g = Geo_gen.build p in
      let gdb = g.Geo_grid.db in
      let mt =
        Mad.Molecule_algebra.define gdb ~name:"s" (Geo_schema.mt_state_desc gdb)
      in
      let e = Nf2.Embed.of_molecule_type gdb mt in
      let ns =
        Bench_util.time_ns ("fig2/nf2/" ^ label) (fun () ->
            Nf2.Embed.of_molecule_type gdb mt)
      in
      Table.add_row t
        [
          label;
          string_of_int e.Nf2.Embed.atoms_distinct;
          string_of_int e.Nf2.Embed.atoms_embedded;
          Printf.sprintf "%.2f" (Nf2.Embed.duplication e);
          Bench_util.pp_ns ns;
        ])
    [
      ("4x4", { Geo_gen.default with Geo_gen.rows = 4; cols = 4 });
      ("8x8", { Geo_gen.default with Geo_gen.rows = 8; cols = 8 });
    ];
  Table.print t;

  (* rendering at the scale of the served benchmark: every [mts]
     molecule of its 32x32 grid (geo_scan's SELECT ALL FROM mts), and
     one explosion of its 512-part BOM (bom_explode) *)
  let t = Table.create [ "result"; "atoms"; "bytes"; "render" ] in
  let row name atoms pp v =
    let bytes = String.length (Format.asprintf "%a" pp v) in
    let ns = Bench_util.time_ns ("fig2/render/" ^ name) (fun () -> Format.asprintf "%a" pp v) in
    Table.add_row t [ name; string_of_int atoms; string_of_int bytes; Bench_util.pp_ns ns ]
  in
  let g =
    Geo_gen.build
      {
        Geo_gen.rows = 32;
        cols = 32;
        rivers = 32;
        river_len = 8;
        cities = 128;
        shared_rivers = true;
        seed = 1;
      }
  in
  let gdb = g.Geo_grid.db in
  let mts = Mad.Molecule_algebra.define gdb ~name:"mts" (Geo_schema.mt_state_desc gdb) in
  let atoms = List.fold_left (fun n m -> n + Mad.Molecule.atom_count m) 0 mts.occ in
  row "mts-32x32" atoms (Mad.Render.pp_molecule_type gdb) mts;
  let bom = Bom_gen.build { Bom_gen.depth = 8; width = 64; fanout = 3; share = 0.5; seed = 1 } in
  let bdb = bom.Bom_gen.db in
  let module R = Mad_recursive.Recursive in
  let root = (List.hd (Database.atoms bdb "part")).Atom.id in
  let r = R.define bdb ~name:"explode" ~roots:[ root ] (R.v bdb ~root_type:"part" ~link:"composition" ()) in
  row "bom-explode" (Aid.Set.cardinal (List.hd r.R.occ).R.members) R.pp (bdb, r);
  Table.print t
