(* KERNEL — the derivation kernel against the scalar walk: CSR
   snapshot construction cost, bitset m_dom on hierarchical and
   reflexive workloads, and the Σ restriction over the kernel's grid
   occurrence.

   The steady-state rows time derivation with a warm snapshot (the
   common case: many derivations per mutation); the snapshot row
   prices the rebuild a mutation epoch forces. *)

module Table = Mad_store.Table
open Workloads

let run () =
  Bench_util.section "KERNEL - CSR snapshots, bitset joins";

  (* -- reflexive closure: BOM part explosion, scalar vs kernel -- *)
  Bench_util.subsection "BOM part explosion (reflexive composition link)";
  let bom = Bom_gen.build Bom_gen.default in
  let db = bom.Bom_gen.db in
  let d =
    Mad_recursive.Recursive.v db ~root_type:"part" ~link:"composition" ()
  in
  ignore (Mad_kernel.Snapshot.of_db db) (* warm *);
  let scalar_ns =
    Bench_util.time_ns "kernel/bom-mdom-scalar" (fun () ->
        Mad_recursive.Recursive.m_dom ~kernel:false db d)
  in
  let kernel_ns =
    Bench_util.time_ns "kernel/bom-mdom-kernel" (fun () ->
        Mad_recursive.Recursive.m_dom ~kernel:true db d)
  in
  let t = Table.create [ "path"; "cost"; "speedup" ] in
  Table.add_row t [ "scalar walk"; Bench_util.pp_ns scalar_ns; "1.0x" ];
  Table.add_row t
    [ "bitset kernel (warm snapshot)"; Bench_util.pp_ns kernel_ns;
      Bench_util.ratio scalar_ns kernel_ns ];
  Table.print t;

  (* -- snapshot (re)build: what one mutation epoch costs the kernel -- *)
  Bench_util.subsection "CSR snapshot build (cold, after invalidation)";
  let snap_ns =
    Bench_util.time_ns "kernel/snapshot-build" (fun () ->
        Mad_kernel.Snapshot.invalidate db;
        Mad_kernel.Snapshot.of_db db)
  in
  Format.printf "snapshot build: %s for %d atoms / %d links@."
    (Bench_util.pp_ns snap_ns)
    (Mad_store.Database.total_atoms db)
    (Mad_store.Database.total_links db);

  (* -- hierarchical m_dom: geo grid, scalar vs kernel -- *)
  Bench_util.subsection "geo-grid m_dom (hierarchical, diamond-shaped)";
  let side = 24 in
  let g =
    Geo_grid.build ~rows:side ~cols:side
      (List.init (side * side) (Printf.sprintf "S%03d"))
  in
  let gdb = g.Geo_grid.db in
  let desc = Geo_schema.mt_state_desc gdb in
  ignore (Mad_kernel.Snapshot.of_db gdb);
  let rows =
    [
      ( "scalar walk", "kernel/grid-mdom-scalar",
        fun () -> Mad.Derive.m_dom_scalar gdb desc );
      ( "bitset kernel (warm snapshot)", "kernel/grid-mdom-kernel",
        fun () -> Mad.Derive.m_dom ~kernel:true gdb desc );
    ]
  in
  let t = Table.create [ "path"; "cost"; "speedup" ] in
  let base = ref nan in
  List.iter
    (fun (label, id, f) ->
      let ns = Bench_util.time_ns id f in
      if Float.is_nan !base then base := ns;
      Table.add_row t
        [ label; Bench_util.pp_ns ns; Bench_util.ratio !base ns ])
    rows;
  Table.print t;

  (* -- Σ restriction: per-molecule qualification over the occurrence -- *)
  Bench_util.subsection "sigma restriction over the grid occurrence";
  let mt = Mad.Molecule_algebra.define gdb ~name:"bench_mt" desc in
  let pred = Mad.Qual.(attr "state" "hectare" >=% int 400) in
  let ns =
    Bench_util.time_ns "kernel/sigma" (fun () ->
        Mad.Molecule_algebra.restrict
          ~name:(Mad.Molecule_algebra.gen_name "b")
          gdb pred mt)
  in
  Format.printf "sigma over %d molecules: %s@."
    (List.length (Mad.Molecule_type.occ mt))
    (Bench_util.pp_ns ns);
  Format.printf
    "kernel wins come from CSR locality and bitset conjunction.@."
