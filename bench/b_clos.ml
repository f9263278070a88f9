(* CLOS — Theorems 1-3 exercised: deep operator pipelines with every
   intermediate revalidated, measuring the operator-composition
   overhead that closure makes possible in the first place. *)

module Table = Mad_store.Table
open Workloads
module MA = Mad.Molecule_algebra
module MT = Mad.Molecule_type

let run () =
  Bench_util.section "CLOS - closure under operator composition";

  let brazil = Geo_brazil.build () in
  let db0 = Geo_brazil.db brazil in
  let desc = Geo_brazil.mt_state_desc brazil in

  (* a 6-stage pipeline: α Σ Π Σ Ω Δ — validity checked at every stage *)
  let pipeline check =
    let db = Mad_store.Database.copy db0 in
    let mt = MA.define db ~name:(MA.gen_name "mt") desc in
    let s1 = MA.restrict db Mad.Qual.(attr "state" "hectare" >=% int 400) mt in
    let p1 = MA.project db [ ("state", None); ("area", None); ("edge", None) ] s1 in
    let s2 = MA.restrict db Mad.Qual.(attr "state" "hectare" >% int 900) p1 in
    let o = MA.union s2 (MA.restrict db Mad.Qual.False p1) in
    let d = MA.diff p1 o in
    if check then
      List.iter
        (fun mt ->
          let r = Mad.Closure.check_molecule_type db mt in
          if not (Mad.Closure.ok r) then
            failwith (Format.asprintf "%a" Mad.Closure.pp_report r))
        [ mt; s1; p1; s2; o; d ];
    d
  in
  let d = pipeline true in
  Format.printf
    "pipeline alpha-sigma-pi-sigma-omega-delta: every stage a valid \
     molecule type (Thm. 3); final cardinality %d@."
    (MT.cardinality d);

  let t = Table.create [ "variant"; "cost" ] in
  List.iter
    (fun (name, check) ->
      let ns = Bench_util.time_ns ("clos/" ^ name) (fun () -> pipeline check) in
      Table.add_row t [ name; Bench_util.pp_ns ns ])
    [ ("pipeline", false); ("pipeline + closure checks", true) ];
  Table.print t;

  (* propagation-strategy ablation: shared vs per-molecule copies *)
  let db = Mad_store.Database.copy db0 in
  let mt = MA.define db ~name:"mtp" desc in
  let rsv = MT.occ mt in
  let count_atoms strategy =
    let db' = Mad_store.Database.copy db in
    let before = Mad_store.Database.total_atoms db' in
    let _ =
      Mad.Propagate.prop ~strategy db' ~name:(MA.gen_name "p") ~desc
        ~attr_proj:MT.Smap.empty rsv
    in
    Mad_store.Database.total_atoms db' - before
  in
  let shared_atoms = count_atoms `Shared in
  let copied_atoms = count_atoms `Copied in
  let shared_ns =
    Bench_util.time_ns "clos/prop-shared" (fun () ->
        let db' = Mad_store.Database.copy db in
        Mad.Propagate.prop ~strategy:`Shared db' ~name:(MA.gen_name "p") ~desc
          ~attr_proj:MT.Smap.empty rsv)
  in
  let copied_ns =
    Bench_util.time_ns "clos/prop-copied" (fun () ->
        let db' = Mad_store.Database.copy db in
        Mad.Propagate.prop ~strategy:`Copied db' ~name:(MA.gen_name "p") ~desc
          ~attr_proj:MT.Smap.empty rsv)
  in
  let t = Table.create [ "prop strategy"; "atoms materialized"; "cost" ] in
  Table.add_row t [ "shared (Def. 9)"; string_of_int shared_atoms; Bench_util.pp_ns shared_ns ];
  Table.add_row t [ "per-molecule copies"; string_of_int copied_atoms; Bench_util.pp_ns copied_ns ];
  Table.print t;
  Format.printf
    "sharing keeps propagation linear in distinct atoms; the copying \
     fallback pays the NF2-style duplication factor.@."
