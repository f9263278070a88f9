let () =
  Alcotest.run "mad-repro"
    [
      ("store", T_store.suite);
      ("serialize", T_serialize.suite);
      ("mdesc", T_mdesc.suite);
      ("derive", T_derive.suite);
      ("kernel", T_kernel.suite);
      ("delta", T_delta.suite);
      ("qual", T_qual.suite);
      ("atom-algebra", T_atom_algebra.suite);
      ("molecule-algebra", T_molecule_algebra.suite);
      ("closure", T_closure.suite);
      ("mql", T_mql.suite);
      ("recursive", T_recursive.suite);
      ("dml", T_dml.suite);
      ("relational", T_relational.suite);
      ("nf2", T_nf2.suite);
      ("er", T_er.suite);
      ("prima", T_prima.suite);
      ("paged", T_paged.suite);
      ("workloads", T_workloads.suite);
      ("render", T_render.suite);
      ("golden", T_golden.suite);
      ("obs", T_obs.suite);
      ("timeline", T_timeline.suite);
      ("digest", T_digest.suite);
      ("durable", T_durable.suite);
      ("serve", T_serve.suite);
      ("misc", T_misc.suite);
      ("properties", T_props.suite);
    ]
