(** Machine checks of the closure theorems.

    Theorem 1: every atom-type operation yields a valid atom type with
    well-defined inherited link types, all inside the database domain —
    checked by re-validating the enlarged database's integrity and the
    result type's registration.

    Theorems 2/3: every molecule-type operation yields a valid molecule
    type over the enlarged database.  Operator results stay over their
    operand's types, so the check builds the enlarged database itself:
    it propagates the result set ({!Propagate.prop}, Def. 9), then
    (a) validates the propagated description with [md_graph], (b)
    verifies the Def. 9 bijection (re-derivation returns exactly the
    propagated occurrence), (c) verifies every propagated molecule
    against the specification predicate [mv_graph], and (d) re-checks
    database integrity — and finally drops the propagated types, so
    the database keeps the types it had. *)

open Mad_store

type report = { checks : int; failures : string list }

let ok r = r.failures = []

let pp_report ppf r =
  if ok r then Fmt.pf ppf "closure: %d checks, all passed" r.checks
  else
    Fmt.pf ppf "closure: %d checks, %d FAILED:@.%a" r.checks
      (List.length r.failures)
      Fmt.(list ~sep:(any "@.") string)
      r.failures

let empty = { checks = 0; failures = [] }

let add r name cond =
  {
    checks = r.checks + 1;
    failures = (if cond then r.failures else name :: r.failures);
  }

(** Theorem 1 instance: the database (enlarged by atom-type operations)
    is still a member of the database domain, and the result type is a
    registered, integrity-clean atom type. *)
let check_atom_result ?(obs = Mad_obs.Obs.noop) db (r : Atom_algebra.t) =
  Mad_obs.Obs.timed obs "closure.check_atom_result" @@ fun () ->
  let rep = empty in
  let rep =
    add rep
      (Printf.sprintf "result type %s registered" r.at.name)
      (Database.has_atom_type db r.at.name)
  in
  let rep =
    List.fold_left
      (fun rep (_, (lt : Schema.Link_type.t)) ->
        add rep
          (Printf.sprintf "inherited link type %s registered" lt.name)
          (Database.has_link_type db lt.name))
      rep r.inherited
  in
  add rep "database integrity" (Integrity.is_valid db)

(** Theorem 2/3 instance for a molecule type, propagated on demand.

    The Def. 9 bijection check *re-derives the whole occurrence* — by
    far the most expensive step of the closure machinery — so the
    [stats] handle (and the span timed under [obs]) make that work
    visible instead of letting profiles under-report it. *)
let check_molecule_type ?(obs = Mad_obs.Obs.noop) ?stats db
    (mt : Molecule_type.t) =
  Mad_obs.Obs.timed obs "closure.check_molecule_type" @@ fun () ->
  let stats = match stats with Some s -> s | None -> Derive.stats_in (Mad_obs.Obs.registry obs) in
  let mat =
    Propagate.prop ~stats db ~name:(mt.name ^ ".closure") ~desc:mt.desc
      ~attr_proj:mt.attr_proj mt.occ
  in
  Fun.protect ~finally:(fun () -> Propagate.cleanup db mat) @@ fun () ->
  let rep =
    add empty
      (Printf.sprintf "%s: propagated description satisfies md_graph" mt.name)
      (match
         Mdesc.md_graph ~nodes:(Mdesc.nodes mat.mdesc)
           ~edges:(Mdesc.edges mat.mdesc)
       with
       | Ok root -> String.equal root (Mdesc.root mat.mdesc)
       | Error _ -> false)
  in
  let rep =
    add rep
      (Printf.sprintf "%s: Def. 9 bijection (re-derivation)" mt.name)
      (Propagate.exact ~stats db mat.mdesc mat.mocc)
  in
  let rep =
    List.fold_left
      (fun rep (m : Molecule.t) ->
        add rep
          (Printf.sprintf "%s: propagated molecule %s satisfies mv_graph"
             mt.name (Aid.to_string m.root))
          (Molecule.mv_graph db mat.mdesc m))
      rep mat.mocc
  in
  add rep
    (Printf.sprintf "%s: database integrity" mt.name)
    (Integrity.is_valid db)
