(** Translation of MOL statements into the molecule algebra (ch. 4:
    "this algebra is used as a sound basis to express the semantics of
    the high level query language MOL").

    The evaluator never interprets the AST against the data directly:
    a query compiles to one algebra plan (α for the FROM clause, Σ for
    WHERE, Π for SELECT, Ω/Δ/Ψ/X for the combinators, ρ for recursion),
    the plan is rewritten by the algebra's equivalences (ch. 5), and
    that plan is executed, printed by EXPLAIN and hashed by the
    workload digest. *)

open Mad_store
module R = Mad_recursive.Recursive
module Planner = Prima.Planner

type result =
  | Molecules of Mad.Molecule_type.t
  | Recursive of R.t
  | Cycles of R.cycle_t

(** Resolve a parsed structure against the database: every [Auto] link
    must denote exactly one link type between its two atom types
    (the ['-'] shorthand of ch. 4 — "If there is only one link type
    defined between two atom types we can simplify the syntax"). *)
let resolve_structure db (s : Ast.structure) : Mad.Mdesc.t =
  let edges =
    List.map
      (fun (l, f, t) ->
        match l with
        | Ast.Via name -> (name, f, t)
        | Ast.Auto -> begin
          match Database.link_types_between db f t with
          | [ lt ] -> (lt.Schema.Link_type.name, f, t)
          | [] -> Err.failf "no link type between %s and %s" f t
          | several ->
            Err.failf
              "several link types between %s and %s (%s); name one with \
               -[link]-"
              f t
              (String.concat ", "
                 (List.map (fun (lt : Schema.Link_type.t) -> lt.name) several))
        end)
      s.Ast.s_edges
  in
  Mad.Mdesc.v db ~nodes:s.Ast.s_nodes ~edges

type alpha = {
  name : string;
  desc : Mad.Mdesc.t;
  push : Mad.Qual.t option;
  derive : Mad.Mdesc.t;
}

type plan =
  | P_define of alpha
  | P_ref of string
  | P_restrict of Mad.Qual.t * plan
  | P_project of (string * string list option) list * plan
  | P_union of plan * plan
  | P_diff of plan * plan
  | P_intersect of plan * plan
  | P_product of plan * plan
  | P_recursive of R.desc * Mad.Qual.t option
  | P_cycle of R.cycle_desc * Mad.Qual.t option

let alpha ~name desc = P_define { name; desc; push = None; derive = desc }

let fresh_query_name =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "q%d" !k

(* ------------------------------------------------------------------ *)
(* Compilation: the naive plan, the letter of ch. 4                     *)

(** Recursive FROM items compile to the recursive extension's
    operator; they do not combine with Π or the product (Schöning's
    extension keeps them first-class but our scope restricts them to
    SELECT ALL).  A named FROM definition compiles to a reference: the
    session enters it into its catalog before the plan runs. *)
let rec compile db (env : string -> Mad.Molecule_type.t option) (q : Ast.qexpr) : plan =
  match q with
  | Ast.Q { select; from; where } -> begin
    match from with
    | Ast.From_recursive { root; link; view; depth; with_structure } ->
      if select <> Ast.All then
        Err.failf "recursive molecule types support SELECT ALL only";
      let component = Option.map (resolve_structure db) with_structure in
      wrap select where
        (P_recursive
           (R.v db ~root_type:root ~link ~view ?max_depth:depth ?component (),
            None))
    | Ast.From_cycle { root; steps; depth } ->
      if select <> Ast.All then
        Err.failf "cycle recursion supports SELECT ALL only";
      let steps =
        List.map (fun (l, bwd) -> (l, if bwd then `Bwd else `Fwd)) steps
      in
      wrap select where
        (P_cycle (R.cycle db ~root_type:root ~steps ?max_depth:depth (), None))
    | (Ast.From_named_def _ | Ast.From_anon _ | Ast.From_ref _
      | Ast.From_product _) as from ->
      wrap select where (compile_from db env from)
  end
  | Ast.Union (a, b) -> P_union (compile db env a, compile db env b)
  | Ast.Diff (a, b) -> P_diff (compile db env a, compile db env b)
  | Ast.Intersect (a, b) -> P_intersect (compile db env a, compile db env b)

and compile_from db env = function
  | Ast.From_named_def (name, s) ->
    if env name = None then ignore (resolve_structure db s);
    P_ref name
  | Ast.From_anon s ->
    alpha ~name:(fresh_query_name ()) (resolve_structure db s)
  | Ast.From_ref name ->
    if env name = None then Err.failf "unknown molecule type %s" name;
    P_ref name
  | Ast.From_product (a, b) ->
    P_product (compile_from db env a, compile_from db env b)
  | Ast.From_recursive _ | Ast.From_cycle _ ->
    Err.failf "recursive molecule types cannot feed the product"

and wrap select where plan =
  let plan =
    match where with None -> plan | Some p -> P_restrict (p, plan)
  in
  match select with
  | Ast.All -> plan
  | Ast.Items items -> P_project (items, plan)

(* ------------------------------------------------------------------ *)
(* Rewriting                                                            *)

(* Σ over a scan: the pushable conjuncts move into the scan, the rest
   stays a residual Σ, cheapest first when a catalog orders it.

   Where this is sound:
   - α over an anonymous structure: its root node binds the root atom
     alone, so a quantifier-free conjunct over the root node means the
     same on the root atom ({!Prima.Planner.pushable}).  A catalogued
     reference is already derived and keeps its Σ.
   - ρ and ρ°: the root node ranges over all members
     ({!R.molecule_satisfies}), so only plain attribute comparisons on
     the root move; COUNT(root), aggregates over the root and DEPTH
     stay residual. *)
let push_down ?catalog q p =
  let split ~members root =
    List.partition (Planner.pushable ~members root) (Planner.conjuncts q)
  in
  let residual rest p =
    match Planner.conjoin rest with None -> p | Some r -> P_restrict (r, p)
  in
  match p with
  | P_define ({ push = None; _ } as a) ->
    let pushed, rest = split ~members:false (Mad.Mdesc.root a.desc) in
    let push = Planner.conjoin pushed in
    let rest =
      match (catalog, rest) with
      | Some c, _ :: _ :: _ ->
        Prima.Stats.order (c ()) ~root_pred:push a.derive rest
      | _ -> rest
    in
    residual rest (P_define { a with push })
  | P_recursive (d, None) ->
    let pushed, rest = split ~members:true d.R.root_type in
    residual rest (P_recursive (d, Planner.conjoin pushed))
  | P_cycle (d, None) ->
    let pushed, rest = split ~members:true d.R.c_root in
    residual rest (P_cycle (d, Planner.conjoin pushed))
  | p -> P_restrict (q, p)

(* Π over a scan: derive only the ancestor closure of the projected
   and the residually qualified nodes. *)
let prune_under items p =
  let prune a needed =
    match Planner.prune a.desc ~needed with
    | Some derive -> { a with derive }
    | None -> a
  in
  let needed = List.map fst items in
  match p with
  | P_define a -> P_define (prune a needed)
  | P_restrict (q, P_define a) ->
    let residual = Mad.Qual.Sset.elements (Mad.Qual.nodes q) in
    P_restrict (q, P_define (prune a (residual @ needed)))
  | p -> p

let rec optimize ?catalog plan =
  let opt = optimize ?catalog in
  match plan with
  | P_restrict (q, p) -> push_down ?catalog q (opt p)
  | P_project (items, p) -> P_project (items, prune_under items (opt p))
  | P_union (a, b) -> P_union (opt a, opt b)
  | P_diff (a, b) -> P_diff (opt a, opt b)
  | P_intersect (a, b) -> P_intersect (opt a, opt b)
  | P_product (a, b) -> P_product (opt a, opt b)
  | P_define _ | P_ref _ | P_recursive _ | P_cycle _ -> plan

(* ------------------------------------------------------------------ *)
(* Printing and identity                                                *)

let items_to_string items =
  String.concat ","
    (List.map
       (fun (n, attrs) ->
         match attrs with
         | None -> n
         | Some l -> n ^ "(" ^ String.concat "," l ^ ")")
       items)

(** The plan as indented lines.  [skeleton] strips literals and the
    generated α names (plan identity); [detail] adds lines under each
    α (estimates, actuals). *)
let lines ?(skeleton = false) ?(detail = fun _ -> []) plan =
  let qual q =
    Mad.Qual.to_string (if skeleton then Mad.Qual.strip_consts q else q)
  in
  let out = ref [] in
  let add ind s = out := (String.make (2 * ind) ' ' ^ s) :: !out in
  let scan ind root =
    Option.iter (fun q ->
        add ind (Printf.sprintf "scan %s where %s" root (qual q)))
  in
  let rec go ind = function
    | P_define a ->
      add ind
        (Printf.sprintf "α%s(%s)"
           (if skeleton then "" else "[" ^ a.name ^ "]")
           (Mad.Mdesc.to_string a.desc));
      scan (ind + 1) (Mad.Mdesc.root a.desc) a.push;
      if a.derive != a.desc then
        add (ind + 1) ("derive " ^ Mad.Mdesc.to_string a.derive);
      List.iter (add (ind + 1)) (detail a)
    | P_ref n -> add ind ("ref(" ^ n ^ ")")
    | P_restrict (q, p) ->
      add ind ("Σ[" ^ qual q ^ "]");
      go (ind + 1) p
    | P_project (items, p) ->
      add ind ("Π[" ^ items_to_string items ^ "]");
      go (ind + 1) p
    | P_union (a, b) -> binary ind "Ω" a b
    | P_diff (a, b) -> binary ind "Δ" a b
    | P_intersect (a, b) -> binary ind "Ψ" a b
    | P_product (a, b) -> binary ind "X" a b
    | P_recursive (d, push) ->
      add ind (Format.asprintf "ρ[%a]" R.pp_desc d);
      scan (ind + 1) d.R.root_type push
    | P_cycle (d, push) ->
      add ind (Format.asprintf "ρ°[%a]" R.pp_cycle_desc d);
      scan (ind + 1) d.R.c_root push
  and binary ind op a b =
    add ind op;
    go (ind + 1) a;
    go (ind + 1) b
  in
  go 0 plan;
  List.rev !out

let pp_plan ?detail ppf plan =
  Fmt.(list ~sep:(any "@\n") string) ppf (lines ?detail plan)

let plan_hash plan =
  Planner.hash_string (String.concat "\n" (lines ~skeleton:true plan))

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)

(* the root atoms that satisfy a pushed qualification *)
let scan iface atype q =
  List.map
    (fun (a : Atom.t) -> a.id)
    (Prima.Atom_interface.scan ~pred:q iface atype)

(** Execute a plan.  [stats] feeds the derivation counters; [obs]
    gives every algebra operator its span; [observe] wraps each α's
    scan and derivation (EXPLAIN ANALYZE's per-node actuals).  Σ and
    the set operators dispatch on the operand kind: molecule types go
    through the molecule algebra, recursive types through the
    recursive extension; mixing the two kinds is an error. *)
let rec run ?(obs = Mad_obs.Obs.noop) ?stats ?observe db env plan : result =
  let run = run ~obs ?stats ?observe db env in
  let molecule p =
    match run p with
    | Molecules mt -> mt
    | Recursive _ | Cycles _ ->
      Err.failf "recursive molecule types cannot feed this operator"
  in
  let setop p1 p2 ~mol ~rec_ =
    match (run p1, run p2) with
    | Molecules a, Molecules b -> Molecules (mol a b)
    | Recursive a, Recursive b ->
      Recursive (rec_ ~name:(fresh_query_name ()) a b)
    | (Molecules _ | Recursive _ | Cycles _), _ ->
      Err.failf "set operators cannot mix result kinds"
  in
  match plan with
  | P_define a ->
    let define iface =
      let roots =
        Option.map
          (fun q ->
            (* the naive plan's Σ reports these errors even when no
               root qualifies *)
            Mad.Qual.typecheck ~allowed:(Mad.Mdesc.nodes a.desc) db q;
            scan iface (Mad.Mdesc.root a.desc) q)
          a.push
      in
      Mad.Molecule_algebra.define ~obs ?stats ?roots db ~name:a.name a.derive
    in
    Molecules
      (match observe with
       | None -> define (Prima.Atom_interface.v db)
       | Some f -> f a define)
  | P_ref name -> begin
    match env name with
    | Some mt -> Molecules mt
    | None -> Err.failf "unknown molecule type %s" name
  end
  | P_restrict (q, p) -> begin
    match run p with
    | Molecules mt -> Molecules (Mad.Molecule_algebra.restrict ~obs db q mt)
    | Recursive t -> Recursive (R.restrict db q t ~name:(t.R.name ^ "_sigma"))
    | Cycles c -> Cycles (R.cycle_restrict db q c ~name:(c.R.cname ^ "_sigma"))
  end
  | P_project (items, p) ->
    Molecules (Mad.Molecule_algebra.project ~obs db items (molecule p))
  | P_union (a, b) ->
    setop a b ~mol:(Mad.Molecule_algebra.union ~obs ?name:None) ~rec_:R.union
  | P_diff (a, b) ->
    setop a b ~mol:(Mad.Molecule_algebra.diff ~obs ?name:None) ~rec_:R.diff
  | P_intersect (a, b) ->
    setop a b
      ~mol:(Mad.Molecule_algebra.intersect ~obs ?name:None)
      ~rec_:R.intersect
  | P_product (a, b) ->
    Molecules
      (Mad.Molecule_algebra.product ~obs ?stats db (molecule a) (molecule b))
  | P_recursive (d, push) ->
    let roots =
      Option.map (scan (Prima.Atom_interface.v db) d.R.root_type) push
    in
    Recursive (R.define ?stats ?roots db ~name:(fresh_query_name ()) d)
  | P_cycle (d, push) ->
    let roots =
      Option.map (scan (Prima.Atom_interface.v db) d.R.c_root) push
    in
    Cycles (R.cycle_define ?roots db ~name:(fresh_query_name ()) d)
