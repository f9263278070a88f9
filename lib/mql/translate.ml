(** Translation of MOL statements into the molecule algebra (ch. 4:
    "this algebra is used as a sound basis to express the semantics of
    the high level query language MOL").

    The evaluator never interprets the AST against the data directly:
    a query is compiled to molecule-algebra operations (α for the FROM
    clause, Σ for WHERE, Π for SELECT, Ω/Δ/Ψ for the set combinators)
    and those are executed. *)

open Mad_store
module R = Mad_recursive.Recursive

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

(** The algebra expression a query compiles to (surfaced by EXPLAIN). *)
type plan =
  | P_define of string * Mad.Mdesc.t  (** α *)
  | P_ref of string
  | P_restrict of Mad.Qual.t * plan  (** Σ *)
  | P_project of (string * string list option) list * plan  (** Π *)
  | P_union of plan * plan  (** Ω *)
  | P_diff of plan * plan  (** Δ *)
  | P_intersect of plan * plan  (** Ψ *)
  | P_product of plan * plan  (** X *)
  | P_recursive of R.desc * Mad.Qual.t option
  | P_cycle of R.cycle_desc * Mad.Qual.t option

let rec pp_plan ppf = function
  | P_define (n, d) -> Fmt.pf ppf "α[%s](%a)" n Mad.Mdesc.pp d
  | P_ref n -> Fmt.pf ppf "ref(%s)" n
  | P_restrict (q, p) -> Fmt.pf ppf "Σ[%a](%a)" Mad.Qual.pp q pp_plan p
  | P_project (items, p) ->
    Fmt.pf ppf "Π[%a](%a)"
      Fmt.(
        list ~sep:(any ",") (fun ppf (n, attrs) ->
            match attrs with
            | None -> Fmt.string ppf n
            | Some l -> Fmt.pf ppf "%s(%s)" n (String.concat "," l)))
      items pp_plan p
  | P_union (a, b) -> Fmt.pf ppf "Ω(%a, %a)" pp_plan a pp_plan b
  | P_diff (a, b) -> Fmt.pf ppf "Δ(%a, %a)" pp_plan a pp_plan b
  | P_intersect (a, b) -> Fmt.pf ppf "Ψ(%a, %a)" pp_plan a pp_plan b
  | P_product (a, b) -> Fmt.pf ppf "X(%a, %a)" pp_plan a pp_plan b
  | P_recursive (d, q) ->
    Fmt.pf ppf "ρ[%a]%a" R.pp_desc d
      Fmt.(option (fun ppf q -> Fmt.pf ppf "[%a]" Mad.Qual.pp q))
      q
  | P_cycle (d, q) ->
    Fmt.pf ppf "ρ°[%a]%a" R.pp_cycle_desc d
      Fmt.(option (fun ppf q -> Fmt.pf ppf "[%a]" Mad.Qual.pp q))
      q

let fresh_query_name =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "q%d" !k

(** Compile a query to a plan.  Recursive FROM items compile to the
    recursive extension's operator; they do not combine with Π or the
    set operators (Schöning's extension keeps them first-class but our
    scope restricts them to SELECT ALL). *)
let rec compile db (env : string -> Mad.Molecule_type.t option) (q : Ast.qexpr) : plan =
  match q with
  | Ast.Q { select; from; where } -> begin
    match from with
    | Ast.From_recursive { root; link; view; depth; with_structure } ->
      if select <> Ast.All then
        Err.failf "recursive molecule types support SELECT ALL only";
      let component = Option.map (resolve_structure db) with_structure in
      P_recursive
        (R.v db ~root_type:root ~link ~view ?max_depth:depth ?component (),
         where)
    | Ast.From_cycle { root; steps; depth } ->
      if select <> Ast.All then
        Err.failf "cycle recursion supports SELECT ALL only";
      let steps =
        List.map (fun (l, bwd) -> (l, if bwd then `Bwd else `Fwd)) steps
      in
      P_cycle (R.cycle db ~root_type:root ~steps ?max_depth:depth (), where)
    | (Ast.From_named_def _ | Ast.From_anon _ | Ast.From_ref _
      | Ast.From_product _) as from ->
      wrap select where (compile_from db env from)
  end
  | Ast.Union (a, b) -> P_union (compile db env a, compile db env b)
  | Ast.Diff (a, b) -> P_diff (compile db env a, compile db env b)
  | Ast.Intersect (a, b) -> P_intersect (compile db env a, compile db env b)

and compile_from db env = function
  | Ast.From_named_def (name, s) -> P_define (name, resolve_structure db s)
  | Ast.From_anon s -> P_define (fresh_query_name (), resolve_structure db s)
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

(** Execute a plan.  [stats] feeds the PRIMA access counters; [obs]
    gives every algebra operator its span.  The set operators dispatch
    on the operand kind: two molecule types go through Ω/Δ/Ψ, two
    recursive types through the recursive extension's set operators;
    mixing the two kinds is an error. *)
let rec run ?(obs = Mad_obs.Obs.noop) ?stats db env plan : result =
  let molecule p =
    match run ~obs ?stats db env p with
    | Molecules mt -> mt
    | Recursive _ | Cycles _ ->
      Err.failf "recursive molecule types cannot feed this operator"
  in
  let setop p1 p2 ~mol ~rec_ =
    match (run ~obs ?stats db env p1, run ~obs ?stats db env p2) with
    | Molecules a, Molecules b -> Molecules (mol a b)
    | Recursive a, Recursive b -> Recursive (rec_ a b)
    | (Molecules _ | Recursive _ | Cycles _), _ ->
      Err.failf "set operators cannot mix result kinds"
  in
  match plan with
  | P_define (name, desc) ->
    Molecules (Mad.Molecule_algebra.define ~obs ?stats db ~name desc)
  | P_ref name -> begin
    match env name with
    | Some mt -> Molecules mt
    | None -> Err.failf "unknown molecule type %s" name
  end
  | P_restrict (q, p) ->
    Molecules (Mad.Molecule_algebra.restrict ~obs db q (molecule p))
  | P_project (items, p) ->
    Molecules (Mad.Molecule_algebra.project ~obs db items (molecule p))
  | P_union (a, b) ->
    setop a b
      ~mol:(fun x y -> Mad.Molecule_algebra.union ~obs x y)
      ~rec_:(fun x y -> R.union ~name:(fresh_query_name ()) x y)
  | P_diff (a, b) ->
    setop a b
      ~mol:(fun x y -> Mad.Molecule_algebra.diff ~obs x y)
      ~rec_:(fun x y -> R.diff ~name:(fresh_query_name ()) x y)
  | P_intersect (a, b) ->
    setop a b
      ~mol:(fun x y -> Mad.Molecule_algebra.intersect ~obs x y)
      ~rec_:(fun x y -> R.intersect ~name:(fresh_query_name ()) x y)
  | P_product (a, b) ->
    Molecules
      (Mad.Molecule_algebra.product ~obs ?stats db (molecule a) (molecule b))
  | P_recursive (d, where) -> begin
    let t = R.define ?stats db ~name:(fresh_query_name ()) d in
    match where with
    | None -> Recursive t
    | Some q -> Recursive (R.restrict db q t ~name:(t.R.name ^ "_sigma"))
  end
  | P_cycle (d, where) -> begin
    let t = R.cycle_define db ~name:(fresh_query_name ()) d in
    match where with
    | None -> Cycles t
    | Some q -> Cycles (R.cycle_restrict db q t ~name:(t.R.cname ^ "_sigma"))
  end
