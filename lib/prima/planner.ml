(** The molecule-processing component's rewrite rules.

    The naive evaluation of [Σ[q](α[n,G](C))] derives *every* molecule
    and then filters — the letter of Def. 10.  Two algebraic rewrites
    are sound by the molecule algebra (ch. 5: "we can conveniently
    exploit the algebra to considerably simplify and enhance query
    transformation and query optimization"):

    - {b root-restriction pushdown}: conjuncts that reference only the
      root node are evaluated during the root scan, so non-qualifying
      molecules are never derived.  Sound because a molecule contains
      exactly one root atom and derivation is per-root.
    - {b structure pruning}: nodes needed neither by the residual
      qualification nor by the projection are removed from the
      derivation structure, together with their (now useless) subtrees
      — precisely the ancestor-closure of the needed nodes is kept.
      Sound because a node's component depends only on its ancestors'
      components. *)

module Sset = Mad.Qual.Sset

let rec conjuncts = function
  | Mad.Qual.And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let conjoin = function
  | [] -> None
  | p :: rest -> Some (List.fold_left (fun a b -> Mad.Qual.And (a, b)) p rest)

(* A conjunct may run in the root scan only when its molecule semantics
   coincides with atom semantics on the root atom.  Qualification
   binds the root node to the root atom, so a quantifier-free formula
   over the root node alone qualifies — for α, whose root component is
   exactly the root atom.  A recursive or cycle type's root component
   is all of its members: COUNT and the aggregates read that whole
   component, and the DEPTH pseudo-attribute is no atom attribute, so
   there only plain attribute comparisons move. *)
let pushable ~members root p =
  let rec expr_ok = function
    | Mad.Qual.Const _ -> true
    | Mad.Qual.Attr { attr; _ } -> not (members && String.equal attr "DEPTH")
    | Mad.Qual.Count _ | Mad.Qual.Agg _ -> not members
    | Mad.Qual.Add (a, b) | Mad.Qual.Sub (a, b) | Mad.Qual.Mul (a, b)
    | Mad.Qual.Div (a, b) ->
      expr_ok a && expr_ok b
  in
  let rec ok = function
    | Mad.Qual.True | Mad.Qual.False -> true
    | Mad.Qual.Cmp (_, a, b) -> expr_ok a && expr_ok b
    | Mad.Qual.And (a, b) | Mad.Qual.Or (a, b) -> ok a && ok b
    | Mad.Qual.Not a -> ok a
    | Mad.Qual.Exists _ | Mad.Qual.Forall _ -> false
  in
  Sset.subset (Mad.Qual.nodes p) (Sset.singleton root) && ok p

(* ancestor closure of [needed] in the structure DAG *)
let ancestor_closure desc needed =
  let rec grow set =
    let set' =
      List.fold_left
        (fun acc (e : Mad.Mdesc.edge) ->
          if Sset.mem e.to_at acc then Sset.add e.from_at acc else acc)
        set (Mad.Mdesc.edges desc)
    in
    if Sset.equal set set' then set else grow set'
  in
  grow needed

let prune desc ~needed =
  let nodes = Mad.Mdesc.nodes desc in
  let needed = Sset.of_list (Mad.Mdesc.root desc :: needed) in
  (* an unknown node is the operators' error to report, unpruned *)
  if not (Sset.subset needed (Sset.of_list nodes)) then None
  else
    let keep = ancestor_closure desc needed in
    if Sset.cardinal keep = List.length nodes then None
    else Some (Mad.Mdesc.induced desc (Sset.elements keep))

(* FNV-1a (same scheme as Mad_mql.Fingerprint); wraps modulo 2^63,
   masked non-negative *)
let fnv_basis = 0x03345778_9ABCDEF1
let fnv_prime = 0x100000001b3

let hash_string s =
  let h = ref fnv_basis in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h land max_int
