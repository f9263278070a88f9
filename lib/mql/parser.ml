(** Recursive-descent parser for MOL (grammar in {!Ast}). *)

open Mad_store
module L = Lexer

type state = { toks : L.token array; mutable pos : int }

let peek st = st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

let fail_at st msg =
  Err.failf "MOL parse error at token %d (%s): %s" st.pos
    (Format.asprintf "%a" L.pp_token (peek st))
    msg

let expect st tok msg =
  if peek st = tok then advance st else fail_at st msg

let accept st tok = if peek st = tok then (advance st; true) else false

let ident st =
  match next st with
  | L.IDENT s -> s
  | _ ->
    st.pos <- st.pos - 1;
    fail_at st "expected identifier"

(* an attribute name after '.': DEPTH, a keyword elsewhere, names the
   recursive types' depth pseudo-attribute here *)
let attr_name st = if accept st (L.KW "DEPTH") then "DEPTH" else ident st

let atid st =
  match next st with
  | L.ATID i -> i
  | _ ->
    st.pos <- st.pos - 1;
    fail_at st "expected atom identity (@<n>)"

(* A bare link-type name possibly containing dashes ([city-point]),
   which the lexer splits at the structure separator; re-join greedily.
   Only used where the following token disambiguates (ATID, view or
   depth keywords, end of statement). *)
let link_name st =
  let first =
    match next st with
    | L.IDENT l -> l
    | L.LBRACKET_LINK l -> l
    | _ ->
      st.pos <- st.pos - 1;
      fail_at st "expected link-type name"
  in
  let rec go acc =
    if peek st = L.DASH then begin
      advance st;
      go (acc ^ "-" ^ ident st)
    end
    else acc
  in
  go first


(* ------------------------------------------------------------------ *)
(* Structures                                                           *)

(* Accumulate edges into a structure under construction. *)
type sbuild = { mutable nodes : string list; mutable edges : (Ast.link_ref * string * string) list }

let snode b n = if not (List.mem n b.nodes) then b.nodes <- b.nodes @ [ n ]

let sedge b l f t =
  snode b f;
  snode b t;
  if not (List.exists (fun e -> e = (l, f, t)) b.edges) then
    b.edges <- b.edges @ [ (l, f, t) ]

(* path := node step*  ; step := ('-' | '-[l]-') seg
   seg := node | '(' branch (',' branch)* ')'
   branch := ('[l]-')? path        -- leading link spec inside parens *)
let rec parse_path st b : string =
  let head = ident st in
  snode b head;
  parse_steps st b head;
  head

and parse_steps st b from =
  match peek st with
  | L.DASH ->
    advance st;
    parse_seg st b from Ast.Auto
  | L.LBRACKET_LINK l ->
    advance st;
    parse_seg st b from (Ast.Via l)
  | _ -> ()

and parse_seg st b from link =
  match peek st with
  | L.LPAREN ->
    advance st;
    let rec branches () =
      (* optional leading [l]- overrides the outer step's link ref *)
      let blink =
        match peek st with
        | L.LBRACKET_LINK l ->
          advance st;
          Ast.Via l
        | _ -> link
      in
      let head = ident st in
      sedge b blink from head;
      parse_steps st b head;
      if accept st L.COMMA then branches ()
    in
    branches ();
    expect st L.RPAREN "expected ')' closing structure branches"
  | _ ->
    let to_node = ident st in
    sedge b link from to_node;
    parse_steps st b to_node

let parse_structure st : Ast.structure =
  let b = { nodes = []; edges = [] } in
  ignore (parse_path st b);
  { Ast.s_nodes = b.nodes; s_edges = b.edges }

(* ------------------------------------------------------------------ *)
(* Predicates                                                           *)

let value_of_token st =
  match next st with
  | L.INT i -> Value.Int i
  | L.FLOAT f -> Value.Float f
  | L.STRING s -> Value.String s
  | L.KW "TRUE" -> Value.Bool true
  | L.KW "FALSE" -> Value.Bool false
  | _ ->
    st.pos <- st.pos - 1;
    fail_at st "expected literal"

let rec parse_expr st : Mad.Qual.expr =
  let lhs = parse_term st in
  let rec loop lhs =
    match peek st with
    | L.PLUS ->
      advance st;
      loop (Mad.Qual.Add (lhs, parse_term st))
    | L.DASH ->
      advance st;
      loop (Mad.Qual.Sub (lhs, parse_term st))
    | _ -> lhs
  in
  loop lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec loop lhs =
    match peek st with
    | L.STAR ->
      advance st;
      loop (Mad.Qual.Mul (lhs, parse_factor st))
    | L.SLASH ->
      advance st;
      loop (Mad.Qual.Div (lhs, parse_factor st))
    | _ -> lhs
  in
  loop lhs

and parse_factor st =
  match peek st with
  | L.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st L.RPAREN "expected ')' closing arithmetic";
    e
  | L.KW "COUNT" ->
    advance st;
    expect st L.LPAREN "expected '(' after COUNT";
    let n = ident st in
    expect st L.RPAREN "expected ')' after COUNT node";
    Mad.Qual.Count n
  | L.KW (("SUM" | "MIN" | "MAX" | "AVG") as kw) ->
    advance st;
    expect st L.LPAREN "expected '(' after aggregate";
    let n = ident st in
    expect st L.DOT "expected '.' in aggregate argument";
    let a = attr_name st in
    expect st L.RPAREN "expected ')' after aggregate";
    let agg =
      match kw with
      | "SUM" -> Mad.Qual.Sum
      | "MIN" -> Mad.Qual.Min
      | "MAX" -> Mad.Qual.Max
      | _ -> Mad.Qual.Avg
    in
    Mad.Qual.Agg (agg, n, a)
  | L.IDENT _ ->
    let node = ident st in
    expect st L.DOT "expected '.' in attribute reference";
    let attr = attr_name st in
    Mad.Qual.attr node attr
  | L.INT _ | L.FLOAT _ | L.STRING _ | L.KW "TRUE" | L.KW "FALSE" ->
    Mad.Qual.Const (value_of_token st)
  | _ -> fail_at st "expected expression"

let parse_cmp_op st =
  match next st with
  | L.EQ -> Mad.Qual.Eq
  | L.NE -> Mad.Qual.Ne
  | L.LT -> Mad.Qual.Lt
  | L.LE -> Mad.Qual.Le
  | L.GT -> Mad.Qual.Gt
  | L.GE -> Mad.Qual.Ge
  | _ ->
    st.pos <- st.pos - 1;
    fail_at st "expected comparison operator"

let rec parse_pred st : Mad.Qual.t =
  let lhs = parse_and st in
  if accept st (L.KW "OR") then Mad.Qual.Or (lhs, parse_pred st) else lhs

and parse_and st =
  let lhs = parse_unary st in
  if accept st (L.KW "AND") then Mad.Qual.And (lhs, parse_and st) else lhs

and parse_unary st =
  match peek st with
  | L.KW "NOT" ->
    advance st;
    Mad.Qual.Not (parse_unary st)
  | L.KW "EXISTS" | L.KW "FORALL" ->
    let kw = match next st with L.KW k -> k | _ -> assert false in
    let n = ident st in
    expect st L.LPAREN "expected '(' after quantifier";
    let p = parse_pred st in
    expect st L.RPAREN "expected ')' closing quantifier";
    if String.equal kw "EXISTS" then Mad.Qual.Exists (n, p)
    else Mad.Qual.Forall (n, p)
  | L.KW "TRUE" | L.KW "FALSE" -> begin
    (* TRUE/FALSE may be a proposition or a boolean literal in a
       comparison; decide by lookahead *)
    let saved = st.pos in
    let kw = match next st with L.KW k -> k | _ -> assert false in
    match peek st with
    | L.EQ | L.NE | L.LT | L.LE | L.GT | L.GE ->
      st.pos <- saved;
      parse_comparison st
    | _ -> if String.equal kw "TRUE" then Mad.Qual.True else Mad.Qual.False
  end
  | L.LPAREN -> begin
    (* '(' may open a parenthesized predicate or an arithmetic group;
       try predicate first, backtrack on failure *)
    let saved = st.pos in
    match
      advance st;
      let p = parse_pred st in
      expect st L.RPAREN "expected ')' closing predicate";
      p
    with
    | p -> p
    | exception Err.Mad_error _ ->
      st.pos <- saved;
      parse_comparison st
  end
  | _ -> parse_comparison st

and parse_comparison st =
  let lhs = parse_expr st in
  let op = parse_cmp_op st in
  let rhs = parse_expr st in
  Mad.Qual.Cmp (op, lhs, rhs)

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)

let parse_select_list st =
  if accept st (L.KW "ALL") then Ast.All
  else
    let rec items acc =
      let n = ident st in
      let attrs =
        if accept st L.LPAREN then begin
          let rec attrs acc =
            let a = ident st in
            if accept st L.COMMA then attrs (a :: acc) else List.rev (a :: acc)
          in
          let l = attrs [] in
          expect st L.RPAREN "expected ')' closing attribute list";
          Some l
        end
        else None
      in
      let acc = (n, attrs) :: acc in
      if accept st L.COMMA then items acc else List.rev acc
    in
    Ast.Items (items [])

let parse_from st env_has =
  (* cases: name '(' structure ')'   named definition
            node RECURSIVE ...       recursive
            name                     reference (if defined and no '-')
            structure                anonymous *)
  let saved = st.pos in
  let first = ident st in
  match peek st with
  | L.LPAREN ->
    advance st;
    let s = parse_structure st in
    expect st L.RPAREN "expected ')' closing molecule-type definition";
    Ast.From_named_def (first, s)
  | L.KW "RECURSIVE"
    when st.pos + 2 < Array.length st.toks && st.toks.(st.pos + 2) = L.LPAREN
    ->
    (* cycle recursion: RECURSIVE BY (step, ~step, ...) *)
    advance st;
    expect st (L.KW "BY") "expected BY after RECURSIVE";
    expect st L.LPAREN "expected '(' opening cycle steps";
    let rec steps acc =
      let bwd = accept st L.TILDE in
      let l = link_name st in
      let acc = (l, bwd) :: acc in
      if accept st L.COMMA then steps acc else List.rev acc
    in
    let s = steps [] in
    expect st L.RPAREN "expected ')' closing cycle steps";
    let depth =
      if accept st (L.KW "DEPTH") then
        match next st with
        | L.INT d -> Some d
        | _ ->
          st.pos <- st.pos - 1;
          fail_at st "expected integer after DEPTH"
      else None
    in
    Ast.From_cycle { root = first; steps = s; depth }
  | L.KW "RECURSIVE" ->
    advance st;
    expect st (L.KW "BY") "expected BY after RECURSIVE";
    let link = link_name st in
    let view =
      if accept st (L.KW "SUPER") then Mad_recursive.Recursive.Super
      else if accept st (L.KW "SUB") then Mad_recursive.Recursive.Sub
      else Mad_recursive.Recursive.Sub
    in
    let depth =
      if accept st (L.KW "DEPTH") then
        match next st with
        | L.INT d -> Some d
        | _ ->
          st.pos <- st.pos - 1;
          fail_at st "expected integer after DEPTH"
      else None
    in
    let with_structure =
      if accept st (L.KW "WITH") then Some (parse_structure st) else None
    in
    Ast.From_recursive { root = first; link; view; depth; with_structure }
  | L.DASH | L.LBRACKET_LINK _ ->
    st.pos <- saved;
    Ast.From_anon (parse_structure st)
  | _ ->
    if env_has first then Ast.From_ref first
    else Ast.From_anon { Ast.s_nodes = [ first ]; s_edges = [] }

let parse_query st env_has =
  expect st (L.KW "SELECT") "expected SELECT";
  let select = parse_select_list st in
  expect st (L.KW "FROM") "expected FROM";
  let from = parse_from st env_has in
  (* FROM a, b (, c ...) is the molecule-type product X *)
  let rec products from =
    if accept st L.COMMA then
      products (Ast.From_product (from, parse_from st env_has))
    else from
  in
  let from = products from in
  let where =
    if accept st (L.KW "WHERE") then Some (parse_pred st) else None
  in
  { Ast.select; from; where }

let parse_qexpr st env_has =
  let lhs = Ast.Q (parse_query st env_has) in
  let rec loop lhs =
    if accept st (L.KW "UNION") then
      loop (Ast.Union (lhs, Ast.Q (parse_query st env_has)))
    else if accept st (L.KW "DIFF") then
      loop (Ast.Diff (lhs, Ast.Q (parse_query st env_has)))
    else if accept st (L.KW "INTERSECT") then
      loop (Ast.Intersect (lhs, Ast.Q (parse_query st env_has)))
    else lhs
  in
  loop lhs

let parse_insert st =
  ignore (accept st (L.KW "INTO"));
  let atype = ident st in
  expect st (L.KW "VALUES") "expected VALUES";
  expect st L.LPAREN "expected '(' before values";
  let rec values acc =
    let v = value_of_token st in
    if accept st L.COMMA then values (v :: acc) else List.rev (v :: acc)
  in
  let vs = if accept st L.RPAREN then [] else begin
    let vs = values [] in
    expect st L.RPAREN "expected ')' after values";
    vs
  end
  in
  let rec links acc =
    if accept st (L.KW "LINK") then begin
      let lt = link_name st in
      let id = atid st in
      links ((lt, id) :: acc)
    end
    else List.rev acc
  in
  Ast.Insert { atype; values = vs; links = links [] }

let parse_link_stmt st constructor =
  let lt = link_name st in
  let left = atid st in
  let right = atid st in
  constructor lt left right

let parse_plain_stmt st env_has =
  let stmt =
    if accept st (L.KW "DEFINE") then begin
      expect st (L.KW "MOLECULE") "expected MOLECULE after DEFINE";
      let name = ident st in
      expect st (L.KW "AS") "expected AS";
      let s = parse_structure st in
      Ast.Define (name, s)
    end
    else if accept st (L.KW "INSERT") then parse_insert st
    else if accept st (L.KW "LINK") then
      parse_link_stmt st (fun lt left right -> Ast.Link { lt; left; right })
    else if accept st (L.KW "UNLINK") then
      parse_link_stmt st (fun lt left right -> Ast.Unlink { lt; left; right })
    else if accept st (L.KW "DELETE") then begin
      expect st (L.KW "FROM") "expected FROM after DELETE";
      let from = parse_from st env_has in
      let where =
        if accept st (L.KW "WHERE") then Some (parse_pred st) else None
      in
      let detach = accept st (L.KW "DETACH") in
      Ast.Delete { from; where; detach }
    end
    else if accept st (L.KW "MODIFY") then begin
      let node = ident st in
      expect st L.DOT "expected '.' in MODIFY target";
      let attr = attr_name st in
      expect st L.EQ "expected '=' in MODIFY";
      let value = value_of_token st in
      expect st (L.KW "FROM") "expected FROM in MODIFY";
      let from = parse_from st env_has in
      let where =
        if accept st (L.KW "WHERE") then Some (parse_pred st) else None
      in
      Ast.Modify { node; attr; value; from; where }
    end
    else Ast.Query (parse_qexpr st env_has)
  in
  stmt

let parse_stmt st env_has =
  let stmt =
    if accept st (L.KW "EXPLAIN") then
      let analyze = accept st (L.KW "ANALYZE") in
      Ast.Explain { analyze; stmt = parse_plain_stmt st env_has }
    else parse_plain_stmt st env_has
  in
  ignore (accept st L.SEMI);
  if peek st <> L.EOF then fail_at st "trailing input after statement";
  stmt

(** Parse one MOL statement.  [env_has] tells the parser which
    molecule-type names are already defined (used to read a bare
    identifier in FROM as a reference rather than a one-node
    structure). *)
let parse ?(env_has = fun _ -> false) src =
  let toks = Array.of_list (Lexer.tokenize src) in
  parse_stmt { toks; pos = 0 } env_has
