(** Plain-text persistence of databases (.mad files).

    Line-oriented, human-readable and diff-friendly:
    {v
    # comment
    atomtype state name:STRING hectare:INT
    linktype state-area state area 1:1
    atom state @1 'GO' 800
    link state-area @1 @11
    v}
    Atom identities are preserved across dump/load (links reference
    them).  Strings are single-quoted with [''] escaping and may span
    lines; lists are [[v;v;...]]; identities are [@n].

    The same word syntax, record reader and atomic writer serve every
    file MAD writes: snapshots, dumps, write-ahead-log payloads and the
    advisory side files ([stats.mad], [digest.mad], [timeline.mad]). *)

(* --- the word codec ----------------------------------------------- *)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let unquote s =
  let n = String.length s in
  if n < 2 || s.[0] <> '\'' || s.[n - 1] <> '\'' then
    Err.failf "bad string %s" s;
  let buf = Buffer.create n in
  let rec go i =
    if i < n - 1 then begin
      Buffer.add_char buf s.[i];
      go (if s.[i] = '\'' then i + 2 else i + 1)
    end
  in
  go 1;
  Buffer.contents buf

(* OCaml's own spelling keeps 12 significant digits; past that, 17 are
   needed to read the same float back.  A trailing "." keeps an
   integral float from reading back as an INT. *)
let float_to_string f =
  let s = string_of_float f in
  if Float.equal (float_of_string s) f then s
  else
    let s = Printf.sprintf "%.17g" f in
    if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s then
      s ^ "."
    else s

let rec value_to_string = function
  | Value.Int i -> string_of_int i
  | Value.Float f -> float_to_string f
  | Value.Bool b -> string_of_bool b
  | Value.String s -> quote s
  | Value.Id id -> "@" ^ string_of_int id
  | Value.List vs ->
    "[" ^ String.concat ";" (List.map value_to_string vs) ^ "]"

let rec domain_to_string = function
  | Domain.Int -> "INT"
  | Domain.Float -> "FLOAT"
  | Domain.Bool -> "BOOL"
  | Domain.String -> "STRING"
  | Domain.Id_of t -> Printf.sprintf "ID(%s)" t
  | Domain.Enum cs -> Printf.sprintf "ENUM(%s)" (String.concat "," cs)
  | Domain.List_of d -> Printf.sprintf "LIST(%s)" (domain_to_string d)

let card_to_string (l, r) =
  let side = function None -> "n" | Some k -> string_of_int k in
  Printf.sprintf "%s:%s" (side l) (side r)

let dump_to_buffer db buf =
  Buffer.add_string buf "# MAD database dump\n";
  List.iter
    (fun atname ->
      let at = Database.atom_type db atname in
      Buffer.add_string buf "atomtype ";
      Buffer.add_string buf atname;
      List.iter
        (fun (a : Schema.Attr.t) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf a.name;
          Buffer.add_char buf ':';
          Buffer.add_string buf (domain_to_string a.domain))
        at.attrs;
      Buffer.add_char buf '\n')
    (Database.atom_type_names db);
  List.iter
    (fun ltname ->
      let lt = Database.link_type db ltname in
      Buffer.add_string buf
        (Printf.sprintf "linktype %s %s %s %s\n" ltname (fst lt.ends)
           (snd lt.ends) (card_to_string lt.card)))
    (Database.link_type_names db);
  List.iter
    (fun atname ->
      List.iter
        (fun (a : Atom.t) ->
          Buffer.add_string buf (Printf.sprintf "atom %s @%d" atname a.id);
          Array.iter
            (fun v ->
              Buffer.add_char buf ' ';
              Buffer.add_string buf (value_to_string v))
            a.values;
          Buffer.add_char buf '\n')
        (Database.atoms db atname))
    (Database.atom_type_names db);
  List.iter
    (fun ltname ->
      List.iter
        (fun (l, r) ->
          Buffer.add_string buf (Printf.sprintf "link %s @%d @%d\n" ltname l r))
        (Database.links db ltname))
    (Database.link_type_names db)

let dump db =
  let buf = Buffer.create 4096 in
  dump_to_buffer db buf;
  Buffer.contents buf

(* write [text] to [path] atomically: temp file in the same directory,
   fsync, rename over the target *)
let write_atomically path text =
  let tmp = path ^ ".tmp" in
  try
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let b = Bytes.of_string text in
        let n = Unix.write fd b 0 (Bytes.length b) in
        if n <> Bytes.length b then
          Err.failf "%s: short write (%d of %d bytes)" tmp n (Bytes.length b);
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | Unix.Unix_error (e, _, _) ->
    Err.failf "%s: cannot write: %s" path (Unix.error_message e)
  | Sys_error msg -> Err.failf "%s: cannot write: %s" path msg

let dump_file db path = write_atomically path (dump db)

(* --- reading -------------------------------------------------------- *)

(* The one tokenizer.  Words split at blanks outside quotes and lists;
   a newline outside them ends the record, so a string may span lines.
   A line that starts a record with [#] is a comment.  [f] sees each
   non-empty record with the line it starts on. *)
let scan line text f =
  let n = String.length text in
  let buf = Buffer.create 64 in
  let words = ref [] in
  let line = ref line and start = ref line in
  let quoted = ref false and depth = ref 0 in
  let word () =
    if Buffer.length buf > 0 then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf
    end
  in
  let record () =
    word ();
    match !words with
    | [] -> ()
    | ws ->
      words := [];
      f !start (List.rev ws)
  in
  let i = ref 0 in
  while !i < n do
    let c = String.unsafe_get text !i in
    (* a doubled quote toggles twice: it stays inside the string *)
    if !quoted || !depth > 0 || c = '\'' then begin
      if c = '\'' then quoted := not !quoted
      else if not !quoted then
        if c = '[' then incr depth else if c = ']' then decr depth;
      Buffer.add_char buf c
    end
    else begin
      match c with
      | ' ' | '\t' | '\r' -> word ()
      | '\n' -> record ()
      | '#' when Buffer.length buf = 0 && List.is_empty !words ->
        (match String.index_from_opt text !i '\n' with
         | Some j -> i := j - 1
         | None -> i := n)
      | '[' ->
        depth := 1;
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf c
    end;
    if Buffer.length buf = 1 && List.is_empty !words then start := !line;
    if c = '\n' then incr line;
    incr i
  done;
  if !quoted then Err.failf "line %d: unterminated string" !start;
  if !depth > 0 then Err.failf "line %d: unterminated list" !start;
  record ()

let iter_records text f = scan 1 text f

let split_line line lineno =
  let words = ref [] in
  scan lineno line (fun _ ws -> words := List.rev_append ws !words);
  List.rev !words

(* the items of a list's body: split at [;] outside strings and inner
   lists *)
let list_items s =
  let items = ref [] and from = ref 0 in
  let quoted = ref false and depth = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\'' then quoted := not !quoted
      else if not !quoted then
        if c = '[' then incr depth
        else if c = ']' then decr depth
        else if c = ';' && !depth = 0 then begin
          items := String.sub s !from (i - !from) :: !items;
          from := i + 1
        end)
    s;
  List.rev (String.sub s !from (String.length s - !from) :: !items)

let warn msg = Printf.eprintf "mad: %s\n%!" msg

let read_advisory ~file ~header ~warn text f =
  let first =
    String.trim
      (match String.index_opt text '\n' with
       | Some i -> String.sub text 0 i
       | None -> text)
  in
  if first <> header then begin
    warn (Printf.sprintf "%s: unrecognized header %S, file ignored" file first);
    false
  end
  else begin
    let bad = ref None and skipped = ref 0 in
    let skip msg =
      incr skipped;
      if !bad = None then bad := Some msg
    in
    (try
       iter_records text (fun line words ->
           try f words
           with Err.Mad_error msg | Failure msg ->
             skip (Printf.sprintf "line %d: %s" line msg))
     with Err.Mad_error msg -> skip msg);
    Option.iter
      (fun msg ->
        warn (Printf.sprintf "%s: %s (%d malformed record(s) skipped)" file msg
                !skipped))
      !bad;
    true
  end

let load_advisory ~header path f =
  Sys.file_exists path
  && read_advisory ~file:(Filename.basename path) ~header ~warn
       (In_channel.with_open_bin path In_channel.input_all)
       f

let parse_domain lineno s =
  let rec go s =
    match s with
    | "INT" -> Domain.Int
    | "FLOAT" -> Domain.Float
    | "BOOL" -> Domain.Bool
    | "STRING" -> Domain.String
    | _ ->
      let with_args prefix =
        let pl = String.length prefix in
        if
          String.length s > pl + 1
          && String.sub s 0 pl = prefix
          && s.[pl] = '('
          && s.[String.length s - 1] = ')'
        then Some (String.sub s (pl + 1) (String.length s - pl - 2))
        else None
      in
      (match with_args "ID" with
       | Some t -> Domain.Id_of t
       | None -> begin
         match with_args "ENUM" with
         | Some cs -> Domain.Enum (String.split_on_char ',' cs)
         | None -> begin
           match with_args "LIST" with
           | Some d -> Domain.List_of (go d)
           | None -> Err.failf "line %d: unknown domain %s" lineno s
         end
       end)
  in
  go s

let parse_card lineno s =
  match String.split_on_char ':' s with
  | [ l; r ] ->
    let side = function
      | "n" | "m" -> None
      | k -> (
        match int_of_string_opt k with
        | Some k -> Some k
        | None -> Err.failf "line %d: bad cardinality %s" lineno s)
    in
    (side l, side r)
  | _ -> Err.failf "line %d: bad cardinality %s" lineno s

let parse_id lineno s =
  match
    if String.length s > 1 && s.[0] = '@' then
      int_of_string_opt (String.sub s 1 (String.length s - 1))
    else None
  with
  | Some id -> id
  | None -> Err.failf "line %d: expected @id, got %s" lineno s

let rec parse_value lineno s =
  if s = "" then Err.failf "line %d: empty value" lineno
  else if s.[0] = '\'' then
    try Value.String (unquote s)
    with Err.Mad_error msg -> Err.failf "line %d: %s" lineno msg
  else if s.[0] = '@' then Value.Id (parse_id lineno s)
  else if s.[0] = '[' then begin
    let inner = String.sub s 1 (String.length s - 2) in
    if String.trim inner = "" then Value.List []
    else Value.List (List.map (parse_value lineno) (list_items inner))
  end
  else if s = "true" then Value.Bool true
  else if s = "false" then Value.Bool false
  else
    match int_of_string_opt s with
    | Some i -> Value.Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Value.Float f
      | None -> Err.failf "line %d: unreadable value %s" lineno s)

(** Load a database from dump text.  With [file], parse errors are
    prefixed with the file name, so that multi-file recovery (snapshot
    plus write-ahead log) can say {e which} file is damaged. *)
let load ?file text =
  let in_file f = try f () with
    | Err.Mad_error msg ->
      (match file with
       | None -> raise (Err.Mad_error msg)
       | Some name -> Err.failf "%s: %s" name msg)
  in
  in_file @@ fun () ->
  let db = Database.create () in
  iter_records text (fun lineno words ->
      match words with
      | "atomtype" :: name :: attrs ->
        let attrs =
          List.map
            (fun spec ->
              match String.index_opt spec ':' with
              | Some i ->
                Schema.Attr.v
                  (String.sub spec 0 i)
                  (parse_domain lineno
                     (String.sub spec (i + 1) (String.length spec - i - 1)))
              | None -> Err.failf "line %d: bad attribute spec %s" lineno spec)
            attrs
        in
        ignore (Database.declare_atom_type db name attrs)
      | [ "linktype"; name; e1; e2; card ] ->
        ignore
          (Database.declare_link_type db
             ~card:(parse_card lineno card)
             name (e1, e2))
      | "atom" :: atype :: id :: values ->
        ignore
          (Database.insert_atom_exact db ~atype ~id:(parse_id lineno id)
             (List.map (parse_value lineno) values))
      | [ "link"; lt; l; r ] ->
        Database.add_link db lt ~left:(parse_id lineno l)
          ~right:(parse_id lineno r)
      | word :: _ -> Err.failf "line %d: unknown directive %s" lineno word
      | [] -> ());
  db

let load_file path =
  load ~file:(Filename.basename path)
    (In_channel.with_open_bin path In_channel.input_all)
