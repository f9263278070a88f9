(* The two correctness oracles.

   Answers: a seeded sample of distinct read statements is evaluated
   in-process ([Session.run_to_string] on a fresh load of the same
   dump) before the server starts; each served reply must then match
   byte for byte, except for the generated name of the result type
   (a process-wide counter: it depends on how many statements the
   process ran before).

   Durability: after a kill -9 and a restart on the same --data
   directory, every acknowledged INSERT must exist and every
   acknowledged MODIFY must hold its last value. *)

module Client = Mad_serve.Client

let find_sub s sub =
  let k = String.length sub and n = String.length s in
  let rec go i =
    if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1)
  in
  go 0

(* "molecule type q1_sigma_17 (3 molecules)" -> "molecule type * (3 molecules)" *)
let mask_type_name line =
  let key = "molecule type " in
  let n = String.length line in
  match find_sub line key with
  | None -> line
  | Some i ->
    let start = i + String.length key in
    let stop = ref start in
    while !stop < n && line.[!stop] <> ' ' && line.[!stop] <> ':' do
      incr stop
    done;
    String.sub line 0 start ^ "*" ^ String.sub line !stop (n - !stop)

let normalize reply =
  String.split_on_char '\n' reply |> List.map mask_type_name |> String.concat "\n"

(* [n] distinct statements drawn from the workload's read stream. *)
let sample kind ~seed ~n =
  let rng = Mix.rng ~seed ~stream:999 in
  let seen = Hashtbl.create n in
  let rec go acc found k =
    if found = n then List.rev acc
    else
      let s = Mix.read kind rng k in
      if Hashtbl.mem seen s.Mix.text then go acc found (k + 1)
      else begin
        Hashtbl.add seen s.Mix.text ();
        go (s :: acc) (found + 1) (k + 1)
      end
  in
  go [] 0 0

(* The expected reply of each statement, computed in-process. *)
let expect ~dump ~defines stmts =
  let session = Mad_mql.Session.create (Mad_store.Serialize.load_file dump) in
  List.iter (fun d -> ignore (Mad_mql.Session.run_to_string session d)) defines;
  List.map
    (fun (s : Mix.stmt) -> (s, normalize (Mad_mql.Session.run_to_string session s.text)))
    stmts

(* Serve every expected statement on [c]; the number of mismatches. *)
let check_answers c expected =
  List.fold_left
    (fun bad ((s : Mix.stmt), want) ->
      match Client.query c s.text with
      | Ok got when String.equal (normalize got) want -> bad
      | Ok _ ->
        prerr_endline ("madbench: answer mismatch for " ^ s.text);
        bad + 1
      | Error m ->
        prerr_endline ("madbench: answer oracle error: " ^ m);
        bad + 1)
    0 expected

(* Labels of every atom of [atype], as rendered ("city @12[C001]" -> "C001"). *)
let labels c atype =
  match Client.query c (Printf.sprintf "SELECT ALL FROM %s;" atype) with
  | Error m -> Proc.failf "durability oracle: %s" m
  | Ok reply ->
    let tbl = Hashtbl.create 256 in
    String.split_on_char '\n' reply
    |> List.iter (fun line ->
           match (String.index_opt line '[', String.rindex_opt line ']') with
           | Some i, Some j when j > i ->
             Hashtbl.replace tbl (String.sub line (i + 1) (j - i - 1)) ()
           | _ -> ());
    tbl

(* Verify the acknowledged writes (in acknowledgement order) against a
   recovered server; the number of promises it broke. *)
let check_durable c (promises : Mix.promise list) =
  (* a later MODIFY of the same attribute supersedes an earlier one *)
  let last = Hashtbl.create 64 in
  List.iter
    (function
      | Mix.Holds { atype; key; attr; _ } as p -> Hashtbl.replace last (atype, key, attr) p
      | Mix.Exists _ -> ())
    promises;
  let by_type = Hashtbl.create 4 in
  let present atype key =
    let tbl =
      match Hashtbl.find_opt by_type atype with
      | Some t -> t
      | None ->
        let t = labels c atype in
        Hashtbl.add by_type atype t;
        t
    in
    Hashtbl.mem tbl key
  in
  let holds atype key_attr key attr value =
    let q =
      Printf.sprintf "SELECT ALL FROM %s WHERE %s.%s = '%s' AND %s.%s = %d;" atype
        atype key_attr key atype attr value
    in
    match Client.query c q with
    | Ok reply -> Option.is_some (find_sub reply "(1 molecules)")
    | Error m -> Proc.failf "durability oracle: %s" m
  in
  let check = function
    | Mix.Exists { atype; key } -> present atype key
    | Mix.Holds { atype; key_attr; key; attr; value } as p ->
      (* only the last acknowledged value of an attribute must hold *)
      Hashtbl.find last (atype, key, attr) != p || holds atype key_attr key attr value
  in
  List.fold_left
    (fun lost p ->
      if check p then lost
      else begin
        prerr_endline "madbench: an acknowledged write did not survive the crash";
        lost + 1
      end)
    0 promises
