(** Persistence of the learned statistics catalog ([stats.mad]).

    A {!Stats.t} is five string-keyed maps of scalars, written in the
    word syntax of the rest of the system's files ({!Serialize}):
    {v
    # MAD adaptive catalog v2
    count state 27
    distinct state.name 27
    link state-area 110 4.074 1
    learned state-area 3.9 - 3.2 -
    sel 'state|state.name = ''SP''' 0.037
    v}
    Floats are printed with ["%.17g"] (lossless round-trip); absent
    learned factors are [-]; a [sel] key embeds the rendered predicate,
    so it is a quoted string.

    The durability engine stores this file beside the write-ahead log
    ([Durable.stats_path]), which is what lets a session's optimizer
    start from the estimates the previous session converged onto,
    instead of from the static catalog.  The file is advisory: a bad
    header ignores it and a malformed record is skipped. *)

open Mad_store
module Smap = Stats.Smap

let header = "# MAD adaptive catalog v2"
let flt = Printf.sprintf "%.17g"
let opt_flt = function None -> "-" | Some f -> flt f

let to_string (s : Stats.t) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "%s" header;
  Smap.iter (line "count %s %d") s.Stats.atom_counts;
  Smap.iter (line "distinct %s %d") s.Stats.distinct;
  Smap.iter
    (fun k (ls : Stats.link_stat) ->
      line "link %s %d %s %s" k ls.Stats.pairs (flt ls.Stats.fanout_fwd)
        (flt ls.Stats.fanout_bwd))
    s.Stats.link_stats;
  Smap.iter
    (fun k (l : Stats.learned_link) ->
      line "learned %s %s %s %s %s" k (opt_flt l.Stats.lf_fwd)
        (opt_flt l.Stats.lf_bwd) (opt_flt l.Stats.lr_fwd)
        (opt_flt l.Stats.lr_bwd))
    s.Stats.learned;
  Smap.iter
    (fun k sel -> line "sel %s %s" (Serialize.quote k) (flt sel))
    s.Stats.learned_sel;
  Buffer.contents buf

let save s path = Serialize.write_atomically path (to_string s)

let empty =
  {
    Stats.atom_counts = Smap.empty;
    distinct = Smap.empty;
    link_stats = Smap.empty;
    learned = Smap.empty;
    learned_sel = Smap.empty;
  }

let opt_float = function "-" -> None | w -> Some (float_of_string w)

let add (s : Stats.t) = function
  | [ "count"; k; n ] ->
    { s with atom_counts = Smap.add k (int_of_string n) s.atom_counts }
  | [ "distinct"; k; n ] ->
    { s with distinct = Smap.add k (int_of_string n) s.distinct }
  | [ "link"; k; pairs; ff; fb ] ->
    let ls =
      {
        Stats.pairs = int_of_string pairs;
        fanout_fwd = float_of_string ff;
        fanout_bwd = float_of_string fb;
      }
    in
    { s with link_stats = Smap.add k ls s.link_stats }
  | [ "learned"; k; ff; fb; rf; rb ] ->
    let l =
      {
        Stats.lf_fwd = opt_float ff;
        lf_bwd = opt_float fb;
        lr_fwd = opt_float rf;
        lr_bwd = opt_float rb;
      }
    in
    { s with learned = Smap.add k l s.learned }
  | [ "sel"; k; sel ] ->
    { s with
      learned_sel =
        Smap.add (Serialize.unquote k) (float_of_string sel) s.learned_sel }
  | words -> Err.failf "unknown record %s" (String.concat " " words)

let read read_with =
  let s = ref empty in
  if read_with (fun words -> s := add !s words) then Some !s else None

let of_string ?(file = "stats.mad") ~warn text =
  read (Serialize.read_advisory ~file ~header ~warn text)

let load_opt path = read (Serialize.load_advisory ~header path)
