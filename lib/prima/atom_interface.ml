(** The atom-oriented interface — the lower of PRIMA's two main
    components (ch. 5: "the basic component provides an atom-oriented
    interface (similar to the functionality of atom-type algebra) for
    the second component that performs molecule processing").

    Every access is counted; the counters are the cost model of the
    benchmark experiments (the paper's prototype measured disk I/O; an
    in-memory reproduction measures the equivalent logical work). *)

open Mad_store

type counters = {
  mutable scans : int;  (** atom-type scans started *)
  mutable atoms_read : int;
  mutable fetches : int;  (** direct accesses by identifier *)
  mutable links_followed : int;
}

let counters () = { scans = 0; atoms_read = 0; fetches = 0; links_followed = 0 }

let pp_counters ppf c =
  Fmt.pf ppf "scans=%d atoms_read=%d fetches=%d links_followed=%d" c.scans
    c.atoms_read c.fetches c.links_followed

type t = { db : Database.t; c : counters }

let v ?(c = counters ()) db = { db; c }

(** Scan an atom type, optionally filtering with a pushed-down
    qualification (evaluated per atom during the scan). *)
let scan ?pred t atype =
  t.c.scans <- t.c.scans + 1;
  let at = Database.atom_type t.db atype in
  List.filter
    (fun a ->
      t.c.atoms_read <- t.c.atoms_read + 1;
      match pred with None -> true | Some p -> Mad.Qual.eval_atom at a p)
    (Database.atoms t.db atype)
