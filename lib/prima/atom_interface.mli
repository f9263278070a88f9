(** PRIMA's lower layer: the atom-oriented interface [HMMS87] with
    access counters.  The query pipeline's root scans run through it;
    EXPLAIN ANALYZE reports its counters. *)

open Mad_store

type counters = {
  mutable scans : int;
  mutable atoms_read : int;
  mutable fetches : int;
  mutable links_followed : int;
}

val counters : unit -> counters
val pp_counters : Format.formatter -> counters -> unit

type t = { db : Database.t; c : counters }

val v : ?c:counters -> Database.t -> t

val scan : ?pred:Mad.Qual.t -> t -> string -> Atom.t list
(** Atom-type scan with an optional pushed-down qualification. *)
