(** Atom identities.

    The MAD model requires every atom to be "uniquely identifiable"
    (Def. 1).  Identity is model-level, not value-based: two atoms with
    equal attribute values are still distinct.  We realise identity as
    an integer that is unique within one database; the owning atom type
    is recorded on the atom itself ({!Atom.t}). *)

type t = int

let compare = Int.compare
let equal = Int.equal
let hash = Fun.id
let pp ppf id = Fmt.pf ppf "@%d" id
let to_string id = "@" ^ string_of_int id

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let pp_set ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") pp) (Set.elements s)
