(** Minimal JSON values: printer (used by the exporters) and parser
    (used by the tests to assert the output is well-formed).
    Non-finite floats print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val of_string : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] elsewhere. *)

val to_float : t -> float option
val to_str : t -> string option
