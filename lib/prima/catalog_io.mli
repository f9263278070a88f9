(** Persistence of the learned statistics catalog: {!Stats.t} as an
    advisory [stats.mad] file stored beside the write-ahead log, so a
    session's optimizer starts from the estimates the previous session
    converged onto. *)

val to_string : Stats.t -> string

val of_string :
  ?file:string -> warn:(string -> unit) -> string -> Stats.t option
(** Parse under {!Mad_store.Serialize.read_advisory}'s policy: [None]
    on a bad header, and a malformed record is skipped with one
    [file]- and line-named warning. *)

val save : Stats.t -> string -> unit
(** Write atomically. *)

val load_opt : string -> Stats.t option
(** [None] when the file does not exist or is ignored. *)
