(** Plain-text persistence of databases (.mad files): line-oriented,
    human-readable, identity-preserving (links reference atom
    identities). *)

val dump : Database.t -> string
val dump_file : Database.t -> string -> unit

val load : ?file:string -> string -> Database.t
(** Parse dump text; fails with a line-numbered {!Err.Mad_error} on
    malformed input, unknown names, domain violations or duplicate
    identities.  With [file], the error is prefixed with the file
    name, so recovery diagnostics can say whether the snapshot or the
    write-ahead log is damaged. *)

val load_file : string -> Database.t
(** {!load} with [file] set to the path's basename. *)

(** {1 The word codec}

    The word syntax of the dump format, shared by every line-oriented
    file MAD writes: the write-ahead log's record payloads and the
    advisory side files ([stats.mad], [digest.mad], [timeline.mad]).
    Words are bare, ['...'] strings with [''] for a quote, [[...]]
    lists or [@n] identities.  The [int] parameter of each parser is
    the line (or record) number quoted in error messages. *)

val quote : string -> string
val unquote : string -> string
(** The inverse of {!quote}; fails on a word that is not a string. *)

val value_to_string : Value.t -> string
(** Floats keep OCaml's spelling when it reads back exactly, and 17
    significant digits otherwise. *)

val parse_value : int -> string -> Value.t
val domain_to_string : Domain.t -> string
val parse_domain : int -> string -> Domain.t
val card_to_string : Schema.Link_type.cardinality -> string
val parse_card : int -> string -> Schema.Link_type.cardinality
val parse_id : int -> string -> Aid.t

val split_line : string -> int -> string list
(** The words of one record, respecting strings and lists. *)

val iter_records : string -> (int -> string list -> unit) -> unit
(** The record reader, one pass over a text: a record ends at a
    newline outside strings and lists, blank records and [#] comment
    lines are skipped, and the function sees each record's words with
    the line it starts on.  An unterminated final string or list fails
    naming that line. *)

val write_atomically : string -> string -> unit
(** [write_atomically path text]: write a temp file beside [path],
    fsync it and rename it over [path], so a reader sees the old file
    or the new one, never a prefix.  Fails with a [path]-named
    {!Err.Mad_error}. *)

(** {1 Advisory files}

    A side file is a cache of what a session learned: losing it costs
    estimates, never data.  So it never stops a store from opening. *)

val read_advisory :
  file:string ->
  header:string ->
  warn:(string -> unit) ->
  string ->
  (string list -> unit) ->
  bool
(** [read_advisory ~file ~header ~warn text f] feeds each record's
    words to [f].  A first line other than [header] ignores the whole
    text ([false]).  A record on which [f] fails, or an unterminated
    last record, is skipped; one [warn] names [file] and the first bad
    line. *)

val load_advisory : header:string -> string -> (string list -> unit) -> bool
(** {!read_advisory} over the file at a path, warning on stderr
    (["mad: "]-prefixed); [false] when the file is absent or
    ignored. *)
