(** CSR adjacency snapshots of a {!Mad_store.Database}.

    The store's adjacency index ([Aid.Set.t] per atom per link type) is
    ideal for mutation but pointer-chasing for traversal.  A snapshot
    freezes it into flat arrays:

    - a {e type index} per atom type — the ascending identity array,
      giving every atom a dense index [0..n-1];
    - per link type and direction, a compressed-sparse-row matrix over
      those dense indices ([offs]/[cols] int arrays, rows and row
      contents ascending).

    Snapshots are immutable and safe to read from any domain.  They are
    built lazily (a type index or CSR materialises on first use) and
    cached per database keyed on the {!Mad_store.Database.epoch}: any
    mutation moves the epoch, so a stale snapshot can never be
    observed.

    When the database is delta-tracked ({!Delta.track}) the next
    {!of_db} after a mutation {e repairs} the prior snapshot instead
    of rebuilding it: untouched type indices and CSR matrices are
    shared outright, touched ones are patched with the window's
    compacted link/atom verdicts (counted by [snapshot.delta_applied]
    and journaled as [snapshot.delta] recorder events).  When no
    window is available — untracked database, schema op, patch volume
    over {!Delta.max_patches} — it falls back to the full lazy
    rebuild (counted by [snapshot.rebuild]).  The cache holds at most
    one snapshot per live database (the latest epoch; superseded
    epochs are evicted on insert) in a small LRU. *)

open Mad_store

type csr = {
  offs : int array;  (** row start offsets, length [rows + 1] *)
  cols : int array;  (** dense partner indices, ascending per row *)
}

type tindex = private {
  ids : Aid.t array;  (** ascending; position = dense index *)
}

type t

val of_db : Database.t -> t
(** The snapshot of [db] at its current epoch — cached (small LRU keyed
    on physical database identity), built fresh after any mutation.
    The cache is unsynchronized: concurrent callers must serialize
    (the server runs every statement under its engine lock). *)

val peek : Database.t -> t option
(** The cached snapshot at the current epoch, if one exists — never
    builds.  The one-shot derivation paths use this: a kernel run is
    only worth a snapshot when one is already warm. *)

val epoch : t -> int
(** The database epoch the snapshot was taken at. *)

val tindex : t -> string -> tindex
(** Type index of the named atom type (memoised). *)

val cardinal : tindex -> int

val idx_of : tindex -> Aid.t -> int
(** Dense index of an identity (binary search), [-1] when absent. *)

val csr : t -> string -> dir:[ `Fwd | `Bwd ] -> csr
(** CSR matrix of a link type (memoised).  [`Fwd]: rows are the left
    end's type index, columns the right end's; [`Bwd] the transpose. *)

val invalidate : Database.t -> unit
(** Drop any cached snapshot of [db] (epoch movement already prevents
    stale reads; this just releases memory early — and with it the
    delta-apply source, so the next {!of_db} rebuilds). *)

val rebuild : Database.t -> t
(** A fresh, lazily-built snapshot at the current epoch, bypassing the
    cache and the delta path entirely — the from-scratch baseline the
    delta parity tests compare against. *)

val materialized : t -> string list * (string * bool) list
(** The entries this snapshot has materialised (sorted): type-index
    atom types and [(link type, fwd?)] CSR keys.  Delta-applied
    snapshots materialise exactly their predecessor's entries. *)
