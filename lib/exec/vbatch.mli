(** Column-major vector batches with selection bitsets — the data unit of
    the streaming engine ({!Stream_exec}).

    A batch's logical content is its selected rows in ascending physical
    order.  Column arrays are shared and never mutated: scan batches alias
    the pinned chunk's columns zero-copy, projection drops column
    references without copying, and filters refine only [sel].  Producers
    never emit an empty selection. *)

open Rq_storage

type t = {
  cols : Value.t array array;  (** [cols.(c).(r)]; each length >= [n_rows] *)
  n_rows : int;                (** physical rows covered by [sel] *)
  sel : Bitset.t;              (** length [n_rows]; the live rows *)
}

val selected : t -> int
(** [Bitset.popcount sel] — the batch's logical row count, the amount every
    per-tuple cost charge is denominated in. *)

val of_chunk : Chunk.t -> sel:Bitset.t -> t
(** Zero-copy over the chunk's columns; [sel] must have length
    [Chunk.n_rows]. *)

val chunk_view : t -> Chunk.t
(** Zero-copy chunk view over the physical rows, so {!Chunk_scan.bitmap}
    kernels evaluate predicate atoms on any batch. *)

val of_tuples : Relation.tuple array -> t
(** Transpose a non-empty row batch; full selection.  How operators that
    build whole tuples (index fetches, merge/indexed-NL/star joins, sort,
    aggregate output) emit batches. *)

val to_tuples : t -> Relation.tuple array
(** Materialize the selected rows as fresh tuples, ascending — the late
    materialization at breaker boundaries and final output. *)

val project : t -> int array -> t
(** Keep only the given column positions (shared arrays, no copy). *)

val take : t -> int -> t
(** Keep the first [k] selected rows ({!Bitset.take} on [sel]). *)
