(** Grouped-aggregation core shared by both execution engines.

    Holds the hash of per-group accumulator states; the caller feeds input
    tuples (all at once or batch by batch — the final state is identical)
    and finalizes to output rows.  Both engines construct it identically
    (same initial table size, same insertion pattern), so the finalize
    fold order — hence the output row order — is byte-identical whether
    the input arrived materialized or streamed. *)

open Rq_storage

type t

val create : Schema.t -> group_by:string list -> aggs:Plan.agg list -> t
(** Compiles the aggregate expressions against the input schema.  Raises
    [Invalid_argument] on unknown columns. *)

val feed : t -> Relation.tuple array -> unit

val feed_cols : t -> Value.t array array -> Bitset.t -> unit
(** Columnar feed for the streaming engine: visits the selected rows of the
    batch's column arrays in ascending order, building the same keys and
    applying the same accumulator updates as {!feed} — so both engines
    yield byte-identical finalize order. *)

val finalize : t -> Relation.tuple list
(** Output rows (group key columns then aggregate columns), in the group
    hash's fold order; a single row for grand-total aggregation even on
    empty input.  Call once. *)
