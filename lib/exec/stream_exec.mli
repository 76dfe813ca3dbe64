(** The pull-based streaming engine behind {!Executor}'s [Streaming] mode.

    Compiles a plan into a tree of {!Stream.t} operators and drains the
    root.  Pipeline breakers (hash build side, sort, aggregate, merge-join
    inputs) drain their children on first pull; everything else streams
    batch by batch, so a satisfied [Limit] or a mid-stream guard violation
    stops pulling upstream and leaves the unperformed work uncharged.  On a
    full drain every {!Cost} counter lands exactly where the materialized
    engine puts it.

    Operators exchange column-major {!Vbatch.t}s: scans hand out chunk
    column slices zero-copy with the predicate bitmap as initial selection,
    filters AND bitsets, projections drop column references, hash joins and
    aggregates run per-column loops over selected indices, and tuples
    materialize only where an operator needs whole rows (breaker inputs,
    index heap fetches, the indexed-NL outer side) and at final output.
    Every charge is denominated in logical (selected) rows, so the
    counters, guard fire points, span row counts and resume positions do
    not depend on the representation. *)

open Rq_storage

val batch_rows : int
(** Rows per pulled batch (producers may emit fewer, never zero). *)

val run : ?obs:Rq_obs.Recorder.t -> Catalog.t -> Cost.t -> Plan.t -> Exec_common.result
(** Raises {!Exec_common.Guard_violation} when a guard fires — mid-stream
    on overflow (with [complete = false] and a [resume] plan when the
    source scan supports it), or at drain on underflow.

    With [?obs], a span tree mirroring the operator tree is attached to the
    recorder when the root drains or unwinds: each span's total is the sum
    of the meter deltas across that operator's pulls, children nest inside
    parents, and operators interrupted by an exception are marked aborted
    (a fired guard's input span is not — its rows were produced
    successfully). *)
