(** Plan execution with cost accounting, in two engines sharing one cost
    model.

    [run] executes the plan and charges every page read, index probe and
    per-tuple operation to the supplied cost meter; the meter's accumulated
    simulated seconds are the "query execution time" that the experiments
    report.

    The default {!Streaming} engine ({!Stream_exec}) pulls batches through
    a pipelined operator tree: [Limit] stops pulling once satisfied and
    guards can fire mid-stream, so early-exit plans charge only the work
    actually performed.  The {!Materialized} engine computes every
    operator's full output bottom-up.  On plans that run to completion the
    two are equivalent by construction: same result bytes, same value in
    every cost counter. *)

open Rq_storage

type result = Exec_common.result = { schema : Schema.t; tuples : Relation.tuple array }

type violation = Exec_common.violation = {
  label : string;          (** the guard's label (guarded subplan shape) *)
  expected_rows : float;   (** optimizer's estimate at instrumentation time *)
  actual_rows : int;       (** rows seen when the guard fired *)
  q_error : float;         (** max(est/act, act/est), 0.5 floors *)
  result : result;         (** the rows seen so far — reusable as a
                               {!Plan.Materialized} leaf *)
  subplan : Plan.t;        (** the guarded subplan that produced them *)
  complete : bool;         (** input fully consumed: [result] is the whole
                               output (materialized execution, or a
                               streaming underflow caught at drain) *)
  progress : float;        (** fraction of the input consumed, in [0, 1];
                               1.0 when [complete] *)
  resume : Plan.t option;  (** a plan computing exactly the rows NOT in
                               [result], when the source supports it (a
                               mid-scan {!Plan.Scan_resume}); [None] when
                               [complete] or the prefix is non-resumable *)
}

exception Guard_violation of violation
(** Raised by [run] when a {!Plan.Guard}'s q-error bound is exceeded.  All
    work up to the violation is already charged to the meter; the carried
    result (plus [resume] for a mid-stream overflow) lets a re-optimizer
    pick up without repeating it. *)

val q_error : expected:float -> actual:int -> float
(** Alias of {!Plan.q_error} — the guard firing rule. *)

type mode =
  | Streaming     (** pull-based batch pipeline; early exit charges less *)
  | Materialized  (** original materialize-everything engine *)

val run :
  ?obs:Rq_obs.Recorder.t -> ?mode:mode -> Catalog.t -> Cost.t -> Plan.t -> result
(** Raises [Invalid_argument] on ill-formed plans (missing index, key out of
    scope); run [Plan.validate] first for a friendly error.  Raises
    [Guard_violation] when a guard fires.  [mode] defaults to {!Streaming}.

    With [?obs], every plan node is wrapped in a recorder span whose metric
    delta is that subtree's meter movement, guards emit
    [Guard_ok]/[Guard_fired] trace events, and spans unwound by an exception
    are kept, marked aborted, so wasted work stays attributed.  Streaming
    spans accumulate per-pull deltas and are attached when the root drains
    (or unwinds); a fired guard's input span is [not] aborted — its partial
    rows were produced successfully and are reusable. *)

val run_timed :
  Catalog.t ->
  ?constants:Cost.constants ->
  ?scale:float ->
  ?obs:Rq_obs.Recorder.t ->
  Plan.t ->
  result * Cost.snapshot
(** Convenience: fresh meter, run, snapshot. *)

val result_to_relation : name:string -> result -> Relation.t
