(** EXPLAIN ANALYZE: per-node estimated vs. actual cardinalities.

    Executes the (guard-stripped) plan exactly once under an
    {!Rq_obs.Recorder}, then walks the plan and the resulting span tree in
    parallel: each node's actual row count and cost delta come from its
    span, and its estimate from the active estimator, rendered with the
    q-error (max(est/actual, actual/est)) per node — the standard way to
    see exactly where an estimator's assumptions break. *)

open Rq_storage
open Rq_exec

type node = {
  depth : int;
  label : string;           (** one-line operator description *)
  estimated_rows : float;
  actual_rows : int;
  q_error : float;          (** >= 1; 1 = perfect *)
}

type report = {
  nodes : node list;        (** pre-order, guards transparent to execution *)
  snapshot : Cost.snapshot; (** the single execution's full meter *)
  spans : Rq_obs.Recorder.span list;
      (** the execution's span tree (one root); per-operator cost deltas *)
}

val analyze :
  Catalog.t ->
  ?constants:Cost.constants ->
  ?scale:float ->
  ?obs:Rq_obs.Recorder.t ->
  Cardinality.t ->
  Plan.t ->
  report
(** One instrumented streaming execution of [Plan.strip_guards plan].  When [?obs] is supplied the execution's spans
    and events are also appended to it (for [--trace]/[--metrics-json]
    output sharing one recorder). *)

val collect :
  Catalog.t -> ?constants:Cost.constants -> ?scale:float -> Cardinality.t ->
  Plan.t -> node list
(** [(analyze ...).nodes] — pre-order traversal, single execution. *)

val render_report : report -> string
(** The table, one line per node, plus total simulated execution time —
    all from [report]'s single execution. *)

val render :
  Catalog.t -> ?constants:Cost.constants -> ?scale:float -> Cardinality.t ->
  Plan.t -> string
(** [render_report (analyze ...)]. *)
