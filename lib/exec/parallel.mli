(** Morsel-driven parallel execution on OCaml 5 domains.

    Sequential scans (and resumed scans, guards directly over them, and
    hash joins probing straight off them) are partitioned into
    page-aligned morsels pulled by a work-stealing {!Domain_pool}; each
    morsel charges a private {!Cost} meter and the snapshots are absorbed
    into the caller's meter in morsel-index order, so merged totals are
    deterministic and identical — counter for counter — to the serial
    materialized engine.  Everything the morsel engine does not cover runs
    through {!Executor.run} in [Materialized] mode on the same meter, over
    [Plan.Materialized] leaves holding the parallel units' outputs.

    Correctness bar (enforced by test_parallel and the differential
    suite): results are multiset-identical to the serial engines, cost
    counters equal the materialized engine's exactly, span/meter
    reconciliation holds to 1e-9, and a guard whose violating morsel is
    in flight on another domain still fires with a contiguous reusable
    prefix and an exact [Scan_resume] continuation. *)

open Rq_storage

type t
(** A parallel executor bound to a domain pool. *)

val create : ?domains:int -> unit -> t
(** [domains] defaults to 1 (serial over the identical code path). *)

val of_pool : Domain_pool.t -> t
val domains : t -> int
val shutdown : t -> unit

val run :
  ?obs:Rq_obs.Recorder.t -> t -> Catalog.t -> Cost.t -> Plan.t -> Exec_common.result
(** Execute the plan, charging the meter exactly as
    [Executor.run ~mode:Materialized] would.  Raises
    {!Exec_common.Guard_violation} when a guard fires; for a guard over a
    scan the violation carries the contiguous completed morsel prefix and
    a [Scan_resume] starting at the prefix's page-aligned end.  With
    [?obs], each parallel unit attaches one leaf span (total = self = the
    unit's meter delta) and the residual plan is spanned by the serial
    engine, so [Recorder.sum_self] over the roots reconciles with the
    meter. *)

val run_counted :
  ?obs:Rq_obs.Recorder.t -> t -> Catalog.t -> Cost.t -> Plan.t -> Exec_common.result * int
(** {!run} plus the number of parallel morsels it executed. *)
