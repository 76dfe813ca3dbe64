(* The streaming operator protocol.

   An operator is opened by compiling it (constructor state is its "open");
   [next_batch] returns [Some batch] or [None] once drained.  Batches are
   column-major {!Vbatch.t}s whose selection bitset is never empty — there
   are no empty batches, so consumers never spin.  Consumers may keep
   batches; producers never mutate emitted columns.  [close] releases
   operator state early (early exit under LIMIT); it is idempotent and
   calling [next_batch] after [close] is undefined.

   [progress] and [resume] exist for mid-stream guard recovery: [progress]
   approximates the fraction of the operator's input already consumed (the
   driving source's position for pipelined operators, 1.0 once drained),
   and [resume] is a plan computing exactly the rows not yet emitted, when
   the source supports it — only sequential scans do. *)

open Rq_storage

type t = {
  schema : Schema.t;
  next_batch : unit -> Vbatch.t option;
  close : unit -> unit;
  progress : unit -> float;
  resume : unit -> Plan.t option;
}

(* Most operators are neither resumable nor meaningfully measurable beyond
   their driving child; these defaults keep constructors terse. *)
let no_resume () = None

let make ?close ?progress ?resume ~schema next_batch =
  {
    schema;
    next_batch;
    close = Option.value close ~default:(fun () -> ());
    progress = Option.value progress ~default:(fun () -> 0.0);
    resume = Option.value resume ~default:no_resume;
  }
