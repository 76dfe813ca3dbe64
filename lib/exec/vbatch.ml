(* A column-major vector batch with a selection bitset — the unit of data
   flow in the streaming engine.

   [cols] are shared, never-mutated column arrays (for scan batches they
   are the pinned chunk's own columns, zero-copy; eviction after unpin only
   drops the pool's reference, the GC keeps shared columns alive).  [sel]
   picks out the live rows among the [n_rows] physical rows; the logical
   content of a batch is exactly its selected rows in ascending physical
   order.  Producers never emit a batch with an empty selection (the
   stream protocol's no-empty-batches invariant).

   Rows are materialized as tuples only at breaker boundaries (hash build
   sides, sorts, merge inputs) and at final output — late materialization
   is where the wall-clock win comes from; the cost counters never see the
   difference because they charge logical rows, not representation. *)

open Rq_storage

type t = {
  cols : Value.t array array;  (* cols.(c).(r), each length >= n_rows *)
  n_rows : int;                (* physical rows covered by [sel] *)
  sel : Bitset.t;              (* length = n_rows; the live rows *)
}

let selected t = Bitset.popcount t.sel

let of_chunk chunk ~sel =
  { cols = Chunk.columns chunk; n_rows = Chunk.n_rows chunk; sel }

(* View the physical rows as a chunk so the per-chunk bitmap kernels
   ({!Chunk_scan.bitmap}) run on any batch unchanged.  Zero-copy. *)
let chunk_view t = Chunk.of_columns ~n_rows:t.n_rows t.cols

let of_tuples (tuples : Relation.tuple array) =
  let n = Array.length tuples in
  if n = 0 then invalid_arg "Vbatch.of_tuples: empty batch";
  let arity = Array.length tuples.(0) in
  let cols = Array.init arity (fun c -> Array.init n (fun r -> tuples.(r).(c))) in
  { cols; n_rows = n; sel = Bitset.full n }

let to_tuples t =
  let k = selected t in
  let arity = Array.length t.cols in
  let out = Array.make k [||] in
  let j = ref 0 in
  Bitset.iter_set
    (fun i ->
      let row = Array.make arity Value.Null in
      for c = 0 to arity - 1 do
        row.(c) <- t.cols.(c).(i)
      done;
      out.(!j) <- row;
      incr j)
    t.sel;
  out

let project t positions =
  { t with cols = Array.map (fun p -> t.cols.(p)) positions }

let take t k = { t with sel = Bitset.take t.sel k }
