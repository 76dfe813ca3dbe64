(* An immutable columnar chunk: up to [Page.rows_per_chunk schema] rows,
   stored column-major so per-column work (zone maps, bitmap predicate
   kernels) touches one array. *)

type t = {
  n_rows : int;
  columns : Value.t array array;  (* columns.(col).(row) *)
}

let n_rows t = t.n_rows

let n_columns t = Array.length t.columns

let value t ~col ~row = t.columns.(col).(row)

let column t col = t.columns.(col)

let columns t = t.columns

(* Zero-copy view over existing column arrays: the streaming executor
   wraps a batch's columns back into a chunk so the per-chunk bitmap
   kernels run on it unchanged.  The caller keeps ownership. *)
let of_columns ~n_rows columns =
  if n_rows < 0 then invalid_arg "Chunk.of_columns: negative n_rows";
  Array.iter
    (fun col ->
      if Array.length col < n_rows then
        invalid_arg "Chunk.of_columns: column shorter than n_rows")
    columns;
  { n_rows; columns }

let get t row =
  Array.init (Array.length t.columns) (fun c -> t.columns.(c).(row))

let of_rows ~arity rows n =
  let columns =
    Array.init arity (fun c -> Array.init n (fun r -> rows r c))
  in
  { n_rows = n; columns }

let of_tuples tuples =
  let n = Array.length tuples in
  if n = 0 then invalid_arg "Chunk.of_tuples: empty";
  let arity = Array.length tuples.(0) in
  of_rows ~arity (fun r c -> tuples.(r).(c)) n

let iter f t =
  let arity = Array.length t.columns in
  for r = 0 to t.n_rows - 1 do
    f r (Array.init arity (fun c -> t.columns.(c).(r)))
  done
