open Rq_storage

(* Per-group accumulators: count, sum, min, max per aggregate slot. *)
type state = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : Value.t;
  mutable max_v : Value.t;
}

type compiled =
  [ `Count
  | `Count_expr of Relation.tuple -> Value.t
  | `Sum of Relation.tuple -> Value.t
  | `Avg of Relation.tuple -> Value.t
  | `Min of Relation.tuple -> Value.t
  | `Max of Relation.tuple -> Value.t ]

(* The columnar twin of [compiled]: evaluate at a physical row index of a
   batch's column arrays, no tuple materialized. *)
type compiled_cols =
  [ `Count
  | `Count_expr of Expr.compiled_cols
  | `Sum of Expr.compiled_cols
  | `Avg of Expr.compiled_cols
  | `Min of Expr.compiled_cols
  | `Max of Expr.compiled_cols ]

type t = {
  group_positions : int list;
  agg_fns : compiled list;
  agg_fns_cols : compiled_cols list;
  group_by : string list;
  groups : (Value.t list, state array) Hashtbl.t;
}

let create schema ~group_by ~aggs =
  let group_positions = List.map (Schema.index_of schema) group_by in
  let agg_fns =
    List.map
      (fun { Plan.fn; _ } ->
        match fn with
        | Plan.Count_star -> `Count
        | Plan.Count e -> `Count_expr (Expr.compile schema e)
        | Plan.Sum e -> `Sum (Expr.compile schema e)
        | Plan.Avg e -> `Avg (Expr.compile schema e)
        | Plan.Min e -> `Min (Expr.compile schema e)
        | Plan.Max e -> `Max (Expr.compile schema e))
      aggs
  in
  let agg_fns_cols =
    List.map
      (fun { Plan.fn; _ } ->
        match fn with
        | Plan.Count_star -> `Count
        | Plan.Count e -> `Count_expr (Expr.compile_cols schema e)
        | Plan.Sum e -> `Sum (Expr.compile_cols schema e)
        | Plan.Avg e -> `Avg (Expr.compile_cols schema e)
        | Plan.Min e -> `Min (Expr.compile_cols schema e)
        | Plan.Max e -> `Max (Expr.compile_cols schema e))
      aggs
  in
  (* Initial size 64 matters: both engines feed identical key sequences into
     identically-sized tables, so the final fold order — hence the output
     row order — is byte-identical between them. *)
  { group_positions; agg_fns; agg_fns_cols; group_by; groups = Hashtbl.create 64 }

let fresh_state () = { count = 0; sum = 0.0; min_v = Value.Null; max_v = Value.Null }

let touch t key =
  match Hashtbl.find_opt t.groups key with
  | Some states -> states
  | None ->
      let states = Array.init (List.length t.agg_fns) (fun _ -> fresh_state ()) in
      Hashtbl.add t.groups key states;
      states

let feed_tuple t tup =
  let key = List.map (fun p -> tup.(p)) t.group_positions in
  let states = touch t key in
  List.iteri
    (fun i fn ->
      let st = states.(i) in
      match fn with
      | `Count -> st.count <- st.count + 1
      | `Count_expr f -> (
          match f tup with Value.Null -> () | _ -> st.count <- st.count + 1)
      | `Sum f | `Avg f -> (
          match f tup with
          | Value.Null -> ()
          | v ->
              st.count <- st.count + 1;
              st.sum <- st.sum +. Value.to_float v)
      | `Min f -> (
          match f tup with
          | Value.Null -> ()
          | v ->
              if Value.is_null st.min_v || Value.compare v st.min_v < 0 then st.min_v <- v)
      | `Max f -> (
          match f tup with
          | Value.Null -> ()
          | v ->
              if Value.is_null st.max_v || Value.compare v st.max_v > 0 then st.max_v <- v))
    t.agg_fns

let feed t tuples = Array.iter (feed_tuple t) tuples

(* Columnar feed: same key construction and same match arms as [feed_tuple],
   visiting selected rows in ascending order — so the key-insertion sequence
   into [groups], and hence the final fold order, is identical to the
   materialized engine's tuple feed. *)
let feed_cols t cols sel =
  Bitset.iter_set
    (fun r ->
      let key = List.map (fun p -> cols.(p).(r)) t.group_positions in
      let states = touch t key in
      List.iteri
        (fun i fn ->
          let st = states.(i) in
          match fn with
          | `Count -> st.count <- st.count + 1
          | `Count_expr f -> (
              match f cols r with Value.Null -> () | _ -> st.count <- st.count + 1)
          | `Sum f | `Avg f -> (
              match f cols r with
              | Value.Null -> ()
              | v ->
                  st.count <- st.count + 1;
                  st.sum <- st.sum +. Value.to_float v)
          | `Min f -> (
              match f cols r with
              | Value.Null -> ()
              | v ->
                  if Value.is_null st.min_v || Value.compare v st.min_v < 0 then
                    st.min_v <- v)
          | `Max f -> (
              match f cols r with
              | Value.Null -> ()
              | v ->
                  if Value.is_null st.max_v || Value.compare v st.max_v > 0 then
                    st.max_v <- v))
        t.agg_fns_cols)
    sel

let finalize t =
  (* SQL semantics: grand-total aggregation yields one row even on empty
     input. *)
  if t.group_by = [] && Hashtbl.length t.groups = 0 then ignore (touch t []);
  let finalize_states states =
    List.mapi
      (fun i fn ->
        let st = states.(i) in
        match fn with
        | `Count | `Count_expr _ -> Value.Int st.count
        | `Sum _ -> if st.count = 0 then Value.Null else Value.Float st.sum
        | `Avg _ ->
            if st.count = 0 then Value.Null
            else Value.Float (st.sum /. float_of_int st.count)
        | `Min _ -> st.min_v
        | `Max _ -> st.max_v)
      t.agg_fns
  in
  Hashtbl.fold
    (fun key states acc -> Array.of_list (key @ finalize_states states) :: acc)
    t.groups []
