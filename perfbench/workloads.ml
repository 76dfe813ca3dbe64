(* The benchmark's workloads: generated catalogs plus SQL text.

   As in TPC-H, the database is generated once per workload from a fixed
   seed (catalogs, statistics draws and write batches alike) and the seed
   given on the command line draws the query stream: every literal, hint
   and the order of the ops.  A fixed database keeps the optimizer's plan
   choices, and with them the mix of cheap and expensive plans, the same
   for every stream.  Query parameters are drawn stratified — one draw
   inside each of [n] equal slices of a parameter's range — so a different
   seed changes every literal while the medians and tails stay put. *)

open Rq_storage
open Rq_workload

module Rng = Rq_math.Rng

type query = { id : int; db : int; sql : string }

type op =
  | Query of query
  | Write of Mutate.t  (* drift-refresh only: a lineitem grow/shrink batch *)

type db_spec = {
  generate : Rng.t -> Catalog.t;
  cost_scale : Catalog.t -> float;
}

type t = {
  name : string;
  dbs : db_spec list;
  pool_pages : int option;  (* global buffer-pool cap; None = default *)
  setup_builds : int;       (* setup is repeated; setup_s is the median *)
  plan_cache : bool;        (* route optimization through Plan_cache *)
  restore_each_pass : bool; (* reset data and statistics before a pass *)
  kernel_every : int;       (* a calibration run before every n-th op *)
  ops : Rng.t -> op array;  (* one pass of the closed loop *)
}

(* -- SQL helpers ----------------------------------------------------- *)

let date_of_day d = Value.to_string (Value.Date d)
let day y m d = match Value.date_of_ymd ~year:y ~month:m ~day:d with Value.Date n -> n | _ -> 0

(* The i-th of n stratified draws over [lo, hi). *)
let strat rng ~lo ~hi ~n i =
  let width = float_of_int (hi - lo) /. float_of_int n in
  lo + int_of_float (float_of_int i *. width) + Rng.int rng (max 1 (int_of_float width))

let queries_of rng ~db ~first templates =
  let sqls = List.concat_map (fun (n, f) -> List.init n (f rng)) templates in
  let arr = Array.of_list sqls in
  Rng.shuffle_in_place rng arr;
  Array.mapi (fun i sql -> { id = first + i; db; sql }) arr

let tpch scale_factor =
  {
    generate =
      (fun rng -> Tpch.generate rng ~params:{ Tpch.default_params with scale_factor } ());
    cost_scale = Tpch.cost_scale;
  }

let star ~fact_rows ~dim_rows =
  {
    generate =
      (fun rng -> Star.generate rng ~params:{ Star.default_params with fact_rows; dim_rows } ());
    cost_scale = Star.cost_scale;
  }

let orders_of scale_factor = int_of_float (scale_factor *. float_of_int Tpch.paper_lineitem_rows) / 4
let ship0 = day 1997 7 1
let first_ship = day 1992 1 1
let last_ship = day 1998 4 1

(* The paper's Exp-1 template: two correlated date ranges on lineitem. *)
let exp1 rng ~n i =
  let offset = strat rng ~lo:0 ~hi:96 ~n i in
  Printf.sprintf
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN '%s' \
     AND '%s' AND l_receiptdate BETWEEN '%s' AND '%s'"
    (date_of_day ship0) (date_of_day (ship0 + 29))
    (date_of_day (ship0 + offset)) (date_of_day (ship0 + 29 + offset))

(* The paper's Exp-2 template: the three-way join filtered on p_bucket. *)
let exp2 rng ~n i =
  Printf.sprintf
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, orders, part WHERE p_bucket = %d"
    (strat rng ~lo:0 ~hi:1000 ~n i)

let group_by rng ~n i =
  let lo = strat rng ~lo:1 ~hi:41 ~n i in
  Printf.sprintf
    "SELECT p_brand, COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem, part WHERE \
     p_size BETWEEN %d AND %d GROUP BY p_brand"
    lo (lo + 9)

(* lineitem is clustered on l_orderkey: the zone maps prune this scan to a
   band of chunks.  The band's width (1% to 12% of the orders) is the
   stratified parameter, so the scan's cost varies smoothly. *)
let range_scan ~orders rng ~n i =
  let width = max 1 (orders * strat rng ~lo:10 ~hi:120 ~n i / 1000) in
  let lo = Rng.int rng (orders - width) in
  Printf.sprintf
    "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_orderkey \
     BETWEEN %d AND %d"
    lo (lo + width)

(* Top-k over a shipdate window of 20 to 120 days (stratified). *)
let top_k rng ~n i =
  let days = strat rng ~lo:20 ~hi:121 ~n i in
  let d = first_ship + Rng.int rng (last_ship - days - first_ship) in
  Printf.sprintf
    "SELECT l_rowid, l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN '%s' AND '%s' \
     ORDER BY l_extendedprice DESC, l_rowid LIMIT 20"
    (date_of_day d) (date_of_day (d + days))

(* -- olap-scan ------------------------------------------------------- *)

let olap_sf = 0.02

(* lineitem at SF 0.02 is 120,000 rows in 138 chunks (2,208 pages); the
   pool holds 64 chunks (1,024 pages), so full scans stream through it. *)
let olap_pool_pages = 512

let olap_ops rng =
  let orders = orders_of olap_sf in
  queries_of rng ~db:0 ~first:0
    [
      (48, exp1 ~n:48);
      (48, exp2 ~n:48);
      (24, group_by ~n:24);
      (24, range_scan ~orders ~n:24);
      (48, top_k ~n:48);
    ]
  |> Array.map (fun q -> Query q)

(* -- plan-heavy ------------------------------------------------------ *)

let hint rng ~n i = Printf.sprintf "/*+ CONFIDENCE(%d) */ " (strat rng ~lo:5 ~hi:96 ~n i)

let star_join rng ~n i =
  let a = Rng.int rng 10 and b = Rng.int rng 10 and c = Rng.int rng 7 in
  Printf.sprintf
    "%sSELECT SUM(f_m1) AS m1, AVG(f_m2) AS m2 FROM fact, dim1, dim2, dim3 WHERE \
     dim1.d_filter = %d AND dim2.d_filter = %d AND dim3.d_filter BETWEEN %d AND %d"
    (hint rng ~n i) a b c (c + 3)

let star_subquery rng ~n i =
  let a = Rng.int rng 10 and b = Rng.int rng 10 and c = Rng.int rng 6 in
  let payload = 10 + Rng.int rng 80 in
  Printf.sprintf
    "%sSELECT COUNT(*) AS n, SUM(f_m1) AS m1 FROM fact, dim1 WHERE (dim1.d_filter = %d OR \
     dim1.d_filter = %d) AND f_dim2 IN (SELECT d_key FROM dim2 WHERE d_filter BETWEEN %d AND \
     %d) AND EXISTS (SELECT * FROM dim3 WHERE dim3.d_key = fact.f_dim3 AND dim3.d_payload < \
     %d)"
    (hint rng ~n i) a b c (c + 4) payload

let star_group rng ~n i =
  let c = Rng.int rng 8 in
  Printf.sprintf
    "%sSELECT dim1.d_filter, COUNT(*) AS n FROM fact, dim1, dim2 WHERE dim2.d_filter \
     BETWEEN %d AND %d AND (f_m1 < %d OR f_m2 > %d) AND (dim1.d_payload < %d OR \
     dim1.d_payload > %d) GROUP BY dim1.d_filter"
    (hint rng ~n i) c (c + 2) (20 + Rng.int rng 60) (20 + Rng.int rng 60) (10 + Rng.int rng 30)
    (60 + Rng.int rng 30)

let tpch_join rng ~n i =
  let b = Rng.int rng 900 and d = strat rng ~lo:first_ship ~hi:(last_ship - 400) ~n i in
  Printf.sprintf
    "%sSELECT SUM(l_extendedprice) AS revenue FROM lineitem, orders, part WHERE p_bucket \
     BETWEEN %d AND %d AND (o_totalprice < %d OR o_totalprice > %d) AND l_shipdate BETWEEN \
     '%s' AND '%s'"
    (hint rng ~n i) b (b + 100) (50_000 + Rng.int rng 50_000) (200_000 + Rng.int rng 80_000)
    (date_of_day d) (date_of_day (d + 365))

let tpch_in rng ~n i =
  let d = strat rng ~lo:first_ship ~hi:(last_ship - 300) ~n i and s = 1 + Rng.int rng 40 in
  Printf.sprintf
    "%sSELECT COUNT(*) AS n FROM lineitem, orders WHERE o_orderdate BETWEEN '%s' AND '%s' \
     AND l_partkey IN (SELECT p_partkey FROM part WHERE p_size BETWEEN %d AND %d)"
    (hint rng ~n i) (date_of_day d) (date_of_day (d + 200)) s (s + 8)

let tpch_exists rng ~n i =
  let q = 5 + Rng.int rng 40 in
  Printf.sprintf
    "%sSELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem WHERE l_quantity < %d AND \
     EXISTS (SELECT * FROM orders WHERE orders.o_orderkey = lineitem.l_orderkey AND \
     o_totalprice > %d)"
    (hint rng ~n i) q (10_000 + Rng.int rng 280_000)

let plan_heavy_ops rng =
  let star_qs =
    queries_of rng ~db:0 ~first:0 [ (40, star_join ~n:40); (40, star_subquery ~n:40); (40, star_group ~n:40) ]
  in
  let tpch_qs =
    queries_of rng ~db:1 ~first:(Array.length star_qs)
      [ (40, tpch_join ~n:40); (40, tpch_in ~n:40); (40, tpch_exists ~n:40) ]
  in
  let all = Array.append star_qs tpch_qs in
  Rng.shuffle_in_place rng all;
  Array.map (fun q -> Query q) all

(* -- drift-refresh --------------------------------------------------- *)

let drift_sf = 0.003

(* The data is 9 chunks; a write replaces lineitem by a new relation whose
   chunks get new pool keys, and the replaced version's chunks stay in the
   pool until evicted.  A 32-chunk pool keeps all live data resident and
   lets replaced versions age out, so memory reaches a steady state in the
   first pass instead of growing with every pass up to the default
   1024-chunk pool. *)
let drift_pool_pages = 512
let drift_queries = 240
let drift_write_every = 48

(* A fixed pool of recurring queries replayed with skew: pool entry i is
   replayed in proportion to the chance that the smaller of two uniform
   draws over the pool is i, which favours the low indices.  The pool
   interleaves the four templates, so every template gets the same share
   of hot and cold entries; the counts are fixed and only the order is
   drawn.  A lineitem batch runs between every [drift_write_every] queries;
   grow and shrink alternate, +10% then keep 91%, so the table stays within
   a few percent of its generated size. *)
let drift_ops rng =
  let orders = orders_of drift_sf in
  let per_template = 8 in
  let templates =
    [| exp1 ~n:per_template; exp2 ~n:per_template; group_by ~n:per_template; range_scan ~orders ~n:per_template |]
  in
  let k = Array.length templates in
  let n = k * per_template in
  let pool = Array.init n (fun i -> { id = i; db = 0; sql = templates.(i mod k) rng (i / k) }) in
  let weight i = float_of_int ((2 * (n - i)) - 1) /. float_of_int (n * n) in
  let counts = Array.init n (fun i -> int_of_float (Float.round (weight i *. float_of_int drift_queries))) in
  let replay =
    Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c pool.(i)) counts))
  in
  Rng.shuffle_in_place rng replay;
  let ops = ref [] in
  Array.iteri
    (fun i q ->
      if i > 0 && i mod drift_write_every = 0 then
        ops :=
          Write
            (if i / drift_write_every mod 2 = 1 then Mutate.Grow { table = "lineitem"; percent = 10 }
             else Mutate.Shrink { table = "lineitem"; keep_percent = 91 })
          :: !ops;
      ops := Query q :: !ops)
    replay;
  Array.of_list (List.rev !ops)

(* -- the registry ---------------------------------------------------- *)

let all =
  [
    {
      name = "olap-scan";
      dbs = [ tpch olap_sf ];
      pool_pages = Some olap_pool_pages;
      setup_builds = 3;
      plan_cache = false;
      restore_each_pass = false;
      kernel_every = 6;
      ops = olap_ops;
    };
    {
      name = "plan-heavy";
      dbs = [ star ~fact_rows:2_000 ~dim_rows:200; tpch 0.001 ];
      pool_pages = None;
      setup_builds = 5;
      plan_cache = false;
      restore_each_pass = false;
      kernel_every = 24;
      ops = plan_heavy_ops;
    };
    {
      name = "drift-refresh";
      dbs = [ tpch drift_sf ];
      pool_pages = Some drift_pool_pages;
      setup_builds = 5;
      plan_cache = true;
      restore_each_pass = true;
      kernel_every = 16;
      ops = drift_ops;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let query_texts ops =
  Array.to_list ops |> List.filter_map (function Query q -> Some q.sql | Write _ -> None)
