(* Streaming executor suite: the pull-based engine must be observably
   indistinguishable from the materialized engine on full drains —
   byte-identical tuples AND every cost counter identical — while
   early-exit shapes (LIMIT, mid-stream guard firing) charge strictly
   less I/O.  Also pins the recovery primitives the reopt loop builds
   on: [Scan_resume] page geometry, [Append] prefix replay, the
   partial-result payload of a mid-stream [Guard_violation], and
   duplicate-key hash-join ordering. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Same customers <- orders <- lineitems chain as the obs suite; big
   enough (2000 lineitems) that a seq scan spans multiple stream batches
   and many pages. *)
let chain_catalog () =
  let rng = Rq_math.Rng.create 17 in
  let catalog = Catalog.create () in
  let customers = 20 and orders = 200 and lineitems = 2000 in
  Catalog.add_table catalog ~primary_key:"c_id"
    (Relation.create ~name:"customers"
       ~schema:
         (Schema.create
            [ { Schema.name = "c_id"; ty = Value.T_int }; { Schema.name = "c_tier"; ty = Value.T_int } ])
       (Array.init customers (fun i -> [| v_int i; v_int (i mod 4) |])));
  Catalog.add_table catalog ~primary_key:"o_id"
    (Relation.create ~name:"orders"
       ~schema:
         (Schema.create
            [
              { Schema.name = "o_id"; ty = Value.T_int };
              { Schema.name = "o_cust"; ty = Value.T_int };
              { Schema.name = "o_status"; ty = Value.T_int };
            ])
       (Array.init orders (fun i ->
            [| v_int i; v_int (Rq_math.Rng.int rng customers); v_int (Rq_math.Rng.int rng 3) |])));
  Catalog.add_table catalog ~primary_key:"l_id"
    (Relation.create ~name:"lineitems"
       ~schema:
         (Schema.create
            [
              { Schema.name = "l_id"; ty = Value.T_int };
              { Schema.name = "l_order"; ty = Value.T_int };
              { Schema.name = "l_qty"; ty = Value.T_int };
            ])
       (Array.init lineitems (fun i ->
            [| v_int i; v_int (Rq_math.Rng.int rng orders); v_int (1 + Rq_math.Rng.int rng 50) |])));
  Catalog.add_foreign_key catalog
    { from_table = "orders"; from_column = "o_cust"; to_table = "customers"; to_column = "c_id" };
  Catalog.add_foreign_key catalog
    { from_table = "lineitems"; from_column = "l_order"; to_table = "orders"; to_column = "o_id" };
  Catalog.build_index catalog ~table:"orders" ~column:"o_id";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_order";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_qty";
  catalog

let qty_pred = Pred.le (Expr.col "l_qty") (Expr.int 25)
let scan_lineitems access = Plan.Scan { table = "lineitems"; access; pred = qty_pred }

let scan_all table = Plan.Scan { table; access = Plan.Seq_scan; pred = Pred.True }

let run_mode mode catalog plan =
  let meter = Cost.create ~scale:2.0 () in
  let res = Executor.run ~mode catalog meter plan in
  (res, Cost.snapshot meter)

let check_snapshots name (s : Cost.snapshot) (m : Cost.snapshot) =
  let ci field = check_int (Printf.sprintf "%s: %s" name field) in
  ci "seq_pages" m.Cost.seq_pages s.Cost.seq_pages;
  ci "random_pages" m.Cost.random_pages s.Cost.random_pages;
  ci "cpu_tuples" m.Cost.cpu_tuples s.Cost.cpu_tuples;
  ci "index_probes" m.Cost.index_probes s.Cost.index_probes;
  ci "index_entries" m.Cost.index_entries s.Cost.index_entries;
  ci "hash_build" m.Cost.hash_build s.Cost.hash_build;
  ci "hash_probe" m.Cost.hash_probe s.Cost.hash_probe;
  ci "merge_tuples" m.Cost.merge_tuples s.Cost.merge_tuples;
  ci "sort_tuples" m.Cost.sort_tuples s.Cost.sort_tuples;
  ci "output_tuples" m.Cost.output_tuples s.Cost.output_tuples;
  check_float (name ^ ": sort_units") m.Cost.sort_units s.Cost.sort_units;
  check_float (name ^ ": extra_seconds") m.Cost.extra_seconds s.Cost.extra_seconds;
  check_float (name ^ ": seconds") m.Cost.seconds s.Cost.seconds

let check_results name (s : Executor.result) (m : Executor.result) =
  check_bool (name ^ ": schemas identical") true (s.Executor.schema = m.Executor.schema);
  check_int (name ^ ": row counts") (Array.length m.Executor.tuples)
    (Array.length s.Executor.tuples);
  check_bool (name ^ ": tuples byte-identical") true
    (s.Executor.tuples = m.Executor.tuples)

(* ------------------------------------------------------------------ *)
(* Full-drain parity across every plan family                          *)
(* ------------------------------------------------------------------ *)

(* Without LIMIT or a firing guard the two engines must be a bisimulation:
   same tuples in the same order, same value on every meter counter. *)
let test_family_parity () =
  let catalog = chain_catalog () in
  let star =
    Rq_workload.Star.generate (Rq_math.Rng.create 23)
      ~params:{ Rq_workload.Star.default_params with fact_rows = 5000; dim_rows = 100 } ()
  in
  let dim i =
    {
      Plan.dim_table = Printf.sprintf "dim%d" i;
      dim_pred = Pred.eq (Expr.col "d_filter") (Expr.int 0);
      fact_fk = Printf.sprintf "f_dim%d" i;
    }
  in
  let hash_join =
    Plan.Hash_join
      {
        build = scan_all "orders";
        probe = scan_lineitems Plan.Seq_scan;
        build_key = "orders.o_id";
        probe_key = "lineitems.l_order";
      }
  in
  let families =
    [
      ("seq-scan", catalog, scan_lineitems Plan.Seq_scan);
      ( "index-range",
        catalog,
        scan_lineitems (Plan.Index_range { column = "l_qty"; lo = None; hi = Some (v_int 25) })
      );
      ( "index-intersect",
        catalog,
        scan_lineitems
          (Plan.Index_intersect
             [
               { column = "l_qty"; lo = None; hi = Some (v_int 25) };
               { column = "l_order"; lo = Some (v_int 0); hi = Some (v_int 100) };
             ]) );
      ("hash-join", catalog, hash_join);
      ( "merge-join",
        catalog,
        Plan.Merge_join
          {
            left = scan_lineitems Plan.Seq_scan;
            right = scan_all "orders";
            left_key = "lineitems.l_order";
            right_key = "orders.o_id";
          } );
      ( "indexed-nl-join",
        catalog,
        Plan.Indexed_nl_join
          {
            outer = scan_lineitems Plan.Seq_scan;
            outer_key = "lineitems.l_order";
            inner_table = "orders";
            inner_key = "o_id";
            inner_pred = Pred.True;
          } );
      ( "star-semijoin",
        star,
        Plan.Star_semijoin { fact = "fact"; fact_pred = Pred.True; dims = [ dim 1; dim 2; dim 3 ] }
      );
      ( "agg-filter-project-sort",
        catalog,
        Plan.Sort
          {
            input =
              Plan.Aggregate
                {
                  input =
                    Plan.Project
                      ( Plan.Filter (scan_lineitems Plan.Seq_scan, Pred.True),
                        [ "lineitems.l_order"; "lineitems.l_qty" ] );
                  group_by = [ "lineitems.l_order" ];
                  aggs =
                    [
                      { Plan.fn = Plan.Count_star; output_name = "n" };
                      { Plan.fn = Plan.Sum (Expr.col "lineitems.l_qty"); output_name = "q" };
                    ];
                };
            keys = [ { Plan.sort_column = "n"; descending = true } ];
          } );
      ( "guard-pass",
        catalog,
        Plan.Guard
          {
            input = scan_lineitems Plan.Seq_scan;
            expected_rows = 1000.0;
            max_q_error = 1e9;
            label = "wide";
          } );
    ]
  in
  List.iter
    (fun (name, cat, plan) ->
      (match Plan.validate cat plan with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (name ^ ": fixture plan invalid: " ^ msg));
      let sres, ssnap = run_mode Executor.Streaming cat plan in
      let mres, msnap = run_mode Executor.Materialized cat plan in
      check_results name sres mres;
      check_snapshots name ssnap msnap)
    families

(* ------------------------------------------------------------------ *)
(* LIMIT early exit                                                    *)
(* ------------------------------------------------------------------ *)

(* Two early-exit shapes: LIMIT over a scan, and LIMIT over a hash join
   whose probe side is the big scan.  The join's build side (orders) is
   drained either way; the probe stops after the first batch. *)
let test_limit_early_exit () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let orders = Catalog.find_table catalog "orders" in
  let join =
    Plan.Hash_join
      {
        build = scan_all "orders";
        probe = scan_all "lineitems";
        build_key = "orders.o_id";
        probe_key = "lineitems.l_order";
      }
  in
  List.iter
    (fun (name, plan, full_pages) ->
      let sres, ssnap = run_mode Executor.Streaming catalog plan in
      let mres, msnap = run_mode Executor.Materialized catalog plan in
      (* Same answer... *)
      check_results name sres mres;
      check_int (name ^ ": limit honored") 10 (Array.length sres.Executor.tuples);
      (* ...but the materialized engine paid for every input page while the
         streaming engine stopped pulling after the first batch. *)
      check_int (name ^ ": materialized scans every page") full_pages msnap.Cost.seq_pages;
      check_bool
        (Printf.sprintf "%s: streaming charges strictly fewer seq pages (%d < %d)" name
           ssnap.Cost.seq_pages msnap.Cost.seq_pages)
        true
        (ssnap.Cost.seq_pages < msnap.Cost.seq_pages);
      check_bool (name ^ ": streaming charges strictly fewer cpu tuples") true
        (ssnap.Cost.cpu_tuples < msnap.Cost.cpu_tuples))
    [
      ("limit-scan", Plan.Limit (scan_all "lineitems", 10), Relation.page_count lineitems);
      ( "limit-join",
        Plan.Limit (join, 10),
        Relation.page_count lineitems + Relation.page_count orders );
    ]

(* A LIMIT larger than the input is a full drain: exact parity again. *)
let test_limit_full_drain_parity () =
  let catalog = chain_catalog () in
  let plan = Plan.Limit (scan_all "lineitems", 10_000) in
  let sres, ssnap = run_mode Executor.Streaming catalog plan in
  let mres, msnap = run_mode Executor.Materialized catalog plan in
  check_results "limit-full-drain" sres mres;
  check_snapshots "limit-full-drain" ssnap msnap

(* ------------------------------------------------------------------ *)
(* Mid-stream guard firing                                             *)
(* ------------------------------------------------------------------ *)

let overflow_guard input =
  Plan.Guard { input; expected_rows = 4.0; max_q_error = 2.0; label = "overflow" }

let test_guard_fires_mid_stream () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let n = Relation.row_count lineitems in
  let plan = overflow_guard (scan_all "lineitems") in
  let fire mode =
    let meter = Cost.create ~scale:2.0 () in
    match Executor.run ~mode catalog meter plan with
    | _ -> Alcotest.fail "guard did not fire"
    | exception Executor.Guard_violation v -> (v, Cost.snapshot meter)
  in
  let sv, ssnap = fire Executor.Streaming in
  let mv, msnap = fire Executor.Materialized in
  (* Materialized only notices after consuming everything. *)
  check_bool "materialized fires complete" true mv.Executor.complete;
  check_int "materialized saw every row" n mv.Executor.actual_rows;
  check_bool "materialized has no resume" true (mv.Executor.resume = None);
  (* Streaming fires on the batch that makes the overflow unrecoverable:
     the violation carries the partial prefix and a resumable tail. *)
  check_bool "streaming fires mid-stream" false sv.Executor.complete;
  check_int "streaming stopped after one batch" Stream_exec.batch_rows
    sv.Executor.actual_rows;
  check_int "partial result carries the consumed prefix" Stream_exec.batch_rows
    (Array.length sv.Executor.result.Executor.tuples);
  check_bool "progress is a real fraction" true
    (sv.Executor.progress > 0.0 && sv.Executor.progress < 1.0);
  check_float "progress = consumed fraction"
    (float_of_int Stream_exec.batch_rows /. float_of_int n)
    sv.Executor.progress;
  (match sv.Executor.resume with
  | Some (Plan.Scan_resume { table; from_rid; _ }) ->
      check_bool "resume names the table" true (table = "lineitems");
      check_int "resume starts where the stream stopped" Stream_exec.batch_rows from_rid
  | _ -> Alcotest.fail "streaming violation should carry a Scan_resume tail");
  check_bool
    (Printf.sprintf "mid-stream firing charged fewer pages (%d < %d)" ssnap.Cost.seq_pages
       msnap.Cost.seq_pages)
    true
    (ssnap.Cost.seq_pages < msnap.Cost.seq_pages);
  (* The prefix + resume tail replays to exactly the full scan, under
     either engine: this is the continuation the reopt loop builds. *)
  let full, _ = run_mode Executor.Materialized catalog (scan_all "lineitems") in
  let continuation =
    Plan.Append
      [
        Plan.Materialized
          {
            name = "prefix";
            schema = sv.Executor.result.Executor.schema;
            tuples = sv.Executor.result.Executor.tuples;
            refs = [];
          };
        (match sv.Executor.resume with Some p -> p | None -> assert false);
      ]
  in
  let cs, _ = run_mode Executor.Streaming catalog continuation in
  let cm, _ = run_mode Executor.Materialized catalog continuation in
  check_results "continuation engines agree" cs cm;
  check_bool "prefix + tail = full scan" true (cs.Executor.tuples = full.Executor.tuples)

(* Underflow is only judgeable at drain: both engines fire with the input
   fully consumed, identical q-errors, identical meters. *)
let test_guard_underflow_drain_parity () =
  let catalog = chain_catalog () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let n = Relation.row_count lineitems in
  let plan =
    Plan.Guard
      {
        input = scan_all "lineitems";
        expected_rows = 1e6;
        max_q_error = 2.0;
        label = "underflow";
      }
  in
  let fire mode =
    let meter = Cost.create ~scale:2.0 () in
    match Executor.run ~mode catalog meter plan with
    | _ -> Alcotest.fail "guard did not fire"
    | exception Executor.Guard_violation v -> (v, Cost.snapshot meter)
  in
  let sv, ssnap = fire Executor.Streaming in
  let mv, msnap = fire Executor.Materialized in
  check_bool "streaming underflow is complete" true sv.Executor.complete;
  check_bool "no resume on a complete firing" true (sv.Executor.resume = None);
  check_int "both saw every row" mv.Executor.actual_rows sv.Executor.actual_rows;
  check_int "every row means every row" n sv.Executor.actual_rows;
  check_float "identical q-error" mv.Executor.q_error sv.Executor.q_error;
  check_snapshots "underflow drain" ssnap msnap

(* ------------------------------------------------------------------ *)
(* Recovery leaves: Scan_resume and Append                             *)
(* ------------------------------------------------------------------ *)

let test_scan_resume_from_zero_is_a_scan () =
  let catalog = chain_catalog () in
  let resume = Plan.Scan_resume { table = "lineitems"; pred = qty_pred; from_rid = 0 } in
  let sres, ssnap = run_mode Executor.Streaming catalog resume in
  let mres, msnap = run_mode Executor.Materialized catalog resume in
  check_results "scan-resume-0 engines agree" sres mres;
  check_snapshots "scan-resume-0 engines agree" ssnap msnap;
  let scan, scan_snap = run_mode Executor.Materialized catalog (scan_lineitems Plan.Seq_scan) in
  check_results "scan-resume-0 = plain scan" sres scan;
  check_snapshots "scan-resume-0 = plain scan" ssnap scan_snap

let test_append_prefix_resume () =
  let catalog = chain_catalog () in
  let split = 600 in
  let full, _ = run_mode Executor.Materialized catalog (scan_all "lineitems") in
  let plan =
    Plan.Append
      [
        Plan.Materialized
          {
            name = "prefix";
            schema = full.Executor.schema;
            tuples = Array.sub full.Executor.tuples 0 split;
            refs = [];
          };
        Plan.Scan_resume { table = "lineitems"; pred = Pred.True; from_rid = split };
      ]
  in
  let sres, ssnap = run_mode Executor.Streaming catalog plan in
  let mres, msnap = run_mode Executor.Materialized catalog plan in
  check_results "append engines agree" sres mres;
  check_snapshots "append engines agree" ssnap msnap;
  check_bool "append = full scan" true (sres.Executor.tuples = full.Executor.tuples);
  (* The whole point: the replay does not re-read the prefix's pages. *)
  let lineitems = Catalog.find_table catalog "lineitems" in
  check_int "tail pages only"
    (Relation.page_count lineitems - (split / Relation.rows_per_page lineitems))
    ssnap.Cost.seq_pages

(* ------------------------------------------------------------------ *)
(* Hash join duplicate-key ordering                                    *)
(* ------------------------------------------------------------------ *)

(* Build side on a duplicated key (many lineitems per order): matches for
   a probe row must come out in build-input order, identically in both
   engines, and equal to a reference nested loop. *)
let test_hash_join_duplicate_key_order () =
  let catalog = chain_catalog () in
  let plan =
    Plan.Hash_join
      {
        build = scan_all "lineitems";
        probe = scan_all "orders";
        build_key = "lineitems.l_order";
        probe_key = "orders.o_id";
      }
  in
  let sres, _ = run_mode Executor.Streaming catalog plan in
  let mres, _ = run_mode Executor.Materialized catalog plan in
  check_results "dup-key join engines agree" sres mres;
  let lineitems = Catalog.find_table catalog "lineitems" in
  let orders = Catalog.find_table catalog "orders" in
  let expected = ref [] in
  for o = 0 to Relation.row_count orders - 1 do
    let otup = Relation.get orders o in
    for l = 0 to Relation.row_count lineitems - 1 do
      let ltup = Relation.get lineitems l in
      if Value.compare ltup.(1) otup.(0) = 0 then
        expected := Array.append ltup otup :: !expected
    done
  done;
  let expected = Array.of_list (List.rev !expected) in
  check_int "reference row count" (Array.length expected) (Array.length sres.Executor.tuples);
  check_bool "build-input order within duplicate keys" true
    (sres.Executor.tuples = expected)

(* ------------------------------------------------------------------ *)
(* End-to-end: mid-stream firing through the reopt loop                *)
(* ------------------------------------------------------------------ *)

(* Force a bad plan whose guards blow up mid-stream; the reopt loop must
   still produce the right answer (prefix reuse included) and it must
   match what the materialized path computes for the same query. *)
let test_reopt_mid_stream_correctness () =
  let catalog = chain_catalog () in
  let stats = Rq_stats.Stats_store.update_statistics (Rq_math.Rng.create 41) catalog in
  let query =
    Logical.query [ Logical.scan ~pred:qty_pred "lineitems"; Logical.scan "orders" ]
  in
  let bad_plan =
    Plan.Indexed_nl_join
      {
        outer = scan_lineitems Plan.Seq_scan;
        outer_key = "lineitems.l_order";
        inner_table = "orders";
        inner_key = "o_id";
        inner_pred = Pred.True;
      }
  in
  let run mode =
    let opt = Optimizer.create stats (Cardinality.fixed_selectivity catalog 5e-4) in
    Reopt.execute_plan ~threshold:4.0 ~mode opt query bad_plan
  in
  let streaming = run Executor.Streaming in
  let materialized = run Executor.Materialized in
  check_bool "a guard fired under streaming" true (streaming.Reopt.events <> []);
  check_bool "streaming replanned" true
    (List.exists (fun (e : Reopt.event) -> e.Reopt.replanned) streaming.Reopt.events);
  check_bool "same answer as the materialized reopt path" true
    (Rq_experiments.Exp_common.results_equal streaming.Reopt.result materialized.Reopt.result);
  (* And against a trusted plain plan for the same query. *)
  let reference, _ =
    run_mode Executor.Materialized catalog
      (Plan.Hash_join
         {
           build = scan_all "orders";
           probe = scan_lineitems Plan.Seq_scan;
           build_key = "orders.o_id";
           probe_key = "lineitems.l_order";
         })
  in
  check_bool "same answer as a trusted plan" true
    (Rq_experiments.Exp_common.results_equal streaming.Reopt.result reference)

(* ------------------------------------------------------------------ *)
(* Vector data plane laws (qcheck + golden early-exit counters)        *)
(* ------------------------------------------------------------------ *)

(* The streaming engine's vector batches (column slices + selection
   bitsets) against the materialized engine, on random null-bearing data
   including empty selections (predicates matching nothing), whole chunks
   disproved by zone maps, and relations sized to straddle batch-window
   and chunk boundaries.  Full drains must be a bisimulation: identical
   tuples and identical counters.  A LIMIT returns the same tuples but may
   stop early, so its counters are only bounded by the materialized
   engine's; the golden table below pins exactly where it stops. *)

(* Five 20-byte string pads push row_bytes to 124, so a chunk holds
   [16 * (8192 / 124)] = 1056 rows — just above [Stream_exec.batch_rows]
   (1024).  A ~2 200-row table therefore exercises batch splits inside a
   chunk AND multi-chunk scans without being slow to generate. *)
let vec_schema =
  Schema.create
    ({ Schema.name = "t_id"; ty = Value.T_int }
    :: { Schema.name = "t_k"; ty = Value.T_int }
    :: { Schema.name = "t_v"; ty = Value.T_float }
    :: List.map
         (fun i -> { Schema.name = Printf.sprintf "t_s%d" i; ty = Value.T_string })
         [ 1; 2; 3; 4; 5 ])

let vec_chunk_rows = Page.rows_per_chunk vec_schema

type vec_case = {
  vc_seed : int;
  vc_big : int;   (* big-table rows *)
  vc_dim : int;   (* dim-table rows *)
  vc_plan : int;  (* plan family pick *)
  vc_c : int;     (* clustered band bound (can be <= 0: empty selection) *)
  vc_k : int;     (* scattered key bound *)
  vc_limit : int;
}

let render_vec_case c =
  Printf.sprintf "{seed=%d; big=%d; dim=%d; plan=%d; c=%d; k=%d; limit=%d}" c.vc_seed
    c.vc_big c.vc_dim c.vc_plan c.vc_c c.vc_k c.vc_limit

let gen_vec_case : vec_case QCheck.Gen.t =
  let open QCheck.Gen in
  let boundary_sizes =
    oneofl
      [
        1;
        Stream_exec.batch_rows;
        Stream_exec.batch_rows + 1;
        vec_chunk_rows;
        vec_chunk_rows + 1;
        (2 * vec_chunk_rows) + 17;
      ]
  in
  int_bound 1_000_000 >>= fun vc_seed ->
  oneof [ boundary_sizes; int_range 1 ((2 * vec_chunk_rows) + 300) ] >>= fun vc_big ->
  int_range 1 60 >>= fun vc_dim ->
  int_bound 7 >>= fun vc_plan ->
  int_range (-1) (2 * vec_chunk_rows) >>= fun vc_c ->
  int_bound 40 >>= fun vc_k ->
  oneofl [ 1; 7; Stream_exec.batch_rows; Stream_exec.batch_rows + 1; max_int / 2 ]
  >>= fun vc_limit -> return { vc_seed; vc_big; vc_dim; vc_plan; vc_c; vc_k; vc_limit }

(* Clustered ascending t_id (so the band predicate disproves whole chunks
   by zone map), null-bearing t_k and t_v (1 in 8). *)
let vec_case_catalog c =
  let rng = Rq_math.Rng.create c.vc_seed in
  let pad () =
    String.init (1 + Rq_math.Rng.int rng 6) (fun _ -> Char.chr (97 + Rq_math.Rng.int rng 26))
  in
  let maybe_null v = if Rq_math.Rng.int rng 8 = 0 then Value.Null else v in
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~primary_key:"t_id"
    (Relation.create ~name:"big" ~schema:vec_schema
       (Array.init c.vc_big (fun i ->
            [|
              v_int i;
              maybe_null (v_int (Rq_math.Rng.int rng 40));
              maybe_null (Value.Float (Rq_math.Rng.float rng 100.0));
              Value.String (pad ());
              Value.String (pad ());
              Value.String (pad ());
              Value.String (pad ());
              Value.String (pad ());
            |])));
  Catalog.add_table catalog ~primary_key:"d_id"
    (Relation.create ~name:"dim"
       ~schema:
         (Schema.create
            [
              { Schema.name = "d_id"; ty = Value.T_int };
              { Schema.name = "d_k"; ty = Value.T_int };
            ])
       (Array.init c.vc_dim (fun i ->
            [| v_int i; maybe_null (v_int (Rq_math.Rng.int rng 40)) |])));
  catalog

let vec_case_plan c =
  let scan pred = Plan.Scan { table = "big"; access = Plan.Seq_scan; pred } in
  let band = Pred.lt (Expr.col "t_id") (Expr.int c.vc_c) in
  let keyp = Pred.le (Expr.col "t_k") (Expr.int c.vc_k) in
  match c.vc_plan with
  | 0 -> scan band (* zone-skipped chunks; empty when c <= 0 *)
  | 1 -> scan keyp (* scattered selection with null keys *)
  | 2 -> Plan.Filter (scan band, Pred.le (Expr.col "big.t_k") (Expr.int c.vc_k))
  | 3 -> Plan.Project (scan keyp, [ "big.t_k"; "big.t_v" ])
  | 4 -> Plan.Limit (scan Pred.True, c.vc_limit)
  | 5 ->
      Plan.Hash_join
        {
          build = Plan.Scan { table = "dim"; access = Plan.Seq_scan; pred = Pred.True };
          probe = scan keyp;
          build_key = "dim.d_k";
          probe_key = "big.t_k";
        }
  | 6 ->
      Plan.Aggregate
        {
          input = scan band;
          group_by = [ "big.t_k" ];
          aggs =
            [
              { Plan.fn = Plan.Count_star; output_name = "n" };
              { Plan.fn = Plan.Sum (Expr.col "big.t_v"); output_name = "s" };
            ];
        }
  | _ ->
      (* every batch drained with an empty selection, under a guard *)
      Plan.Guard
        {
          input = Plan.Filter (scan Pred.True, Pred.False);
          expected_rows = 1.0;
          max_q_error = 1e12;
          label = "empty";
        }

let run_engine mode catalog plan =
  let meter = Cost.create ~scale:2.0 () in
  let res = Executor.run ~mode catalog meter plan in
  (res, Cost.snapshot meter)

(* Every counter of [s] paired with [m]'s, floats included. *)
let counter_pairs (s : Cost.snapshot) (m : Cost.snapshot) =
  let i name f = (name, float_of_int (f s), float_of_int (f m)) in
  [
    i "seq_pages" (fun c -> c.Cost.seq_pages);
    i "random_pages" (fun c -> c.Cost.random_pages);
    i "pages_skipped" (fun c -> c.Cost.pages_skipped);
    i "cpu_tuples" (fun c -> c.Cost.cpu_tuples);
    i "index_probes" (fun c -> c.Cost.index_probes);
    i "index_entries" (fun c -> c.Cost.index_entries);
    i "hash_build" (fun c -> c.Cost.hash_build);
    i "hash_probe" (fun c -> c.Cost.hash_probe);
    i "merge_tuples" (fun c -> c.Cost.merge_tuples);
    i "sort_tuples" (fun c -> c.Cost.sort_tuples);
    i "output_tuples" (fun c -> c.Cost.output_tuples);
    ("sort_units", s.Cost.sort_units, m.Cost.sort_units);
    ("extra_seconds", s.Cost.extra_seconds, m.Cost.extra_seconds);
    ("seconds", s.Cost.seconds, m.Cost.seconds);
  ]

(* Streaming against materialized: equal tuples always; every counter
   equal, except under an early-exit LIMIT (family 4 with the limit below
   the row count), where each streaming counter may only be smaller. *)
let engines_agree ~label c catalog plan =
  let sres, ssnap = run_engine Executor.Streaming catalog plan in
  let mres, msnap = run_engine Executor.Materialized catalog plan in
  let early_exit = c.vc_plan = 4 && c.vc_limit < c.vc_big in
  let bad =
    List.filter
      (fun (_, sv, mv) -> if early_exit then sv > mv +. 1e-9 else Float.abs (sv -. mv) > 1e-9)
      (counter_pairs ssnap msnap)
  in
  if sres.Executor.tuples <> mres.Executor.tuples then
    QCheck.Test.fail_reportf "%s: engines returned different tuples (%d streaming vs %d materialized)"
      label
      (Array.length sres.Executor.tuples)
      (Array.length mres.Executor.tuples)
  else
    match bad with
    | [] -> true
    | (name, sv, mv) :: _ ->
        QCheck.Test.fail_reportf "%s: %s streaming %g vs materialized %g (%s)" label name sv mv
          (if early_exit then "must be <=" else "must be equal")

let vec_parity_law =
  QCheck.Test.make ~name:"vector plane vs materialized (tuples + counters)" ~count:48
    (QCheck.make ~print:render_vec_case gen_vec_case)
    (fun c ->
      let catalog = vec_case_catalog c in
      let plan = vec_case_plan c in
      (match Plan.validate catalog plan with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "generator produced invalid plan: %s" msg);
      engines_agree ~label:(render_vec_case c) c catalog plan)

(* Deterministic edge sweep: the named boundary shapes, each through every
   plan family.  Tuples must match the materialized engine; counters must
   match the golden table, recorded while a row-at-a-time plane still ran
   beside the vector plane and the two agreed on every entry.  It is the
   only check left on where a LIMIT (family 4) stops pulling.  Columns:
   (seq_pages, pages_skipped, cpu_tuples, hash_build, hash_probe,
   output_tuples, result rows), one row per family 0-7; every other
   counter is zero on these plans. *)
let edge_shapes =
  [
    ( "single-row",
      { vc_seed = 3; vc_big = 1; vc_dim = 1; vc_plan = 0; vc_c = 1; vc_k = 20; vc_limit = 1 },
      [|
        (1, 0, 1, 0, 0, 0, 1);
        (0, 1, 0, 0, 0, 0, 0);
        (1, 0, 2, 0, 0, 0, 0);
        (0, 1, 0, 0, 0, 0, 0);
        (1, 0, 2, 0, 0, 0, 1);
        (1, 1, 1, 1, 0, 0, 0);
        (1, 0, 1, 1, 0, 1, 1);
        (1, 0, 2, 0, 0, 0, 0);
      |] );
    ( "empty-selection",
      {
        vc_seed = 5;
        vc_big = vec_chunk_rows + 1;
        vc_dim = 8;
        vc_plan = 0;
        vc_c = -1;
        vc_k = 0;
        vc_limit = 7;
      },
      [|
        (0, 17, 0, 0, 0, 0, 0);
        (16, 1, 1056, 0, 0, 0, 21);
        (0, 17, 0, 0, 0, 0, 0);
        (16, 1, 1077, 0, 0, 0, 21);
        (16, 0, 1031, 0, 0, 0, 7);
        (17, 1, 1064, 8, 21, 0, 0);
        (0, 17, 0, 0, 0, 0, 0);
        (17, 0, 2114, 0, 0, 0, 0);
      |] );
    ( "batch-boundary",
      {
        vc_seed = 7;
        vc_big = Stream_exec.batch_rows + 1;
        vc_dim = 8;
        vc_plan = 0;
        vc_c = Stream_exec.batch_rows;
        vc_k = 20;
        vc_limit = Stream_exec.batch_rows;
      },
      [|
        (16, 0, 1025, 0, 0, 0, 1024);
        (16, 0, 1025, 0, 0, 0, 460);
        (16, 0, 2049, 0, 0, 0, 459);
        (16, 0, 1485, 0, 0, 0, 460);
        (16, 0, 2048, 0, 0, 0, 1024);
        (17, 0, 1033, 8, 460, 68, 68);
        (16, 0, 1025, 1024, 0, 41, 41);
        (16, 0, 2050, 0, 0, 0, 0);
      |] );
    ( "chunk-boundary",
      {
        vc_seed = 11;
        vc_big = vec_chunk_rows;
        vc_dim = 8;
        vc_plan = 0;
        vc_c = vec_chunk_rows - 1;
        vc_k = 20;
        vc_limit = vec_chunk_rows;
      },
      [|
        (16, 0, 1056, 0, 0, 0, 1055);
        (16, 0, 1056, 0, 0, 0, 483);
        (16, 0, 2111, 0, 0, 0, 483);
        (16, 0, 1539, 0, 0, 0, 483);
        (16, 0, 2112, 0, 0, 0, 1056);
        (17, 0, 1064, 8, 483, 36, 36);
        (16, 0, 1056, 1055, 0, 41, 41);
        (16, 0, 2112, 0, 0, 0, 0);
      |] );
    ( "multi-chunk-band",
      {
        vc_seed = 13;
        vc_big = (2 * vec_chunk_rows) + 17;
        vc_dim = 16;
        vc_plan = 0;
        vc_c = vec_chunk_rows / 2;
        vc_k = 20;
        vc_limit = 100;
      },
      [|
        (16, 17, 1056, 0, 0, 0, 528);
        (33, 0, 2129, 0, 0, 0, 972);
        (16, 17, 1584, 0, 0, 0, 250);
        (33, 0, 3101, 0, 0, 0, 972);
        (16, 0, 1124, 0, 0, 0, 100);
        (34, 0, 2145, 16, 972, 323, 323);
        (16, 17, 1056, 528, 0, 41, 41);
        (33, 0, 4258, 0, 0, 0, 0);
      |] );
  ]

let test_vec_edge_shapes () =
  List.iter
    (fun (shape, c, golden) ->
      Array.iteri
        (fun plan_pick (seq, skipped, cpu, hb, hp, out, rows) ->
          let c = { c with vc_plan = plan_pick } in
          let label = Printf.sprintf "%s/plan%d" shape plan_pick in
          let catalog = vec_case_catalog c in
          let plan = vec_case_plan c in
          let sres, s = run_engine Executor.Streaming catalog plan in
          let mres, _ = run_engine Executor.Materialized catalog plan in
          check_bool (label ^ ": tuples = materialized") true
            (sres.Executor.tuples = mres.Executor.tuples);
          let expected =
            {
              s with
              Cost.seq_pages = seq;
              random_pages = 0;
              pages_skipped = skipped;
              cpu_tuples = cpu;
              index_probes = 0;
              index_entries = 0;
              hash_build = hb;
              hash_probe = hp;
              merge_tuples = 0;
              sort_tuples = 0;
              output_tuples = out;
              sort_units = 0.0;
              extra_seconds = 0.0;
            }
          in
          List.iter
            (fun (name, got, want) -> check_float (label ^ ": " ^ name) want got)
            (counter_pairs s expected);
          check_int (label ^ ": rows") rows (Array.length sres.Executor.tuples))
        golden)
    edge_shapes

let () =
  Alcotest.run "stream"
    [
      ( "parity",
        [
          Alcotest.test_case "every plan family: tuples + all counters" `Quick
            test_family_parity;
          Alcotest.test_case "LIMIT >= input is a full drain" `Quick
            test_limit_full_drain_parity;
          Alcotest.test_case "Scan_resume from 0 = Scan" `Quick
            test_scan_resume_from_zero_is_a_scan;
        ] );
      ( "early-exit",
        [
          Alcotest.test_case "LIMIT stops pulling and pays less I/O" `Quick
            test_limit_early_exit;
          Alcotest.test_case "guard fires mid-stream with a resumable prefix" `Quick
            test_guard_fires_mid_stream;
          Alcotest.test_case "underflow fires at drain, in lockstep" `Quick
            test_guard_underflow_drain_parity;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "Append prefix + Scan_resume tail replays the scan" `Quick
            test_append_prefix_resume;
          Alcotest.test_case "hash join keeps build-input order on duplicate keys" `Quick
            test_hash_join_duplicate_key_order;
          Alcotest.test_case "mid-stream reopt returns the right answer" `Quick
            test_reopt_mid_stream_correctness;
        ] );
      ( "vectorized",
        [
          QCheck_alcotest.to_alcotest vec_parity_law;
          Alcotest.test_case "boundary shapes through every family" `Quick
            test_vec_edge_shapes;
        ] );
    ]
