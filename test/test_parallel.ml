(* Morsel-parallel execution suite: the domain pool's claiming discipline
   (in-order claims, contiguous completed prefix on abort), exact parity
   of the parallel engine with the serial materialized engine — result
   tuples and every cost counter, at every pool size — the parallel
   guard's mid-flight firing with an exactly-resumable prefix, span/meter
   reconciliation under a recorder, and a multi-domain stress of
   per-domain plan caches and the evidence-kernel memos. *)

open Rq_storage
open Rq_exec
open Rq_optimizer

let v_int i = Value.Int i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* orders <- lineitems, big enough that a lineitems scan spans more
   morsels than the pool has domains (morsel = one column chunk of 5456
   rows for this 24-byte schema), so a guarded batch can stop before
   every morsel is claimed. *)
let fixture ?(lineitems = 30_000) () =
  let rng = Rq_math.Rng.create 23 in
  let catalog = Catalog.create () in
  let orders = 400 in
  Catalog.add_table catalog ~primary_key:"o_id"
    (Relation.create ~name:"orders"
       ~schema:
         (Schema.create
            [
              { Schema.name = "o_id"; ty = Value.T_int };
              { Schema.name = "o_status"; ty = Value.T_int };
            ])
       (Array.init orders (fun i -> [| v_int i; v_int (i mod 3) |])));
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
    { from_table = "lineitems"; from_column = "l_order"; to_table = "orders"; to_column = "o_id" };
  Catalog.build_index catalog ~table:"orders" ~column:"o_id";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_order";
  Catalog.build_index catalog ~table:"lineitems" ~column:"l_qty";
  catalog

let scan table = Plan.Scan { table; access = Plan.Seq_scan; pred = Pred.True }

let join =
  Plan.Hash_join
    {
      build = scan "orders";
      probe = scan "lineitems";
      build_key = "orders.o_id";
      probe_key = "lineitems.l_order";
    }

(* ------------------------------------------------------------------ *)
(* Domain_pool semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_in_order () =
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () ->
          check_int "size" domains (Domain_pool.size pool);
          let results = Domain_pool.run pool 37 (fun i -> i * i) in
          check_int "all tasks ran" 37 (Array.length results);
          Array.iteri
            (fun i r -> check_int (Printf.sprintf "slot %d" i) (i * i) r)
            results;
          (* The pool is persistent: a second batch reuses the workers. *)
          let again = Domain_pool.run pool 5 (fun i -> i + 100) in
          check_int "second batch" 104 again.(4)))
    [ 1; 2; 4 ];
  Alcotest.check_raises "domains must be positive"
    (Invalid_argument "Domain_pool.create: domains must be >= 1") (fun () ->
      ignore (Domain_pool.create ~domains:0 ()))

exception Task_failed of int

let test_pool_reraises_smallest_index () =
  let pool = Domain_pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      (match Domain_pool.run pool 20 (fun i -> if i mod 5 = 3 then raise (Task_failed i) else i) with
      | _ -> Alcotest.fail "batch should have aborted"
      | exception Task_failed i -> check_int "smallest failed index wins" 3 i);
      (* The pool survives an aborted batch. *)
      let ok = Domain_pool.run pool 4 (fun i -> i) in
      check_int "pool alive after abort" 3 ok.(3))

let test_pool_prefix_is_contiguous () =
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () ->
          let stop_at = 7 in
          let prefix =
            Domain_pool.run_prefix pool 40 (fun i ->
                if i = stop_at then `Stop (i * 10) else `Done (i * 10))
          in
          let k = Array.length prefix in
          (* Claims are issued in order and claimed tasks finish, so the
             stopping task and everything before it are always present. *)
          check_bool "prefix covers the stopper" true (k > stop_at);
          check_bool "prefix did not run the whole batch" true (k < 40 || domains = 1);
          Array.iteri
            (fun i r -> check_int (Printf.sprintf "prefix slot %d" i) (i * 10) r)
            prefix))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Parallel = serial, counter for counter                              *)
(* ------------------------------------------------------------------ *)

let parity_plans =
  [
    ("full scan", scan "lineitems");
    ( "filtered scan",
      Plan.Scan
        {
          table = "lineitems";
          access = Plan.Seq_scan;
          pred = Pred.le (Expr.col "l_qty") (Expr.int 25);
        } );
    ("hash join", join);
    ("limit over join", Plan.Limit (join, 500));
    ( "aggregate over join",
      Plan.Aggregate
        {
          input = join;
          group_by = [ "orders.o_status" ];
          aggs = [ { Plan.fn = Plan.Sum (Expr.col "lineitems.l_qty"); output_name = "qty" } ];
        } );
    ( "sort over scan",
      Plan.Sort
        {
          input = scan "lineitems";
          keys = [ { Plan.sort_column = "lineitems.l_qty"; descending = true } ];
        } );
  ]

let test_parallel_matches_serial () =
  let catalog = fixture () in
  List.iter
    (fun (name, plan) ->
      let serial_meter = Cost.create () in
      let serial = Executor.run ~mode:Executor.Materialized catalog serial_meter plan in
      let serial_snap = Cost.snapshot serial_meter in
      List.iter
        (fun domains ->
          let par = Parallel.create ~domains () in
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown par)
            (fun () ->
              let meter = Cost.create () in
              let result = Parallel.run par catalog meter plan in
              check_bool
                (Printf.sprintf "%s: tuples identical at %d domains" name domains)
                true
                (result.Executor.tuples = serial.Executor.tuples);
              check_bool
                (Printf.sprintf "%s: counters identical at %d domains" name domains)
                true
                (Rq_experiments.Exp_common.snapshots_equal (Cost.snapshot meter) serial_snap)))
        [ 1; 2; 4 ])
    parity_plans

let test_morsels_account_for_every_page () =
  let catalog = fixture () in
  let lineitems = Catalog.find_table catalog "lineitems" in
  let par = Parallel.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      let meter = Cost.create () in
      let _, morsels = Parallel.run_counted par catalog meter (scan "lineitems") in
      check_bool "several morsels" true (morsels > 1);
      (* The morsels' private meters telescope into exactly one full scan. *)
      let snap = Cost.snapshot meter in
      check_int "every page read once" (Relation.page_count lineitems)
        (snap.Cost.seq_pages + snap.Cost.pages_skipped);
      check_int "every row charged once" (Relation.row_count lineitems) snap.Cost.cpu_tuples)

(* ------------------------------------------------------------------ *)
(* The parallel guard                                                  *)
(* ------------------------------------------------------------------ *)

let test_parallel_guard_fires_with_resume () =
  let catalog = fixture () in
  let guarded =
    Plan.Guard
      { input = scan "lineitems"; expected_rows = 4.0; max_q_error = 2.0; label = "t" }
  in
  let full_meter = Cost.create () in
  let full = Executor.run ~mode:Executor.Materialized catalog full_meter (scan "lineitems") in
  let par = Parallel.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      let meter = Cost.create () in
      match Parallel.run par catalog meter guarded with
      | _ -> Alcotest.fail "guard should have fired"
      | exception Executor.Guard_violation v -> (
          check_bool "not complete" false v.Executor.complete;
          check_bool "progress in (0, 1)" true
            (v.Executor.progress > 0.0 && v.Executor.progress < 1.0);
          let prefix_rows = Array.length v.Executor.result.Executor.tuples in
          check_bool "prefix is non-empty" true (prefix_rows > 0);
          match v.Executor.resume with
          | Some (Plan.Scan_resume { from_rid; _ } as resume) ->
              (* Full scan, Pred.True: the prefix holds exactly the rows
                 before the resume point. *)
              check_int "resume starts where the prefix ends" prefix_rows from_rid;
              let replay_meter = Cost.create () in
              let replay =
                Executor.run ~mode:Executor.Materialized catalog replay_meter
                  (Plan.Append
                     [
                       Plan.Materialized
                         {
                           name = "prefix";
                           schema = v.Executor.result.Executor.schema;
                           tuples = v.Executor.result.Executor.tuples;
                           refs = [];
                         };
                       resume;
                     ])
              in
              check_bool "prefix + resume = the full scan" true
                (replay.Executor.tuples = full.Executor.tuples)
          | _ -> Alcotest.fail "expected a Scan_resume continuation"))

(* ------------------------------------------------------------------ *)
(* Span / meter reconciliation                                         *)
(* ------------------------------------------------------------------ *)

let test_parallel_obs_reconciles () =
  let catalog = fixture () in
  let par = Parallel.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown par)
    (fun () ->
      List.iter
        (fun (name, plan) ->
          let obs = Rq_obs.Recorder.create () in
          let meter = Cost.create () in
          ignore (Parallel.run ~obs par catalog meter plan);
          let self = Rq_obs.Recorder.sum_self (Rq_obs.Recorder.roots obs) in
          check_float
            (Printf.sprintf "%s: span self-seconds = meter seconds" name)
            (Cost.snapshot meter).Cost.seconds self.Rq_obs.Metrics.seconds)
        [ ("scan", scan "lineitems"); ("join", join); ("limit", Plan.Limit (join, 500)) ])

(* ------------------------------------------------------------------ *)
(* Per-domain plan caches + evidence memos under domains               *)
(* ------------------------------------------------------------------ *)

let stress_query ~threshold =
  Logical.query
    [
      Logical.scan ~pred:(Pred.le (Expr.col "l_qty") (Expr.int threshold)) "lineitems";
      Logical.scan "orders";
    ]

let fingerprint_of opt q =
  Rq_sql.Fingerprint.to_key
    (Rq_sql.Fingerprint.of_logical ~estimator:(Optimizer.estimator opt).Cardinality.name q)

let test_per_domain_cache_stress () =
  let domains = 4 and ops_per_domain = 40 in
  (* Serial reference for the evidence kernel: the bitset count every
     domain's private Pred_index must reproduce. *)
  let probe_pred = Pred.le (Expr.col "l_qty") (Expr.int 25) in
  let expected_count =
    let rel = Catalog.find_table (fixture ~lineitems:4000 ()) "lineitems" in
    Relation.filter_count rel (Pred.compile (Relation.schema rel) probe_pred)
  in
  let worker () =
    (* Each domain owns a full world rebuilt from the same seed, its own
       statistics maintenance, and its own plan cache. *)
    let catalog = fixture ~lineitems:4000 () in
    let m = Rq_stats.Maintenance.create (Rq_math.Rng.create 91) catalog in
    let cache = Plan_cache.create ~capacity:2 () in
    let ops = ref 0 in
    for k = 0 to ops_per_domain - 1 do
      if k mod 13 = 12 then Rq_stats.Maintenance.refresh m;
      let opt = Optimizer.robust (Rq_stats.Maintenance.stats m) in
      let q = stress_query ~threshold:(5 + (k mod 6)) in
      match Plan_cache.find_or_optimize cache opt ~fingerprint:(fingerprint_of opt q) q with
      | Ok _ -> incr ops
      | Error e -> failwith e
    done;
    let rel = Catalog.find_table catalog "lineitems" in
    let idx = Rq_stats.Pred_index.create rel in
    let count = Rq_stats.Pred_index.count idx probe_pred in
    let again = Rq_stats.Pred_index.count idx probe_pred in
    (!ops, count, again, Plan_cache.stats cache, Plan_cache.length cache)
  in
  let handles = Array.init domains (fun _ -> Domain.spawn worker) in
  let per_domain = Array.map Domain.join handles in
  let total_ops = Array.fold_left (fun acc (o, _, _, _, _) -> acc + o) 0 per_domain in
  check_int "every lookup answered" (domains * ops_per_domain) total_ops;
  Array.iteri
    (fun d (_, count, again, stats, length) ->
      check_int (Printf.sprintf "domain %d kernel count = serial scan" d) expected_count count;
      check_int (Printf.sprintf "domain %d cached re-ask" d) expected_count again;
      check_int
        (Printf.sprintf "domain %d: hits + misses + invalidations = lookups" d)
        ops_per_domain (Plan_cache.lookups stats);
      check_bool (Printf.sprintf "domain %d populated its cache" d) true (length > 0))
    per_domain;
  (* Identical worlds replay identically: every domain's cache counters
     match the first one's. *)
  let _, _, _, first, _ = per_domain.(0) in
  Array.iter
    (fun (_, _, _, stats, _) ->
      check_bool "same counters on every domain" true (stats = first))
    per_domain;
  let summed =
    Array.fold_left (fun acc (_, _, _, s, _) -> Plan_cache.add_stats acc s) Plan_cache.zero_stats
      per_domain
  in
  check_int "summed lookups = total replays" total_ops (Plan_cache.lookups summed)

let () =
  Alcotest.run "rq_parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "runs every index in order" `Quick test_pool_runs_in_order;
          Alcotest.test_case "re-raises the smallest failed index" `Quick
            test_pool_reraises_smallest_index;
          Alcotest.test_case "stop yields a contiguous prefix" `Quick
            test_pool_prefix_is_contiguous;
        ] );
      ( "parity",
        [
          Alcotest.test_case "parallel = serial across plan families" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "morsel accounting is exact" `Quick
            test_morsels_account_for_every_page;
        ] );
      ( "guard",
        [
          Alcotest.test_case "fires mid-flight with an exact resume" `Quick
            test_parallel_guard_fires_with_resume;
        ] );
      ( "obs",
        [
          Alcotest.test_case "spans reconcile with the meter" `Quick
            test_parallel_obs_reconciles;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "cache + kernel memos from N domains" `Quick
            test_per_domain_cache_stress;
        ] );
    ]
