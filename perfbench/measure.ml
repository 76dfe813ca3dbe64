(* One benchmark run: set up, warm up, run the timed closed loop, (traced
   runs only) repeat it with spans, and check the results against the
   oracle; then derive every metric.  The check comes last so the oracle's
   own memory stays out of [peak_heap_mb].

   Timings are drift-normalized per pass (see [Bench.ref_nominal_ms]).
   The allocation and simulated-cost metrics are taken from the first
   timed pass, which does the same work for a given seed on every run, so
   they repeat exactly. *)

open Rq_storage
open Rq_exec
open Bench
module W = Workloads

type metric = { name : string; unit : string; value : float }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;      (* end-to-end, or per-layer when traced *)
  diagnostics : metric list;  (* printed with the metrics, not in the result line *)
  notes : string list;        (* data sizes, sample counts, flags *)
  errors : string list;
}

let m name unit value = { name; unit; value }
let ms_of s = s *. 1000.0
let us_of s = s *. 1e6
let sum_by f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let count_by f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Each timed phase executes at least this many queries, so that at least
   ten latency samples lie beyond the p95. *)
let min_queries = 200

(* Setup builds are bracketed by this many kernel runs on each side. *)
let setup_kernel_runs = 5

let query_count ops = Array.fold_left (fun n -> function W.Query _ -> n + 1 | Write _ -> n) 0 ops

(* Make the next phase measure only its own pool traffic and heap. *)
let level () =
  Buffer_pool.reset_stats Buffer_pool.global;
  Gc.compact ()

(* Run whole passes until [budget] seconds have gone by, and at least
   [min_queries] queries. *)
let timed_phase ?tracer clock world ops ~budget =
  level ();
  let min_passes = (min_queries + query_count ops - 1) / query_count ops in
  let t0 = now () in
  let passes = ref [] and n = ref 0 in
  while !n < min_passes || now () -. t0 < budget do
    passes := run_pass ?tracer ~clock world ops :: !passes;
    incr n
  done;
  (List.rev !passes, Buffer_pool.global_stats ())

(* Repeated setup; returns the last world and, per build, the normalized
   generate and statistics times plus their allocation (words). *)
let setup clock (spec : W.t) ~tracer =
  let world = ref None and builds = ref [] in
  for _ = 1 to spec.setup_builds do
    world := None;
    level ();
    let t0 = now () in
    for _ = 1 to setup_kernel_runs do calibrate clock done;
    let w, times = build spec ~tracer in
    for _ = 1 to setup_kernel_runs do calibrate clock done;
    let norm = ref_nominal_ms /. ref_since clock t0 in
    world := Some w;
    builds := (times.generate_s *. norm, times.stats_s *. norm, times.setup_alloc) :: !builds
  done;
  (Option.get !world, List.rev !builds)

let data_notes (spec : W.t) world =
  let pool = Buffer_pool.global_stats () in
  Printf.sprintf "buffer pool: %d pages (%d chunks)" (pool.capacity_chunks * Page.pages_per_chunk)
    pool.capacity_chunks
  :: List.concat_map
       (fun db ->
         List.map
           (fun name ->
             let r = Catalog.find_table db.catalog name in
             Printf.sprintf "%s: %d rows, %d pages, %d chunks" name (Relation.row_count r)
               (Relation.page_count r) (Relation.chunk_count r))
           (Catalog.table_names db.catalog))
       (Array.to_list world.dbs)
  @ [ Printf.sprintf "closed loop, 1 client, 1 domain; %d setup builds" spec.setup_builds ]

(* Pass i is normalized by the median kernel time over passes i-1, i and
   i+1: enough runs for a steady median, close enough in time to follow
   the host's drift.  Returns (pass, ref_ms) pairs. *)
let with_refs passes =
  let a = Array.of_list passes and n = List.length passes in
  List.mapi
    (fun i p ->
      let lo = max 0 (i - 1) and hi = min (n - 1) (i + 1) in
      (p, median (Array.concat (List.init (hi - lo + 1) (fun k -> a.(lo + k).kernel_ms)))))
    passes

let norm (_, ref_ms) = ref_nominal_ms /. ref_ms

(* The traced pass must choose byte-identical plans and move the same
   cost counters as the untraced one. *)
let parity (untraced : pass) (traced : pass) =
  let digests (p : pass) = Array.map (Option.map Rq_experiments.Exp_common.plan_digest) p.plans in
  if digests untraced <> digests traced then [ "traced run chose other plans than the untraced run" ]
  else if not (Array.for_all2 Rq_experiments.Exp_common.snapshots_equal untraced.costs traced.costs)
  then [ "traced run moved other cost counters than the untraced run" ]
  else []

let end_to_end ~builds ~passes ~peak_heap_words ~fail_frac =
  let first = fst (List.hd passes) in
  let queries = count_by (fun ((p : pass), _) -> Array.length p.latencies) passes in
  let latencies =
    Array.concat (List.map (fun ((p : pass), _ as x) -> Array.map (fun l -> l *. norm x) p.latencies) passes)
  in
  let sim =
    Array.of_list
      (List.filteri (fun i _ -> first.plans.(i) <> None) (Array.to_list first.costs)
      |> List.map (fun (s : Cost.snapshot) -> s.seconds))
  in
  [
    m "setup_s" "s" (median (Array.of_list (List.map (fun (g, s, _) -> g +. s) builds)));
    m "queries_per_s" "1/s" (float_of_int queries /. sum_by (fun ((p : pass), _ as x) -> p.wall *. norm x) passes);
    m "query_p50_ms" "ms" (ms_of (median latencies));
    m "query_p95_ms" "ms" (ms_of (quantile latencies 0.95));
    m "alloc_mb_per_query" "MB" (mb_of_words (mean first.allocs));
    m "peak_heap_mb" "MB" (mb_of_words (float_of_int peak_heap_words));
    m "sim_cost_mean_s" "sim_s" (mean sim);
    m "sim_cost_p95_s" "sim_s" (quantile sim 0.95);
    m "query_ok_frac" "1" (1.0 -. fail_frac);
  ]

(* Per-layer metrics from the traced passes.  A span's duration is
   normalized by its pass's kernel time; its self time is the duration
   less its children's; a layer's share is its spans' self time over the
   roots' total ("query" and "write" roots belong to the harness). *)
let per_layer ~builds ~untraced ~pool ~traced =
  let first = fst (List.hd untraced) in
  let spans = List.concat_map (fun ((p : pass), _ as x) -> List.map (fun s -> (s, norm x)) p.spans) traced in
  let dur ((s : span), norm) = (s.stop -. s.start) *. norm in
  let median_of name =
    median
      (Array.of_list
         (List.filter_map (fun (((s : span), _) as x) -> if s.name = name then Some (dur x) else None) spans))
  in
  let children = Hashtbl.create 4096 and self = Hashtbl.create 8 and alloc = Hashtbl.create 8 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  List.iter (fun (((s : span), _) as x) -> if s.parent >= 0 then add children s.parent (dur x)) spans;
  List.iter
    (fun (((s : span), _) as x) ->
      let layer = layer_of s.name in
      add self layer (dur x -. get children s.sid);
      if s.parent >= 0 then add alloc layer s.alloc)
    spans;
  let root_total = sum_by (fun (((s : span), _) as x) -> if s.parent < 0 then dur x else 0.0) spans in
  let queries = float_of_int (count_by (fun ((p : pass), _) -> Array.length p.latencies) untraced) in
  let traced_queries = float_of_int (count_by (fun ((p : pass), _) -> Array.length p.latencies) traced) in
  let per_query_alloc layer = ratio (mb_of_words (get alloc layer)) traced_queries in
  let mutate_allocs =
    List.filter_map
      (fun ((s : span), _) -> if s.name = "storage.mutate" then Some (mb_of_words s.alloc) else None)
      spans
  in
  let per_query f =
    ratio
      (float_of_int (Array.fold_left (fun acc s -> acc + f s) 0 first.costs))
      (float_of_int (Array.length first.costs))
  in
  let seq = per_query (fun s -> s.Cost.seq_pages) and skipped = per_query (fun s -> s.Cost.pages_skipped) in
  let cache = first.cache_stats in
  let mean_pass ps =
    ratio (sum_by (fun ((p : pass), _ as x) -> p.wall *. norm x) ps) (float_of_int (List.length ps))
  in
  let setup_median f = median (Array.of_list (List.map f builds)) in
  [
    m "workload.generate_ms" "ms" (ms_of (setup_median (fun (g, _, _) -> g)));
    m "stats.update_statistics_ms" "ms" (ms_of (setup_median (fun (_, s, _) -> s)));
    m "stats.refresh_ms" "ms" (ms_of (median_of "stats.refresh"));
    m "stats.refreshes" "count" (float_of_int first.refreshes);
    m "storage.mutate_ms" "ms" (ms_of (median_of "storage.mutate"));
    m "storage.pool_hit_rate" "1"
      (ratio (float_of_int pool.Buffer_pool.hits) (float_of_int (pool.hits + pool.misses)));
    m "storage.pool_misses" "count" (ratio (float_of_int pool.misses) queries);
    m "storage.pool_evictions" "count" (ratio (float_of_int pool.evictions) queries);
    m "sql.parse_us" "us" (us_of (median_of "sql.parse"));
    m "sql.bind_us" "us" (us_of (median_of "sql.bind"));
    m "sql.fingerprint_us" "us" (us_of (median_of "sql.fingerprint"));
    m "optimizer.rewrite_us" "us" (us_of (median_of "optimizer.rewrite"));
    m "optimizer.enumerate_estimate_ms" "ms" (ms_of (median_of "optimizer.enumerate_estimate"));
    m "optimizer.alternatives" "count" (mean (Array.map float_of_int first.alternatives));
    m "optimizer.cache_hit_rate" "1" (Rq_optimizer.Plan_cache.hit_rate cache);
    m "optimizer.cache_lookup_us" "us" (us_of (median_of "optimizer.cache_hit"));
    m "optimizer.cache_invalidations" "count" (float_of_int cache.invalidations);
    m "exec.run_ms" "ms" (ms_of (median_of "exec.run"));
    m "exec.seq_pages" "count" seq;
    m "exec.random_pages" "count" (per_query (fun s -> s.Cost.random_pages));
    m "exec.pages_skipped" "count" skipped;
    m "exec.cpu_tuples" "count" (per_query (fun s -> s.Cost.cpu_tuples));
    m "exec.index_probes" "count" (per_query (fun s -> s.Cost.index_probes));
    m "exec.output_tuples" "count" (per_query (fun s -> s.Cost.output_tuples));
    m "exec.skip_ratio" "1" (ratio skipped (seq +. skipped));
    m "workload.alloc_mb" "MB" (mb_of_words (setup_median (fun (_, _, (g, _)) -> g)));
    m "stats.alloc_mb" "MB" (mb_of_words (setup_median (fun (_, _, (_, s)) -> s)));
    m "storage.alloc_mb" "MB" (mean (Array.of_list mutate_allocs));
    m "sql.alloc_mb" "MB" (per_query_alloc "sql");
    m "optimizer.alloc_mb" "MB" (per_query_alloc "optimizer");
    m "exec.alloc_mb" "MB" (per_query_alloc "exec");
    m "gc.major_collections" "count"
      (ratio (float_of_int (count_by (fun ((p : pass), _) -> p.major_collections) untraced)) queries);
  ]
  @ List.map
      (fun l -> m (l ^ ".self_share") "1" (ratio (get self l) root_total))
      [ "sql"; "optimizer"; "exec"; "storage"; "stats"; "harness" ]
  @ [ m "trace.overhead_frac" "1" (ratio (mean_pass traced) (mean_pass untraced) -. 1.0) ]

let write_spans dir (spec : W.t) ~seed (setup_tracer : tracer option) traced =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.tsv" spec.name seed) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "phase\tsid\tparent\tqid\tname\tstart_s\tend_s\talloc_words\n";
      let dump phase =
        List.iter (fun (s : span) ->
            Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%.6f\t%.6f\t%.0f\n" phase s.sid s.parent s.qid
              s.name s.start s.stop s.alloc)
      in
      Option.iter (fun (tr : tracer) -> dump "setup" (List.rev tr.spans)) setup_tracer;
      List.iter (fun ((p : pass), _) -> dump "loop" p.spans) traced)

let run ?spans_dir (spec : W.t) ~seed ~seconds ~trace =
  let clock = make_clock () in
  Option.iter (fun pages -> Buffer_pool.configure ~capacity_pages:pages) spec.pool_pages;
  let setup_tracer = if trace then Some (make_tracer ()) else None in
  let world, builds = setup clock spec ~tracer:setup_tracer in
  let notes = data_notes spec world in
  let ops = spec.ops (Rq_math.Rng.create seed) in
  ignore (run_pass world ops);
  let budget = if trace then float_of_int seconds /. 2.0 else float_of_int seconds in
  let passes, pool = timed_phase clock world ops ~budget in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let traced =
    if trace then fst (timed_phase ~tracer:(make_tracer ()) clock world ops ~budget) else []
  in
  let checked, check_failures = check_pass world ops in
  let queries = count_by (fun (p : pass) -> Array.length p.latencies) passes in
  let timed_errors = List.concat_map (fun (p : pass) -> p.errors) passes in
  let parity_errors = match traced with t :: _ -> parity (List.hd passes) t | [] -> [] in
  let attempted = queries + checked in
  let failed = List.length check_failures + List.length timed_errors in
  let fail_frac = float_of_int failed /. float_of_int attempted in
  let passes = with_refs passes and traced = with_refs traced in
  let pass_refs = Array.of_list (List.map snd (passes @ traced)) in
  let ref_spread = spread pass_refs in
  let raw_latencies = Array.concat (List.map (fun ((p : pass), _) -> p.latencies) passes) in
  let p95 = quantile raw_latencies 0.95 in
  let diagnostics =
    [
      m "harness.ref_ms" "ms" (median pass_refs);
      m "harness.ref_spread" "1" ref_spread;
      m "raw.queries_per_s" "1/s" (float_of_int queries /. sum_by (fun ((p : pass), _) -> p.wall) passes);
      m "raw.query_p50_ms" "ms" (ms_of (median raw_latencies));
      m "query_fail_frac" "1" fail_frac;
    ]
  in
  let notes =
    notes
    @ [
        Printf.sprintf "timed: %d passes, %d queries; p95 from %d samples, %d beyond it"
          (List.length passes) queries (Array.length raw_latencies)
          (Array.fold_left (fun n l -> if l > p95 then n + 1 else n) 0 raw_latencies);
        Printf.sprintf "checked %d distinct query results against Naive.evaluate_query" checked;
        Printf.sprintf "kernel: %d runs; per-pass ref_ms median %.3f, spread %.3f (%s bound %.2f)"
          (List.length clock.samples) (median pass_refs) ref_spread
          (if ref_spread > ref_spread_bound then "FLAGGED: above" else "within")
          ref_spread_bound;
      ]
  in
  Option.iter (fun dir -> if trace then write_spans dir spec ~seed setup_tracer traced) spans_dir;
  {
    correct = check_failures = [] && timed_errors = [] && parity_errors = [];
    attempted;
    failed;
    metrics =
      (if trace then per_layer ~builds ~untraced:passes ~pool ~traced @ diagnostics
       else end_to_end ~builds ~passes ~peak_heap_words ~fail_frac);
    diagnostics = (if trace then [] else diagnostics);
    notes;
    errors = check_failures @ timed_errors @ parity_errors;
  }
