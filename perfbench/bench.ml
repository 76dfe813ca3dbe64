(* The benchmark harness: build a workload's world, drive passes of its
   closed loop through the public SQL-to-result path, time them against
   the calibration kernel, record spans, and check results against the
   oracle.

   One client, one process, one domain: each query is sent only after the
   previous one has returned (a closed loop), so a slower program simply
   completes fewer queries in the measured time. *)

open Rq_storage
open Rq_exec
open Rq_optimizer
module Rng = Rq_math.Rng
module Maintenance = Rq_stats.Maintenance
module W = Workloads

let now = Unix.gettimeofday

(* Words allocated by this domain so far, minor and direct-major.  The
   minor part comes from [Gc.minor_words], which is exact at any moment;
   the minor count of [Gc.counters] lags until the next minor collection. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* -- order statistics -------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile values p =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median values = quantile values 0.5

let spread values =
  let m = median values in
  if m = 0.0 then 0.0 else (quantile values 0.75 -. quantile values 0.25) /. m

let mean values =
  if values = [||] then 0.0
  else Array.fold_left ( +. ) 0.0 values /. float_of_int (Array.length values)

(* -- drift normalization ---------------------------------------------- *)

(* The calibration kernel's median time on a quiet machine, in ms.  A raw
   timing t measured in a pass is reported as t * ref_nominal_ms / ref_ms,
   where ref_ms is the median time of the kernel runs interleaved with that
   pass and its neighbours: the numbers read as times on a quiet machine
   whatever speed the host had while they were taken. *)
let ref_nominal_ms = 5.0

(* A run whose per-pass ref_ms values spread (IQR over median) more than
   this is flagged: the host's speed moved more during the run than the
   bound BENCHMARK.json puts on the timing metrics. *)
let ref_spread_bound = 0.22

type clock = {
  kernel : Calib.t;
  mutable samples : (float * float) list;  (* start time, ms; newest first *)
  mutable spent : float;                   (* seconds inside the kernel *)
}

let make_clock () = { kernel = Calib.create (); samples = []; spent = 0.0 }

(* The minor heap is emptied first, so a kernel run never collects: its
   time does not depend on the workload's heap. *)
let calibrate clock =
  Gc.minor ();
  let t0 = now () in
  ignore (Sys.opaque_identity (Calib.run clock.kernel));
  let t1 = now () in
  clock.samples <- (t0, (t1 -. t0) *. 1000.0) :: clock.samples;
  clock.spent <- clock.spent +. (t1 -. t0)

(* Median kernel time (ms) over the runs started at or after [t0]. *)
let ref_since clock t0 =
  median (Array.of_list (List.filter_map (fun (t, ms) -> if t >= t0 then Some ms else None) clock.samples))

(* -- tracing ------------------------------------------------------------ *)

(* Spans are recorded only in the traced run, around each call into a
   layer.  They stay in memory until the run ends. *)
type span = {
  sid : int;
  mutable name : string;  (* "<layer>.<call>"; roots are "query"/"write" *)
  parent : int;           (* -1 for a root *)
  qid : int;              (* query id, -1 for writes *)
  start : float;
  mutable stop : float;
  mutable alloc : float;  (* words allocated inside the span *)
}

type tracer = { mutable spans : span list; mutable count : int; mutable stack : int list }

let make_tracer () = { spans = []; count = 0; stack = [] }

let span tracer ?(qid = -1) name f =
  match tracer with
  | None -> f ()
  | Some tr ->
      let parent = match tr.stack with p :: _ -> p | [] -> -1 in
      let alloc = alloc_words () in
      let s = { sid = tr.count; name; parent; qid; start = now (); stop = 0.0; alloc } in
      tr.spans <- s :: tr.spans;
      tr.count <- tr.count + 1;
      tr.stack <- s.sid :: tr.stack;
      Fun.protect f ~finally:(fun () ->
          s.stop <- now ();
          s.alloc <- alloc_words () -. s.alloc;
          tr.stack <- List.tl tr.stack)

(* Rename the most recently opened span (to tag an outcome). *)
let retag tracer name =
  match tracer with Some { spans = s :: _; _ } -> s.name <- name | _ -> ()

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> "harness"

(* -- the world ---------------------------------------------------------- *)

type db = {
  catalog : Catalog.t;
  scale : float;
  stats_seed : int;
  pristine : Relation.t list;  (* lineitem as generated, for restores *)
  mutable maint : Maintenance.t;
}

type world = {
  spec : W.t;
  dbs : db array;
  cache : Plan_cache.t option;
  mutable mutate_rng : Rng.t;
}

type setup_times = { generate_s : float; stats_s : float; setup_alloc : float * float }

let stats_of db = Maintenance.stats db.maint

let new_maintenance catalog seed = Maintenance.create (Rng.create seed) catalog

(* The seed of the database: catalogs, statistics draws and write
   batches (see [Workloads]). *)
let database_seed = 2005

(* Generate the catalogs, then build their statistics; both timed. *)
let build (spec : W.t) ~tracer =
  let gen_alloc = alloc_words () in
  let t0 = now () in
  let catalogs =
    span tracer "workload.generate" (fun () ->
        List.mapi (fun i (d : W.db_spec) -> (d, d.generate (Rng.create (database_seed + i)))) spec.dbs)
  in
  let t1 = now () in
  let gen_alloc = alloc_words () -. gen_alloc in
  let stats_alloc = alloc_words () in
  let dbs =
    span tracer "stats.update_statistics" (fun () ->
        List.mapi
          (fun i ((d : W.db_spec), catalog) ->
            let stats_seed = (database_seed * 31) + i in
            {
              catalog;
              scale = d.cost_scale catalog;
              stats_seed;
              pristine =
                (if spec.restore_each_pass then [ Catalog.find_table catalog "lineitem" ] else []);
              maint = new_maintenance catalog stats_seed;
            })
          catalogs)
  in
  let t2 = now () in
  let stats_alloc = alloc_words () -. stats_alloc in
  let world =
    {
      spec;
      dbs = Array.of_list dbs;
      cache = (if spec.plan_cache then Some (Plan_cache.create ~capacity:64 ()) else None);
      mutate_rng = Rng.create (database_seed + 17);
    }
  in
  (world, { generate_s = t1 -. t0; stats_s = t2 -. t1; setup_alloc = (gen_alloc, stats_alloc) })

(* Put the data, statistics, plan cache and write RNG back to their state
   right after setup, so every pass of a mutating workload does the same
   work. *)
let restore world =
  if world.spec.restore_each_pass then begin
    Array.iter
      (fun db ->
        List.iter (Catalog.replace_table db.catalog) db.pristine;
        db.maint <- new_maintenance db.catalog db.stats_seed)
      world.dbs;
    Option.iter Plan_cache.clear world.cache;
    world.mutate_rng <- Rng.create (database_seed + 17)
  end

(* -- one query through the public path ---------------------------------- *)

type outcome = {
  plan : Plan.t;
  snapshot : Cost.snapshot;
  result : Executor.result;
  alternatives : int;
}

let default_confidence = Rq_core.Confidence.of_percent 80.0

let optimizer_for db (bound : Rq_sql.Binder.bound) =
  let confidence = Option.value bound.confidence_hint ~default:default_confidence in
  (Optimizer.robust ~scale:db.scale ~confidence (stats_of db), confidence)

let fingerprint opt confidence (bound : Rq_sql.Binder.bound) =
  Rq_sql.Fingerprint.to_key
    (Rq_sql.Fingerprint.of_logical ~estimator:(Optimizer.estimator opt).Cardinality.name
       ~confidence bound.query)

let ( let* ) = Result.bind

(* Untraced: Binder.compile -> [Plan_cache.find_or_optimize ->]
   Optimizer.optimize -> Executor.run.  Traced: the same work split into
   its layer calls — Parser.parse + Binder.bind, Rewrite.rewrite +
   Optimizer.optimize ~rewrite:false — each inside a span.  Both must pick
   the same plan and move the same cost counters (checked by the harness). *)
let run_query ?tracer world (q : W.query) =
  let db = world.dbs.(q.db) in
  let traced = Option.is_some tracer in
  let sp name f = span tracer ~qid:q.id name f in
  try
    let* bound =
      if traced then
        let* stmt = sp "sql.parse" (fun () -> Rq_sql.Parser.parse q.sql) in
        sp "sql.bind" (fun () -> Rq_sql.Binder.bind db.catalog stmt)
      else Rq_sql.Binder.compile db.catalog q.sql
    in
    let opt, confidence = sp "optimizer.setup" (fun () -> optimizer_for db bound) in
    let* decision =
      match world.cache with
      | Some cache ->
          let fp = sp "sql.fingerprint" (fun () -> fingerprint opt confidence bound) in
          let r =
            sp "optimizer.cache" (fun () ->
                Plan_cache.find_or_optimize cache opt ~fingerprint:fp bound.query)
          in
          (match r with
          | Ok (_, Plan_cache.Hit) -> retag tracer "optimizer.cache_hit"
          | _ -> retag tracer "optimizer.cache_miss");
          Result.map fst r
      | None when traced ->
          let rewritten, _ =
            sp "optimizer.rewrite" (fun () -> Rewrite.rewrite db.catalog bound.query)
          in
          sp "optimizer.enumerate_estimate" (fun () ->
              Optimizer.optimize ~rewrite:false opt rewritten)
      | None -> Optimizer.optimize opt bound.query
    in
    let plan = decision.Optimizer.plan in
    let meter = Cost.create ~scale:db.scale () in
    let result = sp "exec.run" (fun () -> Executor.run db.catalog meter plan) in
    Ok
      {
        plan;
        snapshot = Cost.snapshot meter;
        result;
        alternatives = List.length decision.Optimizer.alternatives;
      }
  with e -> Error (Printexc.to_string e)

(* The exact reference: Naive.evaluate_query on the current catalog.  Naive
   covers select-project-join plus grouping, ordering and limits, so it
   evaluates the query after Rewrite (whose rules carry their own
   equivalence laws) has folded subqueries and cross-table conjuncts into
   the join graph; a query that does not reduce to that form is an error
   of the benchmark. *)
let check world (q : W.query) outcome =
  let db = world.dbs.(q.db) in
  match (Rq_sql.Binder.compile db.catalog q.sql, outcome) with
  | Error e, _ | _, Error e -> Error e
  | Ok bound, Ok o ->
      let rewritten, _ = Rewrite.rewrite db.catalog bound.query in
      if rewritten.Logical.residual <> Pred.True || rewritten.semijoins <> [] || rewritten.scalars <> []
      then Error "query does not reduce to a form Naive can evaluate"
      else if Rq_experiments.Exp_common.results_equal (Naive.evaluate_query db.catalog rewritten) o.result
      then Ok ()
      else Error "result differs from Naive.evaluate_query"

(* A lineitem batch: Mutate, then count the changed rows, then refresh the
   statistics if they went stale. *)
let run_write ?tracer world m =
  let db = world.dbs.(0) in
  let table = match m with Rq_workload.Mutate.Grow { table; _ } | Shrink { table; _ } -> table in
  let rows () = Relation.row_count (Catalog.find_table db.catalog table) in
  let before = rows () in
  let applied =
    span tracer "storage.mutate" (fun () -> Rq_workload.Mutate.apply world.mutate_rng db.catalog m)
  in
  let changed = abs (rows () - before) in
  let refreshed =
    span tracer "stats.refresh" (fun () ->
        Maintenance.record_modifications db.maint ~table changed;
        Maintenance.maybe_refresh db.maint)
  in
  if not refreshed then retag tracer "stats.staleness_check";
  (applied, refreshed)

(* -- passes ------------------------------------------------------------- *)

type pass = {
  wall : float;                  (* raw seconds, writes included, kernel runs not *)
  kernel_ms : float array;       (* kernel run times during the pass *)
  spans : span list;             (* traced passes: the pass's spans, in order *)
  latencies : float array;       (* raw seconds per query *)
  allocs : float array;          (* words per query *)
  costs : Cost.snapshot array;   (* per query; zeros for failed ones *)
  plans : Plan.t option array;
  alternatives : int array;
  errors : string list;
  refreshes : int;
  cache_stats : Plan_cache.stats;
  major_collections : int;
}

let zero_snapshot = Cost.snapshot (Cost.create ())

let cache_delta before after =
  Plan_cache.
    {
      hits = after.hits - before.hits;
      misses = after.misses - before.misses;
      invalidations = after.invalidations - before.invalidations;
      evictions = after.evictions - before.evictions;
    }

(* One pass over the op list, with a kernel run before every
   [kernel_every]-th op when a clock is given.  [on_query] runs after each
   query's timing has been taken (the correctness check hooks in there);
   [state] counts the writes applied so far in the pass. *)
let run_pass ?tracer ?clock ?(on_query = fun ~state:_ _ _ -> ()) world (ops : W.op array) =
  restore world;
  let nq = Array.fold_left (fun n -> function W.Query _ -> n + 1 | Write _ -> n) 0 ops in
  let latencies = Array.make nq 0.0 and allocs = Array.make nq 0.0 in
  let costs = Array.make nq zero_snapshot and plans = Array.make nq None in
  let alternatives = Array.make nq 0 in
  let errors = ref [] and refreshes = ref 0 and qi = ref 0 and writes = ref 0 in
  let cache_before = Option.fold ~none:Plan_cache.zero_stats ~some:Plan_cache.stats world.cache in
  let majors = (Gc.quick_stat ()).Gc.major_collections in
  let span_mark = match tracer with Some tr -> tr.count | None -> 0 in
  let t_start = now () and spent0 = Option.fold ~none:0.0 ~some:(fun c -> c.spent) clock in
  Array.iteri
    (fun i op ->
      (match clock with Some c when i mod world.spec.kernel_every = 0 -> calibrate c | _ -> ());
      match op with
      | W.Query q ->
          let a0 = alloc_words () in
          let t0 = now () in
          let r =
            match tracer with
            | None -> run_query world q
            | Some _ -> span tracer ~qid:q.id "query" (fun () -> run_query ?tracer world q)
          in
          let t1 = now () in
          allocs.(!qi) <- alloc_words () -. a0;
          latencies.(!qi) <- t1 -. t0;
          (match r with
          | Ok o ->
              costs.(!qi) <- o.snapshot;
              plans.(!qi) <- Some o.plan;
              alternatives.(!qi) <- o.alternatives
          | Error e -> errors := Printf.sprintf "query %d: %s" q.id e :: !errors);
          on_query ~state:!writes q r;
          incr qi
      | W.Write m -> (
          incr writes;
          match span tracer "write" (fun () -> run_write ?tracer world m) with
          | Ok (), refreshed -> if refreshed then incr refreshes
          | Error e, _ -> errors := ("write: " ^ e) :: !errors))
    ops;
  let wall = now () -. t_start -. (Option.fold ~none:0.0 ~some:(fun c -> c.spent) clock -. spent0) in
  {
    wall;
    kernel_ms =
      (match clock with
      | Some c -> Array.of_list (List.filter_map (fun (t, ms) -> if t >= t_start then Some ms else None) c.samples)
      | None -> [||]);
    spans =
      (match tracer with
      | Some tr -> List.rev (List.filteri (fun i _ -> i < tr.count - span_mark) tr.spans)
      | None -> []);
    latencies;
    allocs;
    costs;
    plans;
    alternatives;
    errors = List.rev !errors;
    refreshes = !refreshes;
    cache_stats =
      cache_delta cache_before
        (Option.fold ~none:Plan_cache.zero_stats ~some:Plan_cache.stats world.cache);
    major_collections = (Gc.quick_stat ()).Gc.major_collections - majors;
  }

(* An untimed pass checking every distinct query against the oracle on
   the catalog state it ran against (each write starts a new state).
   Returns the number checked and the failures. *)
let check_pass world ops =
  let seen = Hashtbl.create 256 in
  let checked = ref 0 and failures = ref [] in
  let on_query ~state (q : W.query) r =
    if not (Hashtbl.mem seen (q.id, state)) then begin
      Hashtbl.add seen (q.id, state) ();
      incr checked;
      match check world q r with
      | Ok () -> ()
      | Error e -> failures := Printf.sprintf "query %d (%s): %s" q.id q.sql e :: !failures
    end
  in
  ignore (run_pass ~on_query world ops);
  (!checked, List.rev !failures)
