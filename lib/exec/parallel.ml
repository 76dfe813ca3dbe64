(* Morsel-driven parallel execution.

   The plan is rewritten in execution order: every maximal parallelizable
   unit — a sequential scan, a resumed scan, a guard directly over either,
   and a hash join probing straight off such a scan — is executed
   immediately on the domain pool and replaced by a [Plan.Materialized]
   leaf; the residual plan then runs through the serial materialized
   engine on the same meter.  Materialized leaves are free to read, so
   meter totals compose exactly: parallel charges + residual charges equal
   the serial materialized engine's charges counter for counter.

   Morsels are page-aligned row ranges (a whole number of heap pages, at
   least 4 x the streaming engine's 1024-row batch): morsel [lo, hi)
   charges [pages_upto hi - lo / rows_per_page] sequential pages, the
   split-page-exact geometry [Scan_resume] uses, so per-morsel page
   charges sum to the serial scan's page count exactly — including a
   resumed scan's re-read of the page its split point sits in.

   Each morsel charges a private {!Cost} meter; the snapshots are absorbed
   into the main meter in morsel-index order ({!Cost.absorb}), so merged
   totals — including the order-sensitive float seconds — are identical no
   matter which domain ran which morsel.  Per-unit recorder spans bracket
   the main meter around each unit (total = self; the unit is one leaf to
   the span tree), so [Recorder.sum_self] over the run's roots still
   reconciles with the meter to 1e-9.

   A guard over a scan runs as a guarded morsel batch: matching rows are
   counted in a shared [Atomic]; the morsel that pushes the count past the
   unrecoverable-overflow bound stops the batch, morsels already in flight
   on other domains finish, and the contiguous completed prefix becomes
   the violation's reusable result with a [Scan_resume] continuation
   covering exactly the unscanned tail. *)

open Rq_storage

type t = { pool : Domain_pool.t }

let create ?(domains = 1) () = { pool = Domain_pool.create ~domains () }
let of_pool pool = { pool }
let domains t = Domain_pool.size t.pool
let shutdown t = Domain_pool.shutdown t.pool

type ctx = {
  pool : Domain_pool.t;
  catalog : Catalog.t;
  meter : Cost.t;
  obs : Rq_obs.Recorder.t option;
  morsels : int ref;  (* morsels absorbed; shared by the fused join's inner ctx *)
}

let record ctx event =
  match ctx.obs with None -> () | Some r -> Rq_obs.Recorder.record r event

(* ------------------------------------------------------------------ *)
(* Morsel geometry                                                     *)
(* ------------------------------------------------------------------ *)

let morsel_target_rows = 4 * Stream_exec.batch_rows

(* Morsels are a whole number of storage chunks (themselves a whole number
   of pages), so every morsel boundary after the first sits on a chunk —
   hence page — boundary: chunk tasks never straddle morsels and page
   charges telescope. *)
let morsel_rows rel =
  let rpc = Relation.rows_per_chunk rel in
  rpc * max 1 ((morsel_target_rows + rpc - 1) / rpc)

(* Row ranges covering [from, row_count), split at absolute multiples of
   the morsel size.  Aligning to the absolute grid (not to [from]) keeps
   every boundary after the first on a chunk boundary, so page charges
   telescope. *)
let morsel_bounds rel ~from =
  let n = Relation.row_count rel in
  let m = morsel_rows rel in
  let acc = ref [] in
  let lo = ref (min (max 0 from) n) in
  while !lo < n do
    let hi = min n (((!lo / m) + 1) * m) in
    acc := (!lo, hi) :: !acc;
    lo := hi
  done;
  Array.of_list (List.rev !acc)

(* One morsel: its chunk tasks, charging a private meter exactly as the
   serial engine charges that row range — zone-map-skipped chunks cost
   pages_skipped only, read chunks are pinned from the buffer pool and
   filtered through the shared per-chunk bitmap matcher. *)
let scan_morsel ~rel ~match_chunk ~constants ~scale tasks =
  let meter = Cost.create ~constants ~scale () in
  let out = ref [] in
  List.iter
    (fun (t : Chunk_scan.task) ->
      if t.skip then Cost.charge_pages_skipped meter t.pages
      else begin
        Cost.charge_seq_pages meter t.pages;
        Cost.charge_cpu_tuples meter (t.hi - t.lo);
        let base = Relation.chunk_start rel t.ci in
        Relation.with_chunk ~seq:true rel t.ci (fun chunk ->
            match_chunk chunk (fun r tup ->
                if base + r >= t.lo then out := tup :: !out))
      end)
    tasks;
  (Array.of_list (List.rev !out), Cost.snapshot meter)

let absorb ctx (snap : Cost.snapshot) =
  Cost.absorb ctx.meter snap;
  incr ctx.morsels

(* ------------------------------------------------------------------ *)
(* Span accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* A parallel unit is one leaf to the span tree: its span's total = self =
   the main meter's movement across the unit (the morsel meters are
   absorbed inside the bracket).  A guard violation is not an abort — the
   prefix rows were produced successfully and are carried in the
   violation — so its span keeps the row count; any other exception marks
   the span aborted, like the serial engines do. *)
let with_unit_span ctx ~label f =
  match ctx.obs with
  | None -> f ()
  | Some r ->
      let metrics () = Cost.to_metrics (Cost.snapshot ctx.meter) in
      let before = metrics () in
      let attach ~rows ~aborted =
        let delta = Rq_obs.Metrics.sub (metrics ()) before in
        Rq_obs.Recorder.attach_span r
          { Rq_obs.Recorder.label; rows; aborted; total = delta; self = delta; children = [] }
      in
      (match f () with
      | res ->
          attach ~rows:(Array.length res.Exec_common.tuples) ~aborted:false;
          res
      | exception Exec_common.Guard_violation v ->
          attach ~rows:v.Exec_common.actual_rows ~aborted:false;
          raise (Exec_common.Guard_violation v)
      | exception e ->
          attach ~rows:(-1) ~aborted:true;
          raise e)

(* ------------------------------------------------------------------ *)
(* Parallel units                                                      *)
(* ------------------------------------------------------------------ *)

let scan_setup ctx ~table ~pred ~from =
  let rel = Catalog.find_table ctx.catalog table in
  let match_chunk = Chunk_scan.matcher (Relation.schema rel) pred in
  let bounds = morsel_bounds rel ~from in
  (* Partition the shared chunk-task plan by morsel: tasks and bounds are
     both in RID order and morsel boundaries are chunk-aligned, so one
     pass assigns each task to the morsel holding its first row. *)
  let groups = Array.make (Array.length bounds) [] in
  let mi = ref 0 in
  List.iter
    (fun (t : Chunk_scan.task) ->
      while t.lo >= snd bounds.(!mi) do
        incr mi
      done;
      groups.(!mi) <- t :: groups.(!mi))
    (Chunk_scan.tasks ~from rel pred);
  let groups = Array.map List.rev groups in
  let constants = Cost.constants ctx.meter and scale = Cost.scale ctx.meter in
  (rel, bounds, fun i -> scan_morsel ~rel ~match_chunk ~constants ~scale groups.(i))

(* Plain parallel scan: all morsels, merged in morsel order. *)
let run_scan_unit ctx ~table ~pred ~from =
  let _, bounds, morsel = scan_setup ctx ~table ~pred ~from in
  let parts =
    Domain_pool.run ctx.pool (Array.length bounds) (fun i -> morsel i)
  in
  Array.iter (fun (_, snap) -> absorb ctx snap) parts;
  {
    Exec_common.schema = Exec_common.qualified_schema ctx.catalog table;
    tuples = Array.concat (List.map fst (Array.to_list parts));
  }

(* Guard directly over a (possibly resumed) sequential scan.  Matching
   rows are counted across domains in an [Atomic]; the morsel that pushes
   the count past the unrecoverable-overflow bound (the streaming guard's
   firing rule: actual > expected * max_q can never recover, since the
   count only grows) stops the batch.  In-flight morsels finish, so the
   completed set is the contiguous prefix [0, k) and the violation resumes
   at the prefix's exact page-aligned end. *)
let run_guarded_scan_unit ctx ~table ~pred ~from ~expected_rows ~max_q_error ~label
    ~subplan =
  let rel, bounds, morsel = scan_setup ctx ~table ~pred ~from in
  let n = Relation.row_count rel in
  let from = min (max 0 from) n in
  let overflow_bound = max_q_error *. Float.max expected_rows 0.5 in
  let seen = Atomic.make 0 in
  let parts =
    Domain_pool.run_prefix ctx.pool (Array.length bounds) (fun i ->
        let ((tuples, _) as part) = morsel i in
        let matched = Array.length tuples in
        let total = Atomic.fetch_and_add seen matched + matched in
        if float_of_int total > overflow_bound then `Stop part else `Done part)
  in
  Array.iter (fun (_, snap) -> absorb ctx snap) parts;
  let result =
    {
      Exec_common.schema = Exec_common.qualified_schema ctx.catalog table;
      tuples = Array.concat (List.map fst (Array.to_list parts));
    }
  in
  let actual = Array.length result.Exec_common.tuples in
  (* The guard inspects every row it saw once (a counter pass) — the same
     honesty charge both serial engines make. *)
  Cost.charge_cpu_tuples ctx.meter actual;
  let complete = Array.length parts = Array.length bounds in
  let q = Plan.q_error ~expected:expected_rows ~actual in
  if (not complete) || q > max_q_error then begin
    record ctx
      (Rq_obs.Trace.Guard_fired { label; expected_rows; actual_rows = actual; q_error = q });
    let prefix_end =
      if complete || Array.length parts = 0 then from
      else snd bounds.(Array.length parts - 1)
    in
    raise
      (Exec_common.Guard_violation
         {
           label;
           expected_rows;
           actual_rows = actual;
           q_error = q;
           result;
           subplan;
           complete;
           progress =
             (if complete || n = from then 1.0
              else float_of_int (prefix_end - from) /. float_of_int (n - from));
           resume =
             (if complete then None
              else Some (Plan.Scan_resume { table; pred; from_rid = prefix_end }));
         })
  end
  else begin
    record ctx
      (Rq_obs.Trace.Guard_ok { label; expected_rows; actual_rows = actual; q_error = q });
    result
  end

(* ------------------------------------------------------------------ *)
(* Plan rewriting                                                      *)
(* ------------------------------------------------------------------ *)

let materialized ~name (res : Exec_common.result) ~refs =
  Plan.Materialized { name; schema = res.Exec_common.schema; tuples = res.Exec_common.tuples; refs }

(* A leaf the morsel engine can partition: a plain sequential scan or the
   resumed tail of one. *)
let scan_leaf = function
  | Plan.Scan { table; access = Plan.Seq_scan; pred } -> Some (table, pred, 0)
  | Plan.Scan_resume { table; pred; from_rid } -> Some (table, pred, from_rid)
  | _ -> None

(* Fused parallel hash join: the probe side is a parallelizable scan.  The
   phases run in the serial materialized engine's charge order — build
   subtree, probe scan (parallel morsels), hash build, hash probe, output
   — so every counter and the float seconds sum land identically.  The
   probe *matching* phase is then re-partitioned over the already-scanned
   probe tuples: per-domain chunks probe the shared read-only hash table
   and their match lists merge in chunk order at the breaker (the charges
   for that phase were already made in bulk, exactly like serial). *)
let rec run_fused_hash_join ctx ~build ~probe_leaf ~build_key ~probe_key =
  let build_res = run_plan ctx build in
  let table, pred, from = probe_leaf in
  let probe_res = run_scan_unit ctx ~table ~pred ~from in
  let bpos = Schema.index_of build_res.Exec_common.schema build_key in
  let ppos = Schema.index_of probe_res.Exec_common.schema probe_key in
  let btuples = build_res.Exec_common.tuples in
  let ptuples = probe_res.Exec_common.tuples in
  let hash = Hashtbl.create (max 16 (Array.length btuples)) in
  Array.iter
    (fun tup ->
      let key = tup.(bpos) in
      if not (Value.is_null key) then Hashtbl.add hash key tup)
    btuples;
  Cost.charge_hash_build ctx.meter (Array.length btuples);
  Cost.charge_hash_probe ctx.meter (Array.length ptuples);
  (* Read-only sharing: the table is never written after build, so probing
     it from several domains is safe. *)
  let chunk = max 1 morsel_target_rows in
  let nchunks = (Array.length ptuples + chunk - 1) / chunk in
  let match_chunks =
    Domain_pool.run ctx.pool nchunks (fun c ->
        let lo = c * chunk and hi = min (Array.length ptuples) ((c + 1) * chunk) in
        let out = ref [] in
        for i = lo to hi - 1 do
          let ptup = ptuples.(i) in
          let key = ptup.(ppos) in
          if not (Value.is_null key) then
            (* find_all yields reverse insertion order; reverse it back so
               duplicate-key matches come out in build-input order. *)
            List.iter
              (fun btup -> out := Exec_common.concat_tuples btup ptup :: !out)
              (List.rev (Hashtbl.find_all hash key))
        done;
        Array.of_list (List.rev !out))
  in
  let tuples = Array.concat (Array.to_list match_chunks) in
  Cost.charge_output_tuples ctx.meter (Array.length tuples);
  {
    Exec_common.schema = Schema.concat build_res.Exec_common.schema probe_res.Exec_common.schema;
    tuples;
  }

(* Rewrite the plan in the serial engine's execution order, running every
   parallelizable unit as it is reached and splicing its output back as a
   [Materialized] leaf.  Anything else is left for the residual
   materialized pass, which charges it exactly as serial execution would
   (Materialized leaves read for free). *)
and rewrite ctx plan =
  match plan with
  | _ when scan_leaf plan <> None ->
      let table, pred, from = Option.get (scan_leaf plan) in
      let res =
        with_unit_span ctx ~label:(Plan.node_label plan) (fun () ->
            run_scan_unit ctx ~table ~pred ~from)
      in
      materialized ~name:table res ~refs:[ (table, pred) ]
  | Plan.Guard { input; expected_rows; max_q_error; label }
    when scan_leaf input <> None ->
      let table, pred, from = Option.get (scan_leaf input) in
      let res =
        with_unit_span ctx ~label:(Plan.node_label plan) (fun () ->
            run_guarded_scan_unit ctx ~table ~pred ~from ~expected_rows ~max_q_error
              ~label ~subplan:input)
      in
      materialized ~name:table res ~refs:[ (table, pred) ]
  | Plan.Hash_join { build; probe; build_key; probe_key }
    when scan_leaf probe <> None ->
      (* The join's unit span brackets the whole fused unit, build subtree
         included; units nested under it must not attach their own spans
         or their deltas would be counted twice.  The inner ctx shares the
         meter, pool and morsel counter but drops the recorder. *)
      let inner = { ctx with obs = None } in
      let res =
        with_unit_span ctx ~label:(Plan.node_label plan) (fun () ->
            run_fused_hash_join inner ~build
              ~probe_leaf:(Option.get (scan_leaf probe))
              ~build_key ~probe_key)
      in
      materialized ~name:"hash_join" res
        ~refs:(match scan_leaf probe with Some (t, p, _) -> [ (t, p) ] | None -> [])
  | Plan.Hash_join { build; probe; build_key; probe_key } ->
      (* Serial execution order: build before probe. *)
      let build = rewrite ctx build in
      let probe = rewrite ctx probe in
      Plan.Hash_join { build; probe; build_key; probe_key }
  | Plan.Merge_join { left; right; left_key; right_key } ->
      (* A clustered scan feeding a merge join satisfies the sort
         requirement through [output_sorted_on]'s shape check; replacing
         it with a Materialized leaf would hide the order and charge a
         sort serial execution doesn't.  Keep such sides serial. *)
      let side plan key =
        match Exec_common.output_sorted_on ctx.catalog plan with
        | Some k when k = key -> plan
        | _ -> rewrite ctx plan
      in
      let left = side left left_key in
      let right = side right right_key in
      Plan.Merge_join { left; right; left_key; right_key }
  | Plan.Indexed_nl_join { outer; outer_key; inner_table; inner_key; inner_pred } ->
      Plan.Indexed_nl_join
        { outer = rewrite ctx outer; outer_key; inner_table; inner_key; inner_pred }
  | Plan.Filter (input, pred) -> Plan.Filter (rewrite ctx input, pred)
  | Plan.Project (input, cols) -> Plan.Project (rewrite ctx input, cols)
  | Plan.Sort { input; keys } -> Plan.Sort { input = rewrite ctx input; keys }
  | Plan.Limit (input, n) -> Plan.Limit (rewrite ctx input, n)
  | Plan.Aggregate { input; group_by; aggs } ->
      Plan.Aggregate { input = rewrite ctx input; group_by; aggs }
  | Plan.Guard { input; expected_rows; max_q_error; label } ->
      Plan.Guard { input = rewrite ctx input; expected_rows; max_q_error; label }
  | Plan.Append parts -> Plan.Append (List.map (rewrite ctx) parts)
  | Plan.Scan _ | Plan.Scan_resume _ | Plan.Star_semijoin _ | Plan.Materialized _ ->
      plan

(* Run a whole subtree: rewrite (executing parallel units), then the
   residual through the serial materialized engine on the same meter.  The
   residual run is unobserved — the enclosing unit span owns its delta. *)
and run_plan ctx plan =
  let residual = rewrite ctx plan in
  Executor.run ~mode:Materialized ctx.catalog ctx.meter residual

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run_counted ?obs (t : t) catalog meter plan =
  let ctx = { pool = t.pool; catalog; meter; obs; morsels = ref 0 } in
  let residual = rewrite ctx plan in
  let res = Executor.run ?obs ~mode:Materialized catalog meter residual in
  (res, !(ctx.morsels))

let run ?obs t catalog meter plan = fst (run_counted ?obs t catalog meter plan)
