open Rq_storage

type result = Exec_common.result = { schema : Schema.t; tuples : Relation.tuple array }

type violation = Exec_common.violation = {
  label : string;
  expected_rows : float;
  actual_rows : int;
  q_error : float;
  result : result;
  subplan : Plan.t;
  complete : bool;
  progress : float;
  resume : Plan.t option;
}

exception Guard_violation = Exec_common.Guard_violation

(* The guard's firing rule is Plan.q_error, the same definition EXPLAIN
   ANALYZE renders — re-exported so callers of the executor need not know. *)
let q_error = Plan.q_error

type mode = Streaming | Materialized

type ctx = {
  catalog : Catalog.t;
  meter : Cost.t;
  obs : Rq_obs.Recorder.t option;
}

let meter_metrics ctx = Cost.to_metrics (Cost.snapshot ctx.meter)

let record ctx event =
  match ctx.obs with None -> () | Some r -> Rq_obs.Recorder.record r event

(* Chunked sequential scan shared by Seq_scan, Scan_resume and the
   star-semijoin dimension scans: per-task charges from the shared planner
   (zone-map-skipped chunks cost pages_skipped only), per-chunk bitmap
   filtering for the rest, matches emitted in RID order. *)
let scan_chunks meter rel ~pred ?(from = 0) emit =
  let match_chunk = Chunk_scan.matcher (Relation.schema rel) pred in
  List.iter
    (fun (t : Chunk_scan.task) ->
      if t.skip then Cost.charge_pages_skipped meter t.pages
      else begin
        Cost.charge_seq_pages meter t.pages;
        Cost.charge_cpu_tuples meter (t.hi - t.lo);
        let base = Relation.chunk_start rel t.ci in
        Relation.with_chunk ~seq:true rel t.ci (fun chunk ->
            match_chunk chunk (fun r tup ->
                let rid = base + r in
                if rid >= t.lo then emit rid tup))
      end)
    (Chunk_scan.tasks ~from rel pred)

let exec_scan catalog meter ~table ~access ~pred =
  let rel = Catalog.find_table catalog table in
  let check = Pred.compile (Relation.schema rel) pred in
  let matching =
    match access with
    | Plan.Seq_scan ->
        let acc = ref [] in
        scan_chunks meter rel ~pred (fun _rid tup -> acc := tup :: !acc);
        Array.of_list (List.rev !acc)
    | Plan.Index_range probe ->
        let idx = Exec_common.find_index_exn catalog ~table ~column:probe.Plan.column in
        let rids = Exec_common.probe_index meter idx probe in
        let fetched = Exec_common.fetch_rids meter rel rids in
        Array.of_seq (Seq.filter check (Array.to_seq fetched))
    | Plan.Index_order { column; descending } ->
        (* Walk the full leaf level in key order, then fetch each row by
           RID: same charges as a whole-index probe plus per-row random
           fetches, but the rows come out pre-sorted on [column]. *)
        let idx = Exec_common.find_index_exn catalog ~table ~column in
        Cost.charge_index_probes meter 1;
        Cost.charge_index_entries meter (Index.entry_count idx);
        Cost.charge_seq_pages meter (Index.leaf_page_count idx);
        let rids = Index.ordered_rids idx ~descending in
        Cost.charge_random_pages meter (Array.length rids);
        Cost.charge_cpu_tuples meter (Array.length rids);
        let acc = ref [] in
        Array.iter
          (fun rid ->
            let tup = Relation.get rel rid in
            if check tup then acc := tup :: !acc)
          rids;
        Array.of_list (List.rev !acc)
    | Plan.Index_intersect probes ->
        (match probes with
        | [] | [ _ ] -> invalid_arg "Executor: Index_intersect needs >= 2 probes"
        | first :: rest ->
            let idx0 =
              Exec_common.find_index_exn catalog ~table ~column:first.Plan.column
            in
            let acc = ref (Exec_common.probe_index meter idx0 first) in
            List.iter
              (fun probe ->
                let idx =
                  Exec_common.find_index_exn catalog ~table ~column:probe.Plan.column
                in
                let rids = Exec_common.probe_index meter idx probe in
                Cost.charge_cpu_tuples meter
                  (Rid_set.cardinality !acc + Rid_set.cardinality rids);
                acc := Rid_set.inter !acc rids)
              rest;
            let fetched = Exec_common.fetch_rids meter rel !acc in
            Array.of_seq (Seq.filter check (Array.to_seq fetched)))
  in
  { schema = Exec_common.qualified_schema catalog table; tuples = matching }

(* Every node executes under a recorder span (when a recorder is attached):
   the span's metric delta is the meter movement attributable to this node's
   whole subtree; the recorder subtracts children to get self cost.  A node
   unwound by an exception (a fired guard, an ill-formed plan) still keeps
   its span — marked aborted — so wasted work stays attributed. *)
let rec exec ctx plan =
  match ctx.obs with
  | None -> exec_node ctx plan
  | Some r -> (
      let h =
        Rq_obs.Recorder.open_span r ~label:(Plan.node_label plan)
          ~metrics:(meter_metrics ctx)
      in
      match exec_node ctx plan with
      | res ->
          Rq_obs.Recorder.close_span r h ~rows:(Array.length res.tuples)
            ~metrics:(meter_metrics ctx);
          res
      | exception e ->
          Rq_obs.Recorder.abort_span r h ~metrics:(meter_metrics ctx);
          raise e)

and exec_node ctx plan =
  let catalog = ctx.catalog and meter = ctx.meter in
  match plan with
  | Plan.Scan { table; access; pred } -> exec_scan catalog meter ~table ~access ~pred
  | Plan.Scan_resume { table; pred; from_rid } ->
      let rel = Catalog.find_table catalog table in
      let n = Relation.row_count rel in
      let from = min (max 0 from_rid) n in
      let acc = ref [] in
      scan_chunks meter rel ~pred ~from (fun _rid tup -> acc := tup :: !acc);
      {
        schema = Exec_common.qualified_schema catalog table;
        tuples = Array.of_list (List.rev !acc);
      }
  | Plan.Append parts ->
      let results = List.map (exec ctx) parts in
      let schema =
        match results with
        | [] -> invalid_arg "Executor: Append needs at least one input"
        | first :: _ -> first.schema
      in
      { schema; tuples = Array.concat (List.map (fun r -> r.tuples) results) }
  | Plan.Hash_join { build; probe; build_key; probe_key } ->
      let build_res = exec ctx build in
      let probe_res = exec ctx probe in
      let bpos = Schema.index_of build_res.schema build_key in
      let ppos = Schema.index_of probe_res.schema probe_key in
      let table = Hashtbl.create (max 16 (Array.length build_res.tuples)) in
      Array.iter
        (fun tup ->
          let key = tup.(bpos) in
          if not (Value.is_null key) then Hashtbl.add table key tup)
        build_res.tuples;
      Cost.charge_hash_build meter (Array.length build_res.tuples);
      Cost.charge_hash_probe meter (Array.length probe_res.tuples);
      let out = ref [] in
      Array.iter
        (fun ptup ->
          let key = ptup.(ppos) in
          if not (Value.is_null key) then
            (* find_all yields reverse insertion order; reverse it back so
               duplicate-key matches come out in build-input order (and both
               engines emit byte-identical results). *)
            List.iter
              (fun btup -> out := Exec_common.concat_tuples btup ptup :: !out)
              (List.rev (Hashtbl.find_all table key)))
        probe_res.tuples;
      let tuples = Array.of_list (List.rev !out) in
      Cost.charge_output_tuples meter (Array.length tuples);
      { schema = Schema.concat build_res.schema probe_res.schema; tuples }
  | Plan.Merge_join { left; right; left_key; right_key } ->
      let sorted_left = Exec_common.output_sorted_on catalog left in
      let sorted_right = Exec_common.output_sorted_on catalog right in
      let left_res = exec ctx left in
      let right_res = exec ctx right in
      let lpos = Schema.index_of left_res.schema left_key in
      let rpos = Schema.index_of right_res.schema right_key in
      let ensure_sorted res pos already =
        if already then res.tuples
        else begin
          Cost.charge_sort meter (Array.length res.tuples);
          let copy = Array.copy res.tuples in
          Array.sort (fun a b -> Value.compare a.(pos) b.(pos)) copy;
          copy
        end
      in
      let ltups = ensure_sorted left_res lpos (sorted_left = Some left_key) in
      let rtups = ensure_sorted right_res rpos (sorted_right = Some right_key) in
      Cost.charge_merge_tuples meter (Array.length ltups + Array.length rtups);
      let out = ref [] in
      let nl = Array.length ltups and nr = Array.length rtups in
      let i = ref 0 and j = ref 0 in
      while !i < nl && !j < nr do
        let kv = ltups.(!i).(lpos) and rv = rtups.(!j).(rpos) in
        if Value.is_null kv then incr i
        else if Value.is_null rv then incr j
        else
          let c = Value.compare kv rv in
          if c < 0 then incr i
          else if c > 0 then incr j
          else begin
            (* Emit the cross product of the equal-key runs. *)
            let i_end = ref !i in
            while !i_end < nl && Value.compare ltups.(!i_end).(lpos) kv = 0 do
              incr i_end
            done;
            let j_end = ref !j in
            while !j_end < nr && Value.compare rtups.(!j_end).(rpos) rv = 0 do
              incr j_end
            done;
            for a = !i to !i_end - 1 do
              for b = !j to !j_end - 1 do
                out := Exec_common.concat_tuples ltups.(a) rtups.(b) :: !out
              done
            done;
            i := !i_end;
            j := !j_end
          end
      done;
      let tuples = Array.of_list (List.rev !out) in
      Cost.charge_output_tuples meter (Array.length tuples);
      { schema = Schema.concat left_res.schema right_res.schema; tuples }
  | Plan.Indexed_nl_join { outer; outer_key; inner_table; inner_key; inner_pred } ->
      let outer_res = exec ctx outer in
      let opos = Schema.index_of outer_res.schema outer_key in
      let inner_rel = Catalog.find_table catalog inner_table in
      let idx = Exec_common.find_index_exn catalog ~table:inner_table ~column:inner_key in
      let check = Pred.compile (Relation.schema inner_rel) inner_pred in
      let out = ref [] in
      Array.iter
        (fun otup ->
          let key = otup.(opos) in
          if not (Value.is_null key) then begin
            Cost.charge_index_probes meter 1;
            let rids = Index.probe_eq idx key in
            Cost.charge_index_entries meter (Rid_set.cardinality rids);
            let fetched = Exec_common.fetch_rids meter inner_rel rids in
            Array.iter
              (fun itup ->
                if check itup then out := Exec_common.concat_tuples otup itup :: !out)
              fetched
          end)
        outer_res.tuples;
      let tuples = Array.of_list (List.rev !out) in
      Cost.charge_output_tuples meter (Array.length tuples);
      {
        schema =
          Schema.concat outer_res.schema
            (Exec_common.qualified_schema catalog inner_table);
        tuples;
      }
  | Plan.Star_semijoin { fact; fact_pred; dims } ->
      exec_star_semijoin catalog meter ~fact ~fact_pred ~dims
  | Plan.Filter (input, pred) ->
      let res = exec ctx input in
      let check = Pred.compile res.schema pred in
      Cost.charge_cpu_tuples meter (Array.length res.tuples);
      { res with tuples = Array.of_seq (Seq.filter check (Array.to_seq res.tuples)) }
  | Plan.Project (input, cols) ->
      let res = exec ctx input in
      let positions = List.map (Schema.index_of res.schema) cols in
      Cost.charge_cpu_tuples meter (Array.length res.tuples);
      {
        schema = Schema.project res.schema cols;
        tuples =
          Array.map (fun tup -> Array.of_list (List.map (fun p -> tup.(p)) positions)) res.tuples;
      }
  | Plan.Sort { input; keys } ->
      let res = exec ctx input in
      let positions =
        List.map
          (fun { Plan.sort_column; descending } ->
            (Schema.index_of res.schema sort_column, descending))
          keys
      in
      Cost.charge_sort meter (Array.length res.tuples);
      let compare_rows a b =
        let rec go = function
          | [] -> 0
          | (pos, descending) :: rest ->
              let c = Value.compare a.(pos) b.(pos) in
              if c <> 0 then if descending then -c else c else go rest
        in
        go positions
      in
      let sorted = Array.copy res.tuples in
      (* Stable, so ties keep the input order (deterministic output). *)
      let indexed = Array.mapi (fun i tup -> (i, tup)) sorted in
      Array.sort
        (fun (i, a) (j, b) ->
          let c = compare_rows a b in
          if c <> 0 then c else Int.compare i j)
        indexed;
      { res with tuples = Array.map snd indexed }
  | Plan.Limit (input, n) ->
      let res = exec ctx input in
      let keep = max 0 (min n (Array.length res.tuples)) in
      Cost.charge_cpu_tuples meter keep;
      { res with tuples = Array.sub res.tuples 0 keep }
  | Plan.Aggregate { input; group_by; aggs } ->
      let res = exec ctx input in
      let agg = Agg.create res.schema ~group_by ~aggs in
      Cost.charge_hash_build meter (Array.length res.tuples);
      Agg.feed agg res.tuples;
      let rows = Agg.finalize agg in
      Cost.charge_output_tuples meter (List.length rows);
      let schema = Plan.schema_of catalog (Plan.Aggregate { input; group_by; aggs }) in
      { schema; tuples = Array.of_list rows }
  | Plan.Guard { input; expected_rows; max_q_error; label } ->
      let res = exec ctx input in
      let actual = Array.length res.tuples in
      (* The guard inspects every materialized row once (a counter pass);
         that honesty is what the <5%-overhead bound is measured against. *)
      Cost.charge_cpu_tuples meter actual;
      let q = q_error ~expected:expected_rows ~actual in
      if q > max_q_error then begin
        record ctx
          (Rq_obs.Trace.Guard_fired
             { label; expected_rows; actual_rows = actual; q_error = q });
        raise
          (Guard_violation
             {
               label;
               expected_rows;
               actual_rows = actual;
               q_error = q;
               result = res;
               subplan = input;
               complete = true;
               progress = 1.0;
               resume = None;
             })
      end
      else begin
        record ctx
          (Rq_obs.Trace.Guard_ok
             { label; expected_rows; actual_rows = actual; q_error = q });
        res
      end
  | Plan.Materialized { schema; tuples; _ } ->
      (* Already paid for when it was first produced; reading it back is free
         in the simulated model (it is sitting in memory). *)
      { schema; tuples }

and exec_star_semijoin catalog meter ~fact ~fact_pred ~dims =
  let fact_rel = Catalog.find_table catalog fact in
  (* Phase 1: per dimension, scan it, collect qualifying keys, and semijoin
     the fact table through its FK index. *)
  let dim_results =
    List.map
      (fun { Plan.dim_table; dim_pred; fact_fk } ->
        let dim_rel = Catalog.find_table catalog dim_table in
        let pk =
          match Catalog.primary_key catalog dim_table with
          | Some pk -> pk
          | None -> invalid_arg (Printf.sprintf "Executor: dim %s has no primary key" dim_table)
        in
        let pk_pos = Schema.index_of (Relation.schema dim_rel) pk in
        let lookup = Hashtbl.create 64 in
        let keys = ref [] in
        scan_chunks meter dim_rel ~pred:dim_pred (fun _rid tup ->
            Hashtbl.replace lookup tup.(pk_pos) tup;
            keys := tup.(pk_pos) :: !keys);
        Cost.charge_hash_build meter (Hashtbl.length lookup);
        let idx = Exec_common.find_index_exn catalog ~table:fact ~column:fact_fk in
        let rid_chunks =
          List.map
            (fun key ->
              Cost.charge_index_probes meter 1;
              let rids = Index.probe_eq idx key in
              Cost.charge_index_entries meter (Rid_set.cardinality rids);
              Rid_set.to_array rids)
            !keys
        in
        let semijoin_rids = Rid_set.of_unsorted (Array.concat rid_chunks) in
        (fact_fk, lookup, semijoin_rids))
      dims
  in
  (* Phase 2: intersect the per-dimension RID sets. *)
  let surviving =
    match dim_results with
    | [] -> invalid_arg "Executor: Star_semijoin with no dimensions"
    | (_, _, first) :: rest ->
        List.fold_left
          (fun acc (_, _, rids) ->
            Cost.charge_cpu_tuples meter (Rid_set.cardinality acc + Rid_set.cardinality rids);
            Rid_set.inter acc rids)
          first rest
  in
  (* Phase 3: fetch qualifying fact rows once, apply the fact predicate and
     stitch the dimension tuples back on. *)
  let fact_schema = Relation.schema fact_rel in
  let check_fact = Pred.compile fact_schema fact_pred in
  let fetched = Exec_common.fetch_rids meter fact_rel surviving in
  let fk_positions =
    List.map (fun (fact_fk, lookup, _) -> (Schema.index_of fact_schema fact_fk, lookup)) dim_results
  in
  let out = ref [] in
  Array.iter
    (fun ftup ->
      if check_fact ftup then begin
        Cost.charge_hash_probe meter (List.length fk_positions);
        let dim_tuples =
          List.map (fun (pos, lookup) -> Hashtbl.find_opt lookup ftup.(pos)) fk_positions
        in
        if List.for_all Option.is_some dim_tuples then
          let row =
            List.fold_left
              (fun acc d -> Exec_common.concat_tuples acc (Option.get d))
              ftup dim_tuples
          in
          out := row :: !out
      end)
    fetched;
  let tuples = Array.of_list (List.rev !out) in
  Cost.charge_output_tuples meter (Array.length tuples);
  let schema =
    List.fold_left
      (fun acc { Plan.dim_table; _ } ->
        Schema.concat acc (Exec_common.qualified_schema catalog dim_table))
      (Exec_common.qualified_schema catalog fact)
      dims
  in
  { schema; tuples }

let run ?obs ?(mode = Streaming) catalog meter plan =
  match mode with
  | Streaming -> Stream_exec.run ?obs catalog meter plan
  | Materialized -> exec { catalog; meter; obs } plan

let run_timed catalog ?constants ?scale ?obs plan =
  let meter = Cost.create ?constants ?scale () in
  let res = run ?obs catalog meter plan in
  (res, Cost.snapshot meter)

let result_to_relation ~name { schema; tuples } = Relation.create ~name ~schema tuples
