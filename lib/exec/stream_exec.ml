(* The pull-based streaming engine.

   Every plan node compiles to a {!Stream.t} carrying column-major
   {!Vbatch.t}s — column slices plus a selection bitset — between
   operators.  Pipelined operators (scans, joins' probe sides,
   filter/project/limit/guard) emit batches as they are pulled, and true
   pipeline breakers (hash build side, sort, aggregate, merge-join inputs)
   drain their children on the first pull.  Tuples materialize only where
   an operator needs whole rows: breaker inputs, index heap fetches, the
   indexed-NL outer side and final output.

   Charging is arranged so a full drain moves every {!Cost} counter
   exactly as the materialized engine does — the charges are the same
   amounts attached to the same physical actions, denominated in logical
   (selected) rows, just incrementally — while early exit (a satisfied
   LIMIT, a mid-stream guard violation) simply stops pulling and leaves
   the unperformed work uncharged.  Representation is free in the cost
   model: moving between tuples and batches charges nothing.

   Span accounting cannot use the recorder's open/close stack: operator
   windows interleave (a parent's pull nests each child pull inside it, but
   successive pulls of one operator are not contiguous).  Instead each
   operator accumulates its inclusive metric delta across all its pulls;
   child windows always sit inside parent windows, so the accumulated
   totals nest exactly like stack spans and self = total - children sums
   telescope back to the meter. *)

open Rq_storage

let batch_rows = 1024

(* First heap-fetch chunk after an index probe.  Fetches ramp up
   geometrically to [batch_rows], so a LIMIT above an ordered index scan
   stops after a few small chunks instead of paying for a full batch of
   random pages — the early-exit discount the cost model applies to
   ordered pipelines under LIMIT.  A full drain charges the same total
   either way. *)
let fetch_ramp_rows = 64

type ctx = { catalog : Catalog.t; meter : Cost.t; obs : Rq_obs.Recorder.t option }

let record ctx event =
  match ctx.obs with None -> () | Some r -> Rq_obs.Recorder.record r event

let meter_metrics ctx = Cost.to_metrics (Cost.snapshot ctx.meter)

(* ------------------------------------------------------------------ *)
(* Span accounting                                                     *)
(* ------------------------------------------------------------------ *)

type span_node = {
  sp_label : string;
  mutable sp_rows : int;
  mutable sp_total : Rq_obs.Metrics.t;
  mutable sp_aborted : bool;
  sp_children : span_node list;
}

(* Row counts are logical (selected) rows. *)
let wrap_spans ctx node (op : Stream.t) =
  let next_batch () =
    let before = meter_metrics ctx in
    match op.Stream.next_batch () with
    | r ->
        node.sp_total <-
          Rq_obs.Metrics.add node.sp_total (Rq_obs.Metrics.sub (meter_metrics ctx) before);
        (match r with
        | Some vb -> node.sp_rows <- node.sp_rows + Vbatch.selected vb
        | None -> ());
        r
    | exception e ->
        node.sp_total <-
          Rq_obs.Metrics.add node.sp_total (Rq_obs.Metrics.sub (meter_metrics ctx) before);
        node.sp_aborted <- true;
        raise e
  in
  { op with Stream.next_batch }

let rec finalize_span node =
  let children = List.map finalize_span node.sp_children in
  let self =
    List.fold_left
      (fun acc (c : Rq_obs.Recorder.span) -> Rq_obs.Metrics.sub acc c.Rq_obs.Recorder.total)
      node.sp_total children
  in
  {
    Rq_obs.Recorder.label = node.sp_label;
    rows = (if node.sp_aborted then -1 else node.sp_rows);
    aborted = node.sp_aborted;
    total = node.sp_total;
    self;
    children;
  }

(* ------------------------------------------------------------------ *)
(* Generic plumbing                                                    *)
(* ------------------------------------------------------------------ *)

(* Materialize every remaining row of an operator (breaker inputs, final
   output). *)
let drain_all (op : Stream.t) =
  let acc = ref [] in
  let rec go () =
    match op.Stream.next_batch () with
    | Some vb ->
        acc := Vbatch.to_tuples vb :: !acc;
        go ()
    | None -> ()
  in
  go ();
  Array.concat (List.rev !acc)

(* Emit an already-computed array in batch_rows slices (breaker outputs,
   materialized leaves). *)
let slice_emitter arr =
  let pos = ref 0 in
  fun () ->
    let n = Array.length !arr in
    if !pos >= n then None
    else begin
      let k = min batch_rows (n - !pos) in
      let b = Array.sub !arr !pos k in
      pos := !pos + k;
      Some (Vbatch.of_tuples b)
    end

(* Tuple-producing operators accumulate their output newest-first. *)
let batch_of_rev_rows = function
  | [] -> None
  | rows -> Some (Vbatch.of_tuples (Array.of_list (List.rev rows)))

let finish_batch ctx out =
  let r = batch_of_rev_rows out in
  Option.iter (fun vb -> Cost.charge_output_tuples ctx.meter vb.Vbatch.n_rows) r;
  r

(* ------------------------------------------------------------------ *)
(* Leaf operators                                                      *)
(* ------------------------------------------------------------------ *)

(* Sequential scan starting at [from] (0 for a whole-table scan), walking
   the shared chunk-task plan: a zone-map-skipped chunk charges
   pages_skipped (free) and is stepped over whole; a read chunk is pulled
   pinned from the buffer pool and sliced into (chunk ∩ [batch_rows]
   window) batches, charging CPU per source row and each heap page the
   first time a row on it is touched.  A full drain thus charges exactly
   the planner's read-page/read-row totals (= page_count/row_count when
   nothing prunes), and stopping early leaves the tail pages unread.

   A window shares the chunk's column arrays zero-copy; its matches become
   the selection ([bitmap ∧ window]), from a per-chunk bitmap computed
   once per chunk.  Zero-match windows are charged but not emitted. *)
let seq_scan_stream ctx ~table ~pred ~from =
  let rel = Catalog.find_table ctx.catalog table in
  let n = Relation.row_count rel in
  let from = min (max 0 from) n in
  let rpp = Relation.rows_per_page rel in
  let bitmap = Chunk_scan.bitmap (Relation.schema rel) pred in
  let tasks = ref (Chunk_scan.tasks ~from rel pred) in
  let pos = ref from in
  (* Absolute index of the next page to charge; starts at the page holding
     [from], so a resume re-reads the split page. *)
  let page_frontier = ref (from / rpp) in
  (* Per-chunk bitmap cache: (chunk index, bits). *)
  let cached_bits = ref (-1, None) in
  let next_batch () =
    let out = ref None in
    while !out = None && !tasks <> [] do
      match !tasks with
      | [] -> ()
      | t :: rest ->
          if t.Chunk_scan.skip then begin
            Cost.charge_pages_skipped ctx.meter t.pages;
            page_frontier := Chunk_scan.pages_upto rpp t.hi;
            pos := t.hi;
            tasks := rest
          end
          else begin
            let stop = min t.hi (!pos + batch_rows) in
            Cost.charge_cpu_tuples ctx.meter (stop - !pos);
            let pages_now = Chunk_scan.pages_upto rpp stop in
            if pages_now > !page_frontier then begin
              Cost.charge_seq_pages ctx.meter (pages_now - !page_frontier);
              page_frontier := pages_now
            end;
            let base = Relation.chunk_start rel t.ci in
            Relation.with_chunk ~seq:true rel t.ci (fun chunk ->
                let bits =
                  match (bitmap, !cached_bits) with
                  | None, _ -> None
                  | Some _, (ci, bits) when ci = t.ci -> bits
                  | Some bm, _ ->
                      let bits = Some (bm chunk) in
                      cached_bits := (t.ci, bits);
                      bits
                in
                let lo = !pos - base and hi = stop - base in
                let sel =
                  match bits with
                  | None -> Bitset.window (Chunk.n_rows chunk) ~lo ~hi
                  | Some b -> Bitset.inter_window b ~lo ~hi
                in
                if Bitset.popcount sel > 0 then
                  out := Some (Vbatch.of_chunk chunk ~sel));
            pos := stop;
            if stop >= t.hi then tasks := rest
          end
    done;
    !out
  in
  Stream.make
    ~schema:(Exec_common.qualified_schema ctx.catalog table)
    ~progress:(fun () ->
      if n = from then 1.0 else float_of_int (!pos - from) /. float_of_int (n - from))
    ~resume:(fun () ->
      if !pos >= n then None else Some (Plan.Scan_resume { table; pred; from_rid = !pos }))
    next_batch

(* Index access paths probe up-front (the B-tree descent is one action),
   then fetch matching RIDs chunk by chunk. *)
let rid_fetch_stream ctx ~table ~pred ~probe_rids =
  let rel = Catalog.find_table ctx.catalog table in
  let check = Pred.compile (Relation.schema rel) pred in
  let rids = ref [||] in
  let started = ref false in
  let fpos = ref 0 in
  let chunk = ref fetch_ramp_rows in
  let next_batch () =
    if not !started then begin
      started := true;
      rids := probe_rids ()
    end;
    let arr = !rids in
    let total = Array.length arr in
    let out = ref [] in
    while !out = [] && !fpos < total do
      let stop = min total (!fpos + !chunk) in
      chunk := min batch_rows (2 * !chunk);
      let k = stop - !fpos in
      Cost.charge_random_pages ctx.meter k;
      Cost.charge_cpu_tuples ctx.meter k;
      for i = !fpos to stop - 1 do
        let tup = Relation.get rel arr.(i) in
        if check tup then out := tup :: !out
      done;
      fpos := stop
    done;
    batch_of_rev_rows !out
  in
  Stream.make
    ~schema:(Exec_common.qualified_schema ctx.catalog table)
    ~progress:(fun () ->
      if not !started then 0.0
      else if Array.length !rids = 0 then 1.0
      else float_of_int !fpos /. float_of_int (Array.length !rids))
    next_batch

let index_range_stream ctx ~table ~pred ~probe =
  let idx = Exec_common.find_index_exn ctx.catalog ~table ~column:probe.Plan.column in
  rid_fetch_stream ctx ~table ~pred ~probe_rids:(fun () ->
      Rid_set.to_array (Exec_common.probe_index ctx.meter idx probe))

(* Ordered scan: pay for the whole leaf level up-front (the index walk is
   one bulk action), then fetch rows lazily in key order — a LIMIT above
   stops pulling and the unfetched heap pages stay uncharged. *)
let index_order_stream ctx ~table ~pred ~column ~descending =
  let idx = Exec_common.find_index_exn ctx.catalog ~table ~column in
  rid_fetch_stream ctx ~table ~pred ~probe_rids:(fun () ->
      Cost.charge_index_probes ctx.meter 1;
      Cost.charge_index_entries ctx.meter (Index.entry_count idx);
      Cost.charge_seq_pages ctx.meter (Index.leaf_page_count idx);
      Index.ordered_rids idx ~descending)

let index_intersect_stream ctx ~table ~pred ~probes =
  rid_fetch_stream ctx ~table ~pred ~probe_rids:(fun () ->
      match probes with
      | [] | [ _ ] -> invalid_arg "Executor: Index_intersect needs >= 2 probes"
      | first :: rest ->
          let idx0 = Exec_common.find_index_exn ctx.catalog ~table ~column:first.Plan.column in
          let acc = ref (Exec_common.probe_index ctx.meter idx0 first) in
          List.iter
            (fun probe ->
              let idx =
                Exec_common.find_index_exn ctx.catalog ~table ~column:probe.Plan.column
              in
              let rids = Exec_common.probe_index ctx.meter idx probe in
              Cost.charge_cpu_tuples ctx.meter
                (Rid_set.cardinality !acc + Rid_set.cardinality rids);
              acc := Rid_set.inter !acc rids)
            rest;
          Rid_set.to_array !acc)

let materialized_stream ~schema ~tuples =
  (* Already paid for when it was first produced; reading it back is free in
     the simulated model. *)
  let arr = ref tuples in
  let emit = slice_emitter arr in
  let n = Array.length tuples in
  let emitted = ref 0 in
  Stream.make ~schema
    ~progress:(fun () -> if n = 0 then 1.0 else float_of_int !emitted /. float_of_int n)
    (fun () ->
      match emit () with
      | Some vb ->
          emitted := !emitted + vb.Vbatch.n_rows;
          Some vb
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

(* Build side materializes (a hash table is a breaker); probing reads the
   key column directly at each selected index and the output batch is
   assembled column-major.  One output batch per match-bearing probe batch,
   matches in probe order × build-input order. *)
let hash_join_stream ctx ~(bop : Stream.t) ~(pop : Stream.t) ~build_key ~probe_key =
  let schema = Schema.concat bop.Stream.schema pop.Stream.schema in
  let bpos = Schema.index_of bop.Stream.schema build_key in
  let ppos = Schema.index_of pop.Stream.schema probe_key in
  let barity = Schema.arity bop.Stream.schema in
  let table = ref None in
  let ensure_table () =
    match !table with
    | Some t -> t
    | None ->
        let build_rows = drain_all bop in
        let n = Array.length build_rows in
        (* Columnarize the build side once; buckets hold build row indices
           (in build-input order) so probing is one [find_opt] plus an
           allocation-free walk over an int array per probe row. *)
        let bcols =
          Array.init barity (fun c -> Array.init n (fun r -> build_rows.(r).(c)))
        in
        let grouped = Hashtbl.create (max 16 n) in
        for r = 0 to n - 1 do
          let key = build_rows.(r).(bpos) in
          if not (Value.is_null key) then
            match Hashtbl.find_opt grouped key with
            | Some l -> Hashtbl.replace grouped key (r :: l)
            | None -> Hashtbl.replace grouped key [ r ]
        done;
        let buckets = Hashtbl.create (Hashtbl.length grouped) in
        Hashtbl.iter
          (fun key l -> Hashtbl.replace buckets key (Array.of_list (List.rev l)))
          grouped;
        Cost.charge_hash_build ctx.meter n;
        let t = (bcols, buckets) in
        table := Some t;
        t
  in
  let drained = ref false in
  let next_batch () =
    let bcols, buckets = ensure_table () in
    let result = ref None in
    while !result = None && not !drained do
      match pop.Stream.next_batch () with
      | None -> drained := true
      | Some vb ->
          let selected = Vbatch.selected vb in
          Cost.charge_hash_probe ctx.meter selected;
          let pcols = vb.Vbatch.cols in
          let pkey = pcols.(ppos) in
          (* Growable parallel index arrays (build row, probe row): matches
             land in probe order × build-input order. *)
          let cap = ref (max 16 selected) and len = ref 0 in
          let bis = ref (Array.make !cap 0) and pis = ref (Array.make !cap 0) in
          let push r i =
            if !len = !cap then begin
              let cap' = 2 * !cap in
              let bis' = Array.make cap' 0 and pis' = Array.make cap' 0 in
              Array.blit !bis 0 bis' 0 !len;
              Array.blit !pis 0 pis' 0 !len;
              bis := bis';
              pis := pis';
              cap := cap'
            end;
            !bis.(!len) <- r;
            !pis.(!len) <- i;
            incr len
          in
          Bitset.iter_set
            (fun i ->
              let key = pkey.(i) in
              if not (Value.is_null key) then
                match Hashtbl.find_opt buckets key with
                | Some rows -> Array.iter (fun r -> push r i) rows
                | None -> ())
            vb.Vbatch.sel;
          let k = !len in
          if k > 0 then begin
            let bis = !bis and pis = !pis in
            let parity = Array.length pcols in
            let cols = Array.make (barity + parity) [||] in
            for c = 0 to barity - 1 do
              let src = bcols.(c) in
              let dst = Array.make k src.(bis.(0)) in
              for j = 1 to k - 1 do
                dst.(j) <- src.(bis.(j))
              done;
              cols.(c) <- dst
            done;
            for c = 0 to parity - 1 do
              let src = pcols.(c) in
              let dst = Array.make k src.(pis.(0)) in
              for j = 1 to k - 1 do
                dst.(j) <- src.(pis.(j))
              done;
              cols.(barity + c) <- dst
            done;
            Cost.charge_output_tuples ctx.meter k;
            result := Some { Vbatch.cols; n_rows = k; sel = Bitset.full k }
          end
    done;
    !result
  in
  Stream.make ~schema ~progress:pop.Stream.progress next_batch

let merge_join_stream ctx ~left_plan ~right_plan ~(lop : Stream.t) ~(rop : Stream.t)
    ~left_key ~right_key =
  let schema = Schema.concat lop.Stream.schema rop.Stream.schema in
  let lpos = Schema.index_of lop.Stream.schema left_key in
  let rpos = Schema.index_of rop.Stream.schema right_key in
  let state = ref None in
  let ensure () =
    match !state with
    | Some s -> s
    | None ->
        let lrows = drain_all lop in
        let rrows = drain_all rop in
        let ensure_sorted rows pos already =
          if already then rows
          else begin
            Cost.charge_sort ctx.meter (Array.length rows);
            let copy = Array.copy rows in
            Array.sort (fun a b -> Value.compare a.(pos) b.(pos)) copy;
            copy
          end
        in
        let ltups =
          ensure_sorted lrows lpos
            (Exec_common.output_sorted_on ctx.catalog left_plan = Some left_key)
        in
        let rtups =
          ensure_sorted rrows rpos
            (Exec_common.output_sorted_on ctx.catalog right_plan = Some right_key)
        in
        Cost.charge_merge_tuples ctx.meter (Array.length ltups + Array.length rtups);
        let s = (ltups, rtups, ref 0, ref 0) in
        state := Some s;
        s
  in
  let next_batch () =
    let ltups, rtups, i, j = ensure () in
    let nl = Array.length ltups and nr = Array.length rtups in
    let out = ref [] in
    while !out = [] && !i < nl && !j < nr do
      let kv = ltups.(!i).(lpos) and rv = rtups.(!j).(rpos) in
      if Value.is_null kv then incr i
      else if Value.is_null rv then incr j
      else
        let c = Value.compare kv rv in
        if c < 0 then incr i
        else if c > 0 then incr j
        else begin
          (* Emit the cross product of the equal-key runs as one batch. *)
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
    finish_batch ctx !out
  in
  Stream.make ~schema
    ~progress:(fun () ->
      match !state with
      | None -> 0.0
      | Some (ltups, _, i, _) ->
          if Array.length ltups = 0 then 1.0
          else float_of_int !i /. float_of_int (Array.length ltups))
    next_batch

let inl_join_stream ctx ~(oop : Stream.t) ~outer_key ~inner_table ~inner_key ~inner_pred =
  let inner_rel = Catalog.find_table ctx.catalog inner_table in
  let idx = Exec_common.find_index_exn ctx.catalog ~table:inner_table ~column:inner_key in
  let check = Pred.compile (Relation.schema inner_rel) inner_pred in
  let schema =
    Schema.concat oop.Stream.schema (Exec_common.qualified_schema ctx.catalog inner_table)
  in
  let opos = Schema.index_of oop.Stream.schema outer_key in
  let drained = ref false in
  let next_batch () =
    let out = ref [] in
    while !out = [] && not !drained do
      match oop.Stream.next_batch () with
      | None -> drained := true
      | Some ob ->
          Array.iter
            (fun otup ->
              let key = otup.(opos) in
              if not (Value.is_null key) then begin
                Cost.charge_index_probes ctx.meter 1;
                let rids = Index.probe_eq idx key in
                Cost.charge_index_entries ctx.meter (Rid_set.cardinality rids);
                let fetched = Exec_common.fetch_rids ctx.meter inner_rel rids in
                Array.iter
                  (fun itup ->
                    if check itup then out := Exec_common.concat_tuples otup itup :: !out)
                  fetched
              end)
            (Vbatch.to_tuples ob)
    done;
    finish_batch ctx !out
  in
  Stream.make ~schema ~progress:oop.Stream.progress next_batch

let star_semijoin_stream ctx ~fact ~fact_pred ~dims =
  let catalog = ctx.catalog and meter = ctx.meter in
  let fact_rel = Catalog.find_table catalog fact in
  let fact_schema = Relation.schema fact_rel in
  let check_fact = Pred.compile fact_schema fact_pred in
  let schema =
    List.fold_left
      (fun acc { Plan.dim_table; _ } ->
        Schema.concat acc (Exec_common.qualified_schema catalog dim_table))
      (Exec_common.qualified_schema catalog fact)
      dims
  in
  let state = ref None in
  (* Phases 1 and 2 (dimension scans, semijoin probes, RID intersection) are
     inherently bulk; only the phase-3 fact fetch streams. *)
  let ensure () =
    match !state with
    | Some s -> s
    | None ->
        let dim_results =
          List.map
            (fun { Plan.dim_table; dim_pred; fact_fk } ->
              let dim_rel = Catalog.find_table catalog dim_table in
              let pk =
                match Catalog.primary_key catalog dim_table with
                | Some pk -> pk
                | None ->
                    invalid_arg
                      (Printf.sprintf "Executor: dim %s has no primary key" dim_table)
              in
              let pk_pos = Schema.index_of (Relation.schema dim_rel) pk in
              let lookup = Hashtbl.create 64 in
              let keys = ref [] in
              let match_chunk =
                Chunk_scan.matcher (Relation.schema dim_rel) dim_pred
              in
              List.iter
                (fun (t : Chunk_scan.task) ->
                  if t.skip then Cost.charge_pages_skipped meter t.pages
                  else begin
                    Cost.charge_seq_pages meter t.pages;
                    Cost.charge_cpu_tuples meter (t.hi - t.lo);
                    Relation.with_chunk ~seq:true dim_rel t.ci
                      (fun chunk ->
                        match_chunk chunk (fun _r tup ->
                            Hashtbl.replace lookup tup.(pk_pos) tup;
                            keys := tup.(pk_pos) :: !keys))
                  end)
                (Chunk_scan.tasks dim_rel dim_pred);
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
        let surviving =
          match dim_results with
          | [] -> invalid_arg "Executor: Star_semijoin with no dimensions"
          | (_, _, first) :: rest ->
              List.fold_left
                (fun acc (_, _, rids) ->
                  Cost.charge_cpu_tuples meter
                    (Rid_set.cardinality acc + Rid_set.cardinality rids);
                  Rid_set.inter acc rids)
                first rest
        in
        let fk_positions =
          List.map
            (fun (fact_fk, lookup, _) -> (Schema.index_of fact_schema fact_fk, lookup))
            dim_results
        in
        let s = (Rid_set.to_array surviving, fk_positions, ref 0) in
        state := Some s;
        s
  in
  let next_batch () =
    let rids, fk_positions, fpos = ensure () in
    let total = Array.length rids in
    let nfk = List.length fk_positions in
    let out = ref [] in
    while !out = [] && !fpos < total do
      let stop = min total (!fpos + batch_rows) in
      let k = stop - !fpos in
      Cost.charge_random_pages meter k;
      Cost.charge_cpu_tuples meter k;
      for i = !fpos to stop - 1 do
        let ftup = Relation.get fact_rel rids.(i) in
        if check_fact ftup then begin
          Cost.charge_hash_probe meter nfk;
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
        end
      done;
      fpos := stop
    done;
    finish_batch ctx !out
  in
  Stream.make ~schema
    ~progress:(fun () ->
      match !state with
      | None -> 0.0
      | Some (rids, _, fpos) ->
          if Array.length rids = 0 then 1.0
          else float_of_int !fpos /. float_of_int (Array.length rids))
    next_batch

(* ------------------------------------------------------------------ *)
(* Unary operators                                                     *)
(* ------------------------------------------------------------------ *)

(* Predicate atoms run as per-column bitmap kernels over the batch's
   physical rows; the result ANDs into the selection.  Rows already
   deselected are evaluated by the kernel but never observed — the charge
   is the arriving logical rows. *)
let filter_stream ctx ~(iop : Stream.t) ~pred =
  let bitmap = Chunk_scan.bitmap iop.Stream.schema pred in
  let drained = ref false in
  let next_batch () =
    let out = ref None in
    while !out = None && not !drained do
      match iop.Stream.next_batch () with
      | None -> drained := true
      | Some vb ->
          Cost.charge_cpu_tuples ctx.meter (Vbatch.selected vb);
          let sel =
            match bitmap with
            | None -> vb.Vbatch.sel
            | Some bm -> Bitset.logand vb.Vbatch.sel (bm (Vbatch.chunk_view vb))
          in
          if Bitset.popcount sel > 0 then out := Some { vb with Vbatch.sel }
    done;
    !out
  in
  Stream.make ~schema:iop.Stream.schema ~progress:iop.Stream.progress next_batch

(* Projection drops column references — no per-row work at all. *)
let project_stream ctx ~(iop : Stream.t) ~cols =
  let positions = Array.of_list (List.map (Schema.index_of iop.Stream.schema) cols) in
  let schema = Schema.project iop.Stream.schema cols in
  let next_batch () =
    match iop.Stream.next_batch () with
    | None -> None
    | Some vb ->
        Cost.charge_cpu_tuples ctx.meter (Vbatch.selected vb);
        Some (Vbatch.project vb positions)
  in
  Stream.make ~schema ~progress:iop.Stream.progress next_batch

let sort_stream ctx ~(iop : Stream.t) ~keys =
  let positions =
    List.map
      (fun { Plan.sort_column; descending } ->
        (Schema.index_of iop.Stream.schema sort_column, descending))
      keys
  in
  let compare_rows a b =
    let rec go = function
      | [] -> 0
      | (pos, descending) :: rest ->
          let c = Value.compare a.(pos) b.(pos) in
          if c <> 0 then if descending then -c else c else go rest
    in
    go positions
  in
  let sorted = ref [||] in
  let started = ref false in
  let emit = slice_emitter sorted in
  let next_batch () =
    if not !started then begin
      started := true;
      let rows = drain_all iop in
      Cost.charge_sort ctx.meter (Array.length rows);
      (* Stable, so ties keep the input order (deterministic output). *)
      let indexed = Array.mapi (fun i tup -> (i, tup)) rows in
      Array.sort
        (fun (i, a) (j, b) ->
          let c = compare_rows a b in
          if c <> 0 then c else Int.compare i j)
        indexed;
      sorted := Array.map snd indexed
    end;
    emit ()
  in
  Stream.make ~schema:iop.Stream.schema
    ~progress:(fun () -> if !started then 1.0 else 0.0)
    next_batch

let limit_stream ctx ~(iop : Stream.t) ~n =
  let remaining = ref (max 0 n) in
  let next_batch () =
    (* The whole point: once satisfied, never pull upstream again. *)
    if !remaining <= 0 then None
    else
      match iop.Stream.next_batch () with
      | None ->
          remaining := 0;
          None
      | Some vb ->
          let k = Vbatch.selected vb in
          let keep = min !remaining k in
          Cost.charge_cpu_tuples ctx.meter keep;
          remaining := !remaining - keep;
          Some (if keep = k then vb else Vbatch.take vb keep)
  in
  Stream.make ~schema:iop.Stream.schema ~progress:iop.Stream.progress next_batch

let aggregate_stream ctx ~plan ~(iop : Stream.t) ~group_by ~aggs =
  let out_schema = Plan.schema_of ctx.catalog plan in
  let rows = ref [||] in
  let started = ref false in
  let emit = slice_emitter rows in
  let next_batch () =
    if not !started then begin
      started := true;
      let agg = Agg.create iop.Stream.schema ~group_by ~aggs in
      let rec pull () =
        match iop.Stream.next_batch () with
        | Some vb ->
            Cost.charge_hash_build ctx.meter (Vbatch.selected vb);
            Agg.feed_cols agg vb.Vbatch.cols vb.Vbatch.sel;
            pull ()
        | None -> ()
      in
      pull ();
      let out = Agg.finalize agg in
      Cost.charge_output_tuples ctx.meter (List.length out);
      rows := Array.of_list out
    end;
    emit ()
  in
  Stream.make ~schema:out_schema
    ~progress:(fun () -> if !started then 1.0 else 0.0)
    next_batch

let guard_stream ctx ~(iop : Stream.t) ~input_plan ~expected_rows ~max_q_error ~label =
  let count = ref 0 in
  let buffered = ref [] in
  let drained = ref false in
  (* Overflow becomes unrecoverable the moment actual > expected * max_q:
     the count only grows, so the drain-time two-sided check would fire
     too.  Underflow can only be judged at drain. *)
  let overflow_bound = max_q_error *. Float.max expected_rows 0.5 in
  let fire ~complete q =
    record ctx
      (Rq_obs.Trace.Guard_fired
         { label; expected_rows; actual_rows = !count; q_error = q });
    (* The carried partial result materializes only now, when the guard
       fires.  [buffered] is newest-first, so rev_map restores arrival
       order. *)
    let result =
      {
        Exec_common.schema = iop.Stream.schema;
        tuples = Array.concat (List.rev_map Vbatch.to_tuples !buffered);
      }
    in
    raise
      (Exec_common.Guard_violation
         {
           label;
           expected_rows;
           actual_rows = !count;
           q_error = q;
           result;
           subplan = input_plan;
           complete;
           progress = (if complete then 1.0 else iop.Stream.progress ());
           resume = (if complete then None else iop.Stream.resume ());
         })
  in
  let next_batch () =
    if !drained then None
    else
      match iop.Stream.next_batch () with
      | Some vb ->
          (* The guard inspects every row once (a counter pass); checked
             before the batch is handed on, so a violated bound never leaks
             rows downstream. *)
          let k = Vbatch.selected vb in
          Cost.charge_cpu_tuples ctx.meter k;
          count := !count + k;
          buffered := vb :: !buffered;
          if float_of_int !count > overflow_bound then
            fire ~complete:false (Plan.q_error ~expected:expected_rows ~actual:!count)
          else Some vb
      | None ->
          drained := true;
          let q = Plan.q_error ~expected:expected_rows ~actual:!count in
          if q > max_q_error then fire ~complete:true q
          else begin
            record ctx
              (Rq_obs.Trace.Guard_ok
                 { label; expected_rows; actual_rows = !count; q_error = q });
            None
          end
  in
  Stream.make ~schema:iop.Stream.schema ~progress:iop.Stream.progress
    ~resume:iop.Stream.resume next_batch

let append_stream ~schema parts =
  let rem = ref parts in
  let done_parts = ref 0 in
  let total = List.length parts in
  let rec next_batch () =
    match !rem with
    | [] -> None
    | (op : Stream.t) :: rest -> (
        match op.Stream.next_batch () with
        | Some vb -> Some vb
        | None ->
            rem := rest;
            incr done_parts;
            next_batch ())
  in
  Stream.make ~schema
    ~progress:(fun () ->
      if total = 0 then 1.0 else float_of_int !done_parts /. float_of_int total)
    next_batch

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Compile a plan to its operator tree; with a recorder attached, every
   operator is wrapped in a span accumulator whose children follow the
   same order {!Explain_analyze} walks plan children in. *)
let rec compile ctx plan : Stream.t * span_node option =
  let op, child_spans =
    match plan with
    | Plan.Scan { table; access; pred } -> (
        match access with
        | Plan.Seq_scan -> (seq_scan_stream ctx ~table ~pred ~from:0, [])
        | Plan.Index_range probe -> (index_range_stream ctx ~table ~pred ~probe, [])
        | Plan.Index_intersect probes -> (index_intersect_stream ctx ~table ~pred ~probes, [])
        | Plan.Index_order { column; descending } ->
            (index_order_stream ctx ~table ~pred ~column ~descending, []))
    | Plan.Scan_resume { table; pred; from_rid } ->
        (seq_scan_stream ctx ~table ~pred ~from:from_rid, [])
    | Plan.Materialized { schema; tuples; _ } -> (materialized_stream ~schema ~tuples, [])
    | Plan.Hash_join { build; probe; build_key; probe_key } ->
        let bop, bspan = compile ctx build in
        let pop, pspan = compile ctx probe in
        (hash_join_stream ctx ~bop ~pop ~build_key ~probe_key, [ bspan; pspan ])
    | Plan.Merge_join { left; right; left_key; right_key } ->
        let lop, lspan = compile ctx left in
        let rop, rspan = compile ctx right in
        ( merge_join_stream ctx ~left_plan:left ~right_plan:right ~lop ~rop ~left_key
            ~right_key,
          [ lspan; rspan ] )
    | Plan.Indexed_nl_join { outer; outer_key; inner_table; inner_key; inner_pred } ->
        let oop, ospan = compile ctx outer in
        (inl_join_stream ctx ~oop ~outer_key ~inner_table ~inner_key ~inner_pred, [ ospan ])
    | Plan.Star_semijoin { fact; fact_pred; dims } ->
        (star_semijoin_stream ctx ~fact ~fact_pred ~dims, [])
    | Plan.Filter (input, pred) ->
        let iop, ispan = compile ctx input in
        (filter_stream ctx ~iop ~pred, [ ispan ])
    | Plan.Project (input, cols) ->
        let iop, ispan = compile ctx input in
        (project_stream ctx ~iop ~cols, [ ispan ])
    | Plan.Sort { input; keys } ->
        let iop, ispan = compile ctx input in
        (sort_stream ctx ~iop ~keys, [ ispan ])
    | Plan.Limit (input, n) ->
        let iop, ispan = compile ctx input in
        (limit_stream ctx ~iop ~n, [ ispan ])
    | Plan.Aggregate { input; group_by; aggs } ->
        let iop, ispan = compile ctx input in
        (aggregate_stream ctx ~plan ~iop ~group_by ~aggs, [ ispan ])
    | Plan.Guard { input; expected_rows; max_q_error; label } ->
        let iop, ispan = compile ctx input in
        ( guard_stream ctx ~iop ~input_plan:input ~expected_rows ~max_q_error ~label,
          [ ispan ] )
    | Plan.Append parts ->
        let compiled = List.map (compile ctx) parts in
        let schema =
          match compiled with
          | [] -> invalid_arg "Executor: Append needs at least one input"
          | (op, _) :: _ -> op.Stream.schema
        in
        (append_stream ~schema (List.map fst compiled), List.map snd compiled)
  in
  match ctx.obs with
  | None -> (op, None)
  | Some _ ->
      let node =
        {
          sp_label = Plan.node_label plan;
          sp_rows = 0;
          sp_total = Rq_obs.Metrics.zero;
          sp_aborted = false;
          sp_children = List.filter_map Fun.id child_spans;
        }
      in
      (wrap_spans ctx node op, Some node)

let run ?obs catalog meter plan =
  let ctx = { catalog; meter; obs } in
  let op, span = compile ctx plan in
  let attach () =
    match (ctx.obs, span) with
    | Some r, Some node -> Rq_obs.Recorder.attach_span r (finalize_span node)
    | _ -> ()
  in
  match drain_all op with
  | tuples ->
      attach ();
      { Exec_common.schema = op.Stream.schema; tuples }
  | exception e ->
      attach ();
      raise e
