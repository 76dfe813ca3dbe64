(* Feedback-guided differential fuzzer (ROADMAP item 4).

   An evolutionary loop over (data-state mutation, stats-fault profile,
   query) triples.  Each case runs through every differential oracle the
   repo has accumulated — four estimators vs the exact oracle, cached vs
   cold optimization, streaming vs materialized execution, evidence kernel
   vs row scan — plus a fifth pass that plans with the *degrading*
   estimator over deliberately faulted statistics and executes under
   guard-driven re-optimization, reconciling the observability spans
   against the cost meter.  Whatever the estimates, the answers must
   agree with the oracle and the counters must add up.

   Coverage is YBFuzz-style Query Plan Guidance: a mutant is kept only if
   it exhibits an unseen (structural plan fingerprint x degradation-tier
   transition digest) pair.  When the search stagnates, the mutator
   escalates: query tweaks -> statistics faults -> data-state mutations.
   Any divergence is delta-debugged down to a minimal case and serialized
   as a replayable .fuzz-repro file carrying the exact seed. *)

open Rq_storage
open Rq_exec
open Rq_optimizer
open Rq_workload
module Rng = Rq_math.Rng
module Json = Rq_obs.Json
module Recorder = Rq_obs.Recorder
module Stats_store = Rq_stats.Stats_store
module Fault = Rq_stats.Fault

(* ------------------------------------------------------------------ *)
(* Genome                                                              *)
(* ------------------------------------------------------------------ *)

type workload = Tpch | Star

type cmp = C_le | C_lt | C_gt | C_ge | C_eq

type literal = L_int of int | L_float of float | L_date of int

type atom = { column : string; cmp : cmp; value : literal }

type table_gene = { table : string; atoms : atom list }

type shape = Total | Grouped | Projected

type query_gene = {
  genes : table_gene list;
  shape : shape;
  semis : table_gene list;
      (* IN-subquery genes: each rides one of the spec's FK triples; a semi
         whose table is already joined in FROM is dropped at compile time
         (the logical layer rejects disguised self-joins) *)
  order : bool;  (* ORDER BY the shape's sort column *)
  descending : bool;
  limit : int option;
      (* honored only where every candidate plan emits one canonical row
         order: single-table Projected queries without semijoins *)
}

type case = {
  workload : workload;
  catalog_seed : int;
  mutations : Mutate.t list;
  faults : Fault.injection list;
  query : query_gene;
  pool_pages : int option;
      (* buffer-pool-capacity gene: cap the global pool (in 8 KiB pages)
         while the case's passes run.  Eviction pressure must never change
         answers — a tiny pool only re-faults chunks. *)
}

let workload_to_string = function Tpch -> "tpch" | Star -> "star"

let workload_of_string = function
  | "tpch" -> Ok Tpch
  | "star" -> Ok Star
  | s -> Error (Printf.sprintf "unknown workload %S" s)

let cmp_to_string = function
  | C_le -> "le"
  | C_lt -> "lt"
  | C_gt -> "gt"
  | C_ge -> "ge"
  | C_eq -> "eq"

let cmp_of_string = function
  | "le" -> Ok C_le
  | "lt" -> Ok C_lt
  | "gt" -> Ok C_gt
  | "ge" -> Ok C_ge
  | "eq" -> Ok C_eq
  | s -> Error (Printf.sprintf "unknown comparison %S" s)

let shape_to_string = function
  | Total -> "total"
  | Grouped -> "grouped"
  | Projected -> "projected"

let shape_of_string = function
  | "total" -> Ok Total
  | "grouped" -> Ok Grouped
  | "projected" -> Ok Projected
  | s -> Error (Printf.sprintf "unknown shape %S" s)

(* ------------------------------------------------------------------ *)
(* Workload specs: the same predicate/table space as test_differential  *)
(* ------------------------------------------------------------------ *)

type atom_pool = { p_column : string; p_cmps : cmp array; p_draw : Rng.t -> literal }

type table_spec = { t_name : string; t_pools : atom_pool array }

type spec = {
  s_root : table_spec;
  s_satellites : table_spec array;
  s_group : string;        (* qualified GROUP BY column *)
  s_agg : string;          (* qualified SUM target *)
  s_projection : string list;
  s_order : string;        (* Projected-shape sort column; in s_projection *)
  s_semis : (string * string * string) array;
      (* (inner table, qualified outer key, inner key) FK triples the
         IN-subquery genes draw from *)
}

let ship_day0 = match fst Tpch.ship_window with Value.Date d -> d | _ -> 0

let tpch_spec =
  {
    s_root =
      {
        t_name = "lineitem";
        t_pools =
          [|
            {
              p_column = "l_quantity";
              p_cmps = [| C_le; C_gt; C_ge; C_lt |];
              p_draw = (fun rng -> L_int (1 + Rng.int rng 50));
            };
            {
              p_column = "l_extendedprice";
              p_cmps = [| C_gt; C_le |];
              p_draw = (fun rng -> L_float (Rng.float rng 120_000.0));
            };
            {
              p_column = "l_shipdate";
              p_cmps = [| C_le; C_gt |];
              p_draw = (fun rng -> L_date (ship_day0 - 200 + Rng.int rng 600));
            };
          |];
      };
    s_satellites =
      [|
        {
          t_name = "orders";
          t_pools =
            [|
              {
                p_column = "o_totalprice";
                p_cmps = [| C_gt; C_le |];
                p_draw = (fun rng -> L_float (Rng.float rng 250_000.0));
              };
            |];
        };
        {
          t_name = "part";
          t_pools =
            [|
              {
                p_column = "p_size";
                p_cmps = [| C_lt; C_ge |];
                p_draw = (fun rng -> L_int (1 + Rng.int rng 50));
              };
              {
                p_column = "p_bucket";
                p_cmps = [| C_eq |];
                p_draw = (fun rng -> L_int (Rng.int rng 1000));
              };
            |];
        };
      |];
    s_group = "lineitem.l_quantity";
    s_agg = "lineitem.l_extendedprice";
    s_projection = [ "lineitem.l_rowid"; "lineitem.l_extendedprice" ];
    s_order = "lineitem.l_extendedprice";
    s_semis =
      [|
        ("orders", "lineitem.l_orderkey", "o_orderkey");
        ("part", "lineitem.l_partkey", "p_partkey");
      |];
  }

let star_spec =
  let dim n =
    {
      t_name = Printf.sprintf "dim%d" n;
      t_pools =
        [|
          {
            p_column = "d_filter";
            p_cmps = [| C_eq |];
            p_draw = (fun rng -> L_int (Rng.int rng 10));
          };
        |];
    }
  in
  {
    s_root =
      {
        t_name = "fact";
        t_pools =
          [|
            {
              p_column = "f_m1";
              p_cmps = [| C_gt; C_le |];
              p_draw = (fun rng -> L_float (Rng.float rng 1000.0));
            };
          |];
      };
    s_satellites = [| dim 1; dim 2; dim 3 |];
    s_group = "fact.f_dim1";
    s_agg = "fact.f_m1";
    s_projection = [ "fact.f_id"; "fact.f_m1" ];
    s_order = "fact.f_m1";
    s_semis =
      [|
        ("dim1", "fact.f_dim1", "d_key");
        ("dim2", "fact.f_dim2", "d_key");
        ("dim3", "fact.f_dim3", "d_key");
      |];
  }

let spec_of = function Tpch -> tpch_spec | Star -> star_spec

let table_spec spec name =
  if spec.s_root.t_name = name then Some spec.s_root
  else Array.find_opt (fun t -> t.t_name = name) spec.s_satellites

(* ------------------------------------------------------------------ *)
(* Genome -> logical query                                             *)
(* ------------------------------------------------------------------ *)

let expr_of_literal = function
  | L_int n -> Expr.int n
  | L_float f -> Expr.float f
  | L_date d -> Expr.Const (Value.Date d)

let pred_cmp = function
  | C_le -> Pred.Le
  | C_lt -> Pred.Lt
  | C_gt -> Pred.Gt
  | C_ge -> Pred.Ge
  | C_eq -> Pred.Eq

let pred_of_atom a = Pred.Cmp (pred_cmp a.cmp, Expr.col a.column, expr_of_literal a.value)

let sum col name = { Plan.fn = Plan.Sum (Expr.col col); output_name = name }
let count name = { Plan.fn = Plan.Count_star; output_name = name }

let compile_case case =
  let spec = spec_of case.workload in
  let q = case.query in
  let refs =
    List.map
      (fun g -> Logical.scan ~pred:(Pred.conj (List.map pred_of_atom g.atoms)) g.table)
      q.genes
  in
  let from_tables = List.map (fun g -> g.table) q.genes in
  let semijoins =
    List.filter_map
      (fun g ->
        if List.mem g.table from_tables then None
        else
          Array.find_opt (fun (t, _, _) -> t = g.table) spec.s_semis
          |> Option.map (fun (_, outer_key, inner_key) ->
                 {
                   Logical.outer_key;
                   inner = Logical.scan ~pred:(Pred.conj (List.map pred_of_atom g.atoms)) g.table;
                   inner_key;
                 }))
      q.semis
  in
  let sort col = [ { Plan.sort_column = col; descending = q.descending } ] in
  match q.shape with
  | Total -> Logical.query ~semijoins ~aggs:[ sum spec.s_agg "total"; count "n" ] refs
  | Grouped ->
      let order_by = if q.order then sort "total" else [] in
      Logical.query ~semijoins ~group_by:[ spec.s_group ]
        ~aggs:[ sum spec.s_agg "total" ] ~order_by refs
  | Projected ->
      let order_by = if q.order then sort spec.s_order else [] in
      let limit =
        (* every candidate plan for a single-table, semijoin-free query
           emits one canonical row order (RID order, or the identical
           stable-sorted order), so LIMIT stays deterministic across the
           differential arms *)
        if List.length q.genes = 1 && semijoins = [] then q.limit else None
      in
      Logical.query ~semijoins ~projection:spec.s_projection ~order_by ?limit refs

(* ------------------------------------------------------------------ *)
(* Serialization (corpus entries and .fuzz-repro files)                *)
(* ------------------------------------------------------------------ *)

let literal_to_json = function
  | L_int n -> Json.Obj [ ("int", Json.Num (float_of_int n)) ]
  | L_float f -> Json.Obj [ ("float", Json.Num f) ]
  | L_date d -> Json.Obj [ ("date", Json.Num (float_of_int d)) ]

let literal_of_json = function
  | Json.Obj [ ("int", Json.Num n) ] -> Ok (L_int (int_of_float n))
  | Json.Obj [ ("float", Json.Num f) ] -> Ok (L_float f)
  | Json.Obj [ ("date", Json.Num d) ] -> Ok (L_date (int_of_float d))
  | j -> Error ("bad literal: " ^ Json.to_string j)

let atom_to_json a =
  Json.Obj
    [
      ("column", Json.Str a.column);
      ("cmp", Json.Str (cmp_to_string a.cmp));
      ("value", literal_to_json a.value);
    ]

let ( let* ) = Result.bind

let jfield name = function
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error (Printf.sprintf "expected an object with field %S" name)

let jstr name obj =
  match jfield name obj with
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "field %S must be a string" name)
  | Error e -> Error e

let jnum name obj =
  match jfield name obj with
  | Ok (Json.Num n) -> Ok n
  | Ok _ -> Error (Printf.sprintf "field %S must be a number" name)
  | Error e -> Error e

let jlist name obj =
  match jfield name obj with
  | Ok (Json.List l) -> Ok l
  | Ok _ -> Error (Printf.sprintf "field %S must be a list" name)
  | Error e -> Error e

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let atom_of_json j =
  let* column = jstr "column" j in
  let* cmp_s = jstr "cmp" j in
  let* cmp = cmp_of_string cmp_s in
  let* value_j = jfield "value" j in
  let* value = literal_of_json value_j in
  Ok { column; cmp; value }

let case_to_json case =
  Json.Obj
    ([
      ("workload", Json.Str (workload_to_string case.workload));
      ("catalog_seed", Json.Num (float_of_int case.catalog_seed));
      ("mutations", Json.List (List.map (fun m -> Json.Str (Mutate.to_string m)) case.mutations));
      ("faults", Json.List (List.map Fault.injection_to_json case.faults));
    ]
    @ (* emitted only when set, so corpora from older builds round-trip *)
    (match case.pool_pages with
    | None -> []
    | Some n -> [ ("pool_pages", Json.Num (float_of_int n)) ])
    @ [
      ( "query",
        let gene_json g =
          Json.Obj
            [
              ("table", Json.Str g.table);
              ("atoms", Json.List (List.map atom_to_json g.atoms));
            ]
        in
        let q = case.query in
        Json.Obj
          ([
             ("shape", Json.Str (shape_to_string q.shape));
             ("tables", Json.List (List.map gene_json q.genes));
           ]
          (* widened-surface genes are emitted only when set, so corpora
             written by older builds parse and vice versa *)
          @ (if q.semis = [] then [] else [ ("semis", Json.List (List.map gene_json q.semis)) ])
          @ (if not q.order then []
             else [ ("order", Json.Str (if q.descending then "desc" else "asc")) ])
          @
          match q.limit with
          | None -> []
          | Some n -> [ ("limit", Json.Num (float_of_int n)) ]) );
    ])

let case_of_json j =
  let* workload_s = jstr "workload" j in
  let* workload = workload_of_string workload_s in
  let* catalog_seed_f = jnum "catalog_seed" j in
  let catalog_seed = int_of_float catalog_seed_f in
  let* mutation_js = jlist "mutations" j in
  let* mutations =
    map_result
      (function Json.Str s -> Mutate.of_string s | _ -> Error "mutation must be a string")
      mutation_js
  in
  let* fault_js = jlist "faults" j in
  let* faults = map_result Fault.injection_of_json fault_js in
  let* query_j = jfield "query" j in
  let* shape_s = jstr "shape" query_j in
  let* shape = shape_of_string shape_s in
  let gene_of_json g =
    let* table = jstr "table" g in
    let* atom_js = jlist "atoms" g in
    let* atoms = map_result atom_of_json atom_js in
    Ok { table; atoms }
  in
  let* table_js = jlist "tables" query_j in
  let* genes = map_result gene_of_json table_js in
  (* optional widened-surface genes: absent in corpora from older builds *)
  let jopt name = match query_j with Json.Obj fields -> List.assoc_opt name fields | _ -> None in
  let* semis =
    match jopt "semis" with
    | None -> Ok []
    | Some (Json.List l) -> map_result gene_of_json l
    | Some _ -> Error "field \"semis\" must be a list"
  in
  let* order, descending =
    match jopt "order" with
    | None -> Ok (false, false)
    | Some (Json.Str "asc") -> Ok (true, false)
    | Some (Json.Str "desc") -> Ok (true, true)
    | Some _ -> Error "field \"order\" must be \"asc\" or \"desc\""
  in
  let* limit =
    match jopt "limit" with
    | None -> Ok None
    | Some (Json.Num n) -> Ok (Some (int_of_float n))
    | Some _ -> Error "field \"limit\" must be a number"
  in
  (* optional top-level genes: absent in corpora from older builds; fields
     of retired genes (["vectorize"]) are ignored *)
  let* pool_pages =
    match (match j with Json.Obj fields -> List.assoc_opt "pool_pages" fields | _ -> None) with
    | None -> Ok None
    | Some (Json.Num n) -> Ok (Some (int_of_float n))
    | Some _ -> Error "field \"pool_pages\" must be a number"
  in
  if genes = [] then Error "query has no tables"
  else
    Ok
      {
        workload;
        catalog_seed;
        mutations;
        faults;
        query = { genes; shape; semis; order; descending; limit };
        pool_pages;
      }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  iterations : int;            (* mutation steps; 0 = unbounded (soak) *)
  seed : int;
  time_budget : float option;  (* wall seconds *)
  corpus_dir : string option;
  baseline : bool;             (* also run the pure-random control *)
  late_after : int option;     (* require a new pair after this iteration *)
  self_test : bool;
  self_test_rewrite : bool;    (* plant an unsound rewrite instead *)
  repro_file : string;
  workloads : workload list;
  catalog_seeds : int list;
  tpch_scale : float;
  star_rows : int;
  sample_size : int;
  reopt_threshold : float;
  seed_corpus : int;           (* initial random cases *)
  shrink_budget : int;         (* max case evaluations while shrinking *)
}

let default_config =
  {
    iterations = 200;
    seed = 5;
    time_budget = None;
    corpus_dir = None;
    baseline = false;
    late_after = None;
    self_test = false;
    self_test_rewrite = false;
    repro_file = "divergence.fuzz-repro";
    workloads = [ Tpch; Star ];
    catalog_seeds = [ 0; 1 ];
    tpch_scale = 0.001;
    star_rows = 2_000;
    sample_size = 150;
    reopt_threshold = 4.0;
    seed_corpus = 8;
    shrink_budget = 200;
  }

(* ------------------------------------------------------------------ *)
(* Environments (memoized catalogs + statistics)                       *)
(* ------------------------------------------------------------------ *)

type env = {
  e_catalog : Catalog.t;
  e_scale : float;
  e_stats : Stats_store.t;     (* healthy, built over the mutated catalog *)
}

(* Seeds for the deterministic sub-streams.  They depend only on fields
   that survive serialization, so a replayed .fuzz-repro rebuilds the
   byte-identical environment. *)
let mutation_seed case = (case.catalog_seed * 1_000_003) + 11
let stats_seed case = (case.catalog_seed * 7919) + 13
let fault_seed case = (case.catalog_seed * 1_000_003) + 7

let env_cache : (string, (env, string) result) Hashtbl.t = Hashtbl.create 32

let env_key config case =
  Printf.sprintf "%s/%d/%g/%d/%d/%s"
    (workload_to_string case.workload)
    case.catalog_seed config.tpch_scale config.star_rows config.sample_size
    (String.concat "," (List.map Mutate.to_string case.mutations))

let base_catalog config case =
  match case.workload with
  | Tpch ->
      let params = { Tpch.default_params with scale_factor = config.tpch_scale } in
      Tpch.generate (Rng.create ((case.catalog_seed * 2) + 1)) ~params ()
  | Star ->
      let params = { Star.default_params with fact_rows = config.star_rows } in
      Star.generate (Rng.create ((case.catalog_seed * 2) + 2)) ~params ()

let build_env config case =
  let key = env_key config case in
  match Hashtbl.find_opt env_cache key with
  | Some env -> env
  | None ->
      if Hashtbl.length env_cache > 32 then Hashtbl.reset env_cache;
      let env =
        let catalog = base_catalog config case in
        match Mutate.apply_all (Rng.create (mutation_seed case)) catalog case.mutations with
        | Error e -> Error e
        | Ok () ->
            let scale =
              match case.workload with
              | Tpch -> Tpch.cost_scale catalog
              | Star -> Star.cost_scale catalog
            in
            let stats =
              Stats_store.update_statistics
                (Rng.create (stats_seed case))
                ~config:{ Stats_store.default_config with sample_size = config.sample_size }
                catalog
            in
            Ok { e_catalog = catalog; e_scale = scale; e_stats = stats }
      in
      Hashtbl.add env_cache key env;
      env

(* ------------------------------------------------------------------ *)
(* One case through every differential pass                            *)
(* ------------------------------------------------------------------ *)

type divergence = { pass : string; detail : string }

type probe = { coverage : string * string; divergence : divergence option }

let estimator_configs stats =
  let est () =
    Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.(resolve default_setting) ()
  in
  [
    ("robust-sampling", Cardinality.robust stats (est ()));
    ("histogram-avi", Cardinality.histogram_avi stats);
    ("sample-avi", Cardinality.sample_avi stats (est ()));
    ("sample-ml", Cardinality.sample_ml stats);
  ]

let fresh_estimator () =
  Rq_core.Robust_estimator.create ~confidence:Rq_core.Confidence.(resolve default_setting) ()

(* The --self-test sabotage: inflate the quantile the perturbed arm turns
   into cardinalities and selectivities.  The answers it computes stay
   correct — only its plan choices drift, which is exactly the class of
   bug the kernel-vs-scan pass exists to catch. *)
let perturb_estimator (c : Cardinality.t) =
  {
    c with
    name = c.name ^ "+perturbed";
    expression_cardinality = (fun refs -> (5.0 *. c.expression_cardinality refs) +. 25.0);
    table_selectivity =
      (fun ~table pred -> Float.min 1.0 ((3.0 *. c.table_selectivity ~table pred) +. 0.05));
  }

let mismatch_detail reference candidate =
  let render r =
    let rows = Exp_common.canonical_rows r in
    let n = Array.length rows in
    let shown = Array.to_list (Array.sub rows 0 (min 3 n)) in
    Printf.sprintf "%d rows [%s%s]" n (String.concat " | " shown) (if n > 3 then " ..." else "")
  in
  Printf.sprintf "reference %s vs candidate %s" (render reference) (render candidate)

let run_case config ~self_test ~self_test_rewrite env case : (probe, string) result =
  let query = compile_case case in
  let scale = env.e_scale in
  let stats = env.e_stats in
  let catalog = env.e_catalog in
  let plans = Buffer.create 128 in
  let add_plan label plan =
    if Buffer.length plans > 0 then Buffer.add_char plans ';';
    Buffer.add_string plans (label ^ "=" ^ Plan.describe plan)
  in
  let tier = ref "" in
  let divergence = ref None in
  let fail pass detail = if !divergence = None then divergence := Some { pass; detail } in
  let guarded pass f =
    if !divergence = None then
      try f ()
      with exn -> fail ("crash:" ^ pass) (Printexc.to_string exn)
  in
  let execute ?mode plan =
    let meter = Cost.create ~scale () in
    let result = Executor.run ?mode catalog meter plan in
    (result, Cost.snapshot meter)
  in
  (* Pass 0: the exact oracle sets the reference answer. *)
  let oracle_opt = Optimizer.create ~scale stats (Cardinality.oracle catalog) in
  match Optimizer.optimize oracle_opt query with
  | Error e ->
      (* the mutator built an unplannable query: not a divergence, the
         case is simply invalid *)
      Error (Printf.sprintf "oracle rejected: %s" e)
  | Ok od ->
      let reference = ref None in
      guarded "oracle-execute" (fun () ->
          add_plan "o" od.Optimizer.plan;
          reference := Some (fst (execute od.Optimizer.plan)));
      let against_reference pass result =
        match !reference with
        | Some r when not (Exp_common.results_equal r result) ->
            fail pass (mismatch_detail r result)
        | _ -> ()
      in
      (* Pass 1: every estimator's plan answers like the oracle. *)
      List.iter
        (fun (name, estimator) ->
          guarded ("estimator:" ^ name) (fun () ->
              let opt = Optimizer.create ~scale stats estimator in
              match Optimizer.optimize opt query with
              | Error e -> fail ("estimator:" ^ name) ("rejected: " ^ e)
              | Ok d ->
                  add_plan name d.Optimizer.plan;
                  against_reference ("estimator:" ^ name) (fst (execute d.Optimizer.plan))))
        (estimator_configs stats);
      (* Pass 2: cached-vs-cold through a fresh plan cache. *)
      guarded "cache" (fun () ->
          let opt = Optimizer.robust ~scale stats in
          let cache = Plan_cache.create () in
          let fingerprint =
            Rq_sql.Fingerprint.to_key
              (Rq_sql.Fingerprint.of_logical
                 ~estimator:(Optimizer.estimator opt).Cardinality.name query)
          in
          List.iter
            (fun (pass, expected) ->
              match Plan_cache.find_or_optimize cache opt ~fingerprint query with
              | Error e -> fail ("cache:" ^ pass) ("rejected: " ^ e)
              | Ok (d, outcome) ->
                  let got = Plan_cache.outcome_to_string outcome in
                  if got <> expected then
                    fail ("cache:" ^ pass)
                      (Printf.sprintf "expected %s lookup, got %s" expected got)
                  else against_reference ("cache:" ^ pass) (fst (execute d.Optimizer.plan)))
            [ ("cold", "miss"); ("cached", "hit") ])
      ;
      (* Pass 3: streaming vs materialized on the robust plan: identical
         tuples, identical cost counters. *)
      guarded "engine" (fun () ->
          let opt = Optimizer.robust ~scale stats in
          match Optimizer.optimize opt query with
          | Error e -> fail "engine" ("rejected: " ^ e)
          | Ok d ->
              let sres, ssnap = execute ~mode:Executor.Streaming d.Optimizer.plan in
              let mres, msnap = execute ~mode:Executor.Materialized d.Optimizer.plan in
              if sres.Executor.tuples <> mres.Executor.tuples then
                fail "engine" (mismatch_detail mres sres)
              else if
                (* under LIMIT the streaming engine legitimately early-exits
                   and reads fewer pages; only the tuples must agree *)
                query.Logical.limit = None
                && not (Exp_common.snapshots_equal ssnap msnap)
              then
                fail "engine:counters"
                  (Printf.sprintf "streaming %s\nmaterialized %s"
                     (Format.asprintf "%a" Cost.pp_snapshot ssnap)
                     (Format.asprintf "%a" Cost.pp_snapshot msnap)));
      (* Pass 4: evidence kernel vs row scan (the --self-test sabotage
         perturbs the scan arm's estimator here). *)
      guarded "kernel" (fun () ->
          let names =
            List.map (fun (r : Logical.table_ref) -> r.Logical.table) query.Logical.tables
          in
          (match Rq_stats.Stats_store.synopsis_for stats names with
          | None -> ()
          | Some syn ->
              let pred =
                Pred.conj
                  (List.map
                     (fun (r : Logical.table_ref) ->
                       Pred.rename_columns (fun c -> r.Logical.table ^ "." ^ c) r.Logical.pred)
                     query.Logical.tables)
              in
              let kk, kn = Rq_stats.Join_synopsis.evidence syn pred in
              let sk, sn = Rq_stats.Join_synopsis.evidence_scan syn pred in
              if (kk, kn) <> (sk, sn) then
                fail "kernel:evidence"
                  (Printf.sprintf "kernel (%d, %d) <> scan (%d, %d) on %s" kk kn sk sn
                     (Pred.render pred)));
          if !divergence = None then begin
            let kernel_card = Cardinality.robust stats (fresh_estimator ()) in
            let scan_card =
              let c = Cardinality.robust ~kernel:false stats (fresh_estimator ()) in
              if self_test then perturb_estimator c else c
            in
            let kernel_opt = Optimizer.create ~scale stats kernel_card in
            let scan_opt = Optimizer.create ~scale stats scan_card in
            match (Optimizer.optimize kernel_opt query, Optimizer.optimize scan_opt query) with
            | Error e, _ -> fail "kernel" ("kernel arm rejected: " ^ e)
            | _, Error e -> fail "kernel" ("scan arm rejected: " ^ e)
            | Ok kd, Ok sd ->
                if
                  Exp_common.plan_digest kd.Optimizer.plan
                  <> Exp_common.plan_digest sd.Optimizer.plan
                then
                  fail "kernel:plan-mismatch"
                    (Printf.sprintf "kernel chose %s, scan chose %s"
                       (Plan.describe kd.Optimizer.plan)
                       (Plan.describe sd.Optimizer.plan))
                else begin
                  let kres = fst (execute kd.Optimizer.plan) in
                  let sres = fst (execute sd.Optimizer.plan) in
                  if not (Exp_common.results_equal sres kres) then
                    fail "kernel" (mismatch_detail sres kres)
                end
          end);
      (* Pass 5: the degrading estimator over *faulted* statistics, under
         guard-driven re-optimization, with span/meter reconciliation.
         Bad statistics may cost time, never answers or unaccounted work. *)
      guarded "degraded" (fun () ->
          let faulted = Fault.apply (Rng.create (fault_seed case)) stats case.faults in
          let recorder = Recorder.create () in
          let estimator = Cardinality.degrading ~obs:recorder faulted (fresh_estimator ()) in
          let opt = Optimizer.create ~scale faulted estimator in
          match Optimizer.optimize opt query with
          | Error e -> fail "degraded" ("rejected: " ^ e)
          | Ok d ->
              let outcome =
                Reopt.execute_plan ~threshold:config.reopt_threshold ~obs:recorder opt query
                  d.Optimizer.plan
              in
              against_reference "degraded" outcome.Reopt.result;
              if !divergence = None then begin
                let span_total = Recorder.sum_self (Recorder.roots recorder) in
                let meter_total = Cost.to_metrics outcome.Reopt.snapshot in
                if not (Rq_obs.Metrics.approx_equal ~tolerance:1e-9 span_total meter_total) then
                  fail "degraded:counter-reconciliation"
                    "observability spans do not sum to the cost-meter snapshot";
                add_plan "deg" outcome.Reopt.final_plan;
                tier := Trace_digest.of_recorder recorder
              end);
      (* Pass 6: the logical rewrite layer.  Optimize the query with the
         pass list off and on; both plans must produce the same multiset of
         rows.  The --self-test-rewrite sabotage swaps the rewritten arm's
         input for one with a dropped filter conjunct, which this pass must
         catch. *)
      guarded "rewrite" (fun () ->
          let opt = Optimizer.robust ~scale stats in
          let rewritten_query =
            if self_test_rewrite then Rewrite.unsound_for_tests query else query
          in
          match
            ( Optimizer.optimize ~rewrite:false opt query,
              Optimizer.optimize opt rewritten_query )
          with
          | Error e, _ -> fail "rewrite" ("unrewritten arm rejected: " ^ e)
          | _, Error e -> fail "rewrite" ("rewritten arm rejected: " ^ e)
          | Ok plain, Ok rewritten ->
              add_plan "rw" rewritten.Optimizer.plan;
              let pres = fst (execute plain.Optimizer.plan) in
              let rres = fst (execute rewritten.Optimizer.plan) in
              if not (Exp_common.results_equal pres rres) then
                fail "rewrite"
                  (Printf.sprintf "%s (plain %s vs rewritten %s)"
                     (mismatch_detail pres rres)
                     (Exp_common.plan_digest plain.Optimizer.plan)
                     (Exp_common.plan_digest rewritten.Optimizer.plan)));
      Ok { coverage = (Buffer.contents plans, !tier); divergence = !divergence }

let probe_case ?(self_test = false) ?(self_test_rewrite = false) config case =
  match build_env config case with
  | Error e -> Error e
  | Ok env ->
      match case.pool_pages with
      | None -> run_case config ~self_test ~self_test_rewrite env case
      | Some pages ->
          (* Apply the buffer-pool-capacity gene for the duration of the
             probe, then restore the previous capacity: a starved pool must
             only add fault-ins, never change an answer. *)
          let before =
            (Rq_storage.Buffer_pool.global_stats ()).Rq_storage.Buffer_pool.capacity_chunks
            * Rq_storage.Page.pages_per_chunk
          in
          Rq_storage.Buffer_pool.configure ~capacity_pages:pages;
          Fun.protect
            ~finally:(fun () -> Rq_storage.Buffer_pool.configure ~capacity_pages:before)
            (fun () -> run_case config ~self_test ~self_test_rewrite env case)

(* ------------------------------------------------------------------ *)
(* Random generation and the escalating mutator                        *)
(* ------------------------------------------------------------------ *)

let gen_atom rng pool = { column = pool.p_column; cmp = Rng.pick rng pool.p_cmps; value = pool.p_draw rng }

let gen_table_gene rng ?(max_atoms = 2) ts =
  let n = Rng.int rng (max_atoms + 1) in
  let atoms = List.init n (fun _ -> gen_atom rng (Rng.pick rng ts.t_pools)) in
  { table = ts.t_name; atoms }

let gen_semi rng spec ~present =
  let free =
    Array.to_list spec.s_semis
    |> List.filter (fun (t, _, _) -> not (List.mem t present))
  in
  match free with
  | [] -> None
  | _ ->
      let t, _, _ = Rng.pick rng (Array.of_list free) in
      table_spec spec t |> Option.map (fun ts -> gen_table_gene rng ~max_atoms:1 ts)

let gen_query rng spec =
  let root = gen_table_gene rng spec.s_root in
  let sats =
    Array.to_list spec.s_satellites
    |> List.filter_map (fun ts -> if Rng.bool rng then Some (gen_table_gene rng ~max_atoms:1 ts) else None)
  in
  let genes = root :: sats in
  let semis =
    if Rng.int rng 3 = 0 then
      match gen_semi rng spec ~present:(List.map (fun g -> g.table) genes) with
      | Some s -> [ s ]
      | None -> []
    else []
  in
  let shape = Rng.pick rng [| Total; Grouped; Projected |] in
  let order = shape <> Total && Rng.int rng 3 = 0 in
  let limit = if Rng.int rng 4 = 0 then Some (1 + Rng.int rng 20) else None in
  { genes; shape; semis; order; descending = order && Rng.bool rng; limit }

(* Faults and data mutations target tables the query actually touches:
   damage elsewhere leaves both the plan and the tier digest unchanged, so
   untargeted injections are almost always wasted probes. *)
let gen_fault rng spec tables =
  let root = Rng.pick rng (Array.of_list tables) in
  match Rng.int rng 6 with
  | 0 -> Fault.Drop_synopsis root
  | 1 -> Fault.Truncate_synopsis { root; keep = Rng.pick rng [| 2; 5 |] }
  | 2 -> Fault.Corrupt_synopsis root
  | 3 -> Fault.Skew_synopsis { root; factor = Rng.pick rng [| 16.0; 0.06; 64.0 |] }
  | 4 ->
      let ts =
        match table_spec spec root with Some ts -> ts | None -> spec.s_root
      in
      Fault.Drop_histogram { table = ts.t_name; column = (Rng.pick rng ts.t_pools).p_column }
  | _ -> Fault.Dangling_fk { root; break = Rng.pick rng [| 1; 25; 75 |] }

let gen_mutation rng spec tables =
  if Rng.int rng 3 = 0 then
    (* only the fact/root table is shrinkable (no incoming FK edges) *)
    Mutate.Shrink { table = spec.s_root.t_name; keep_percent = Rng.pick rng [| 60; 25; 0 |] }
  else
    Mutate.Grow { table = Rng.pick rng (Array.of_list tables); percent = Rng.pick rng [| 40; 120 |] }

let query_tables q = List.map (fun g -> g.table) q.genes

let gen_case rng config =
  let workload = Rng.pick rng (Array.of_list config.workloads) in
  let catalog_seed = Rng.pick rng (Array.of_list config.catalog_seeds) in
  let spec = spec_of workload in
  let query = gen_query rng spec in
  let tables = query_tables query in
  (* the pure-random control can reach fault/mutation states too — the
     steered loop must win on search order, not on a larger gene pool *)
  let faults = if Rng.int rng 4 = 0 then [ gen_fault rng spec tables ] else [] in
  let mutations = if Rng.int rng 6 = 0 then [ gen_mutation rng spec tables ] else [] in
  let pool_pages =
    if Rng.int rng 6 = 0 then Some (Rng.pick rng [| 64; 256; 2048 |]) else None
  in
  { workload; catalog_seed; mutations; faults; query; pool_pages }

let cap_list n l = if List.length l > n then List.tl l else l

let nudge_literal rng = function
  | L_int n -> L_int (max 0 (n + Rng.int rng 11 - 5))
  | L_float f -> L_float (f *. Rng.pick rng [| 0.5; 1.5 |])
  | L_date d -> L_date (d + Rng.int rng 61 - 30)

let mutate_query rng spec q =
  let genes = Array.of_list q.genes in
  let pick_gene () = Rng.int rng (Array.length genes) in
  match Rng.int rng 9 with
  | 0 -> (
      (* redraw or nudge one literal *)
      let i = pick_gene () in
      let g = genes.(i) in
      match g.atoms with
      | [] -> q
      | atoms ->
          let j = Rng.int rng (List.length atoms) in
          let atoms =
            List.mapi
              (fun k a ->
                if k <> j then a
                else if Rng.bool rng then { a with value = nudge_literal rng a.value }
                else
                  match table_spec spec g.table with
                  | Some ts -> (
                      match Array.find_opt (fun p -> p.p_column = a.column) ts.t_pools with
                      | Some pool -> { a with value = pool.p_draw rng }
                      | None -> { a with value = nudge_literal rng a.value })
                  | None -> a)
              atoms
          in
          genes.(i) <- { g with atoms };
          { q with genes = Array.to_list genes })
  | 1 -> (
      (* add an atom *)
      let i = pick_gene () in
      let g = genes.(i) in
      match table_spec spec g.table with
      | Some ts when List.length g.atoms < 3 ->
          genes.(i) <- { g with atoms = gen_atom rng (Rng.pick rng ts.t_pools) :: g.atoms };
          { q with genes = Array.to_list genes }
      | _ -> q)
  | 2 -> (
      (* drop an atom *)
      let i = pick_gene () in
      let g = genes.(i) in
      match g.atoms with
      | [] -> q
      | atoms ->
          let j = Rng.int rng (List.length atoms) in
          genes.(i) <- { g with atoms = List.filteri (fun k _ -> k <> j) atoms };
          { q with genes = Array.to_list genes })
  | 3 -> (
      (* join in a satellite not yet present *)
      let present = List.map (fun g -> g.table) q.genes in
      let missing =
        Array.to_list spec.s_satellites
        |> List.filter (fun ts -> not (List.mem ts.t_name present))
      in
      match missing with
      | [] -> q
      | _ ->
          let ts = Rng.pick rng (Array.of_list missing) in
          { q with genes = q.genes @ [ gen_table_gene rng ~max_atoms:1 ts ] })
  | 4 -> (
      (* drop a satellite (never the root) *)
      match q.genes with
      | _root :: [] -> q
      | root :: sats ->
          let j = Rng.int rng (List.length sats) in
          { q with genes = root :: List.filteri (fun k _ -> k <> j) sats }
      | [] -> q)
  | 5 -> (
      (* add or drop an IN-subquery gene *)
      match q.semis with
      | _ :: _ when Rng.bool rng ->
          let j = Rng.int rng (List.length q.semis) in
          { q with semis = List.filteri (fun k _ -> k <> j) q.semis }
      | _ -> (
          let present = List.map (fun g -> g.table) (q.genes @ q.semis) in
          match gen_semi rng spec ~present with
          | Some s when List.length q.semis < 2 -> { q with semis = q.semis @ [ s ] }
          | _ -> q))
  | 6 ->
      (* toggle or flip the ORDER BY gene *)
      if not q.order then { q with order = true; descending = Rng.bool rng }
      else if Rng.bool rng then { q with descending = not q.descending }
      else { q with order = false }
  | 7 -> (
      (* set, nudge or clear LIMIT *)
      match q.limit with
      | None -> { q with limit = Some (1 + Rng.int rng 20) }
      | Some n ->
          if Rng.bool rng then { q with limit = None }
          else { q with limit = Some (max 1 (n + Rng.int rng 11 - 5)) })
  | _ ->
      let shapes = List.filter (fun s -> s <> q.shape) [ Total; Grouped; Projected ] in
      { q with shape = Rng.pick rng (Array.of_list shapes) }

let mutate_case rng ~level _config case =
  let spec = spec_of case.workload in
  let tables = query_tables case.query in
  match level with
  | 0 -> { case with query = mutate_query rng spec case.query }
  | 1 ->
      if case.faults <> [] && Rng.int rng 6 = 0 then
        let j = Rng.int rng (List.length case.faults) in
        { case with faults = List.filteri (fun k _ -> k <> j) case.faults }
      else
        (* stacking faults is the point: compound damage reaches tier
           transition sequences no single injection can produce *)
        { case with faults = cap_list 3 (case.faults @ [ gen_fault rng spec tables ]) }
  | _ ->
      if Rng.int rng 5 = 0 then
        (* toggle or tighten the buffer-pool-capacity gene *)
        { case with
          pool_pages =
            (match case.pool_pages with
            | None -> Some (Rng.pick rng [| 64; 256; 2048 |])
            | Some n -> if Rng.bool rng then None else Some (max 16 (n / 4)));
        }
      else if case.mutations <> [] && Rng.int rng 4 = 0 then
        let j = Rng.int rng (List.length case.mutations) in
        { case with mutations = List.filteri (fun k _ -> k <> j) case.mutations }
      else { case with mutations = cap_list 3 (case.mutations @ [ gen_mutation rng spec tables ]) }

(* ------------------------------------------------------------------ *)
(* Delta-debugging shrink                                              *)
(* ------------------------------------------------------------------ *)

let shrink_literal = function
  | L_int n -> if n = 0 then [] else [ L_int (n / 2); L_int 0 ]
  | L_float f -> if f = 0.0 then [] else [ L_float (f /. 2.0); L_float 0.0 ]
  | L_date d -> [ L_date (d - 100) ]

let weaken_fault = function
  | Fault.Truncate_synopsis { root; keep } when keep < 16 ->
      [ Fault.Truncate_synopsis { root; keep = keep * 4 } ]
  | Fault.Skew_synopsis { root; factor } when factor > 4.0 ->
      [ Fault.Skew_synopsis { root; factor = 4.0 } ]
  | Fault.Dangling_fk { root; break } when break > 1 ->
      [ Fault.Dangling_fk { root; break = break / 2 } ]
  | _ -> []

let weaken_mutation = function
  | Mutate.Grow { table; percent } when percent > 10 ->
      [ Mutate.Grow { table; percent = percent / 2 } ]
  | Mutate.Shrink { table; keep_percent } when keep_percent < 50 ->
      [ Mutate.Shrink { table; keep_percent = min 100 ((keep_percent * 2) + 10) } ]
  | _ -> []

let shrink_candidates case =
  let q = case.query in
  let with_query q' = { case with query = q' } in
  let drop_tables =
    match q.genes with
    | root :: sats when sats <> [] ->
        List.mapi
          (fun j _ -> with_query { q with genes = root :: List.filteri (fun k _ -> k <> j) sats })
          sats
    | _ -> []
  in
  let drop_semis =
    List.mapi
      (fun j _ -> with_query { q with semis = List.filteri (fun k _ -> k <> j) q.semis })
      q.semis
  in
  let drop_order = if q.order then [ with_query { q with order = false } ] else [] in
  let drop_limit =
    if q.limit <> None then [ with_query { q with limit = None } ] else []
  in
  let simplify_shape = if q.shape <> Total then [ with_query { q with shape = Total } ] else [] in
  let drop_mutations =
    List.mapi
      (fun j _ -> { case with mutations = List.filteri (fun k _ -> k <> j) case.mutations })
      case.mutations
  in
  let drop_pool =
    if case.pool_pages <> None then [ { case with pool_pages = None } ] else []
  in
  let weaken_mutations =
    List.concat
      (List.mapi
         (fun j m ->
           List.map
             (fun m' -> { case with mutations = List.mapi (fun k m0 -> if k = j then m' else m0) case.mutations })
             (weaken_mutation m))
         case.mutations)
  in
  let drop_faults =
    List.mapi
      (fun j _ -> { case with faults = List.filteri (fun k _ -> k <> j) case.faults })
      case.faults
  in
  let weaken_faults =
    List.concat
      (List.mapi
         (fun j f ->
           List.map
             (fun f' -> { case with faults = List.mapi (fun k f0 -> if k = j then f' else f0) case.faults })
             (weaken_fault f))
         case.faults)
  in
  let drop_atoms =
    List.concat
      (List.mapi
         (fun i g ->
           List.mapi
             (fun j _ ->
               let genes =
                 List.mapi
                   (fun k g0 ->
                     if k <> i then g0
                     else { g0 with atoms = List.filteri (fun l _ -> l <> j) g0.atoms })
                   q.genes
               in
               with_query { q with genes })
             g.atoms)
         q.genes)
  in
  let shrink_literals =
    List.concat
      (List.mapi
         (fun i g ->
           List.concat
             (List.mapi
                (fun j a ->
                  List.map
                    (fun v ->
                      let genes =
                        List.mapi
                          (fun k g0 ->
                            if k <> i then g0
                            else
                              {
                                g0 with
                                atoms =
                                  List.mapi
                                    (fun l a0 -> if l = j then { a0 with value = v } else a0)
                                    g0.atoms;
                              })
                          q.genes
                      in
                      with_query { q with genes })
                    (shrink_literal a.value))
                g.atoms))
         q.genes)
  in
  (* most aggressive first: whole tables and subqueries, then decoration
     (ORDER BY / LIMIT), then whole faults/mutations, then conjuncts, then
     literal values *)
  drop_tables @ drop_semis @ drop_order @ drop_limit @ simplify_shape @ drop_mutations
  @ drop_pool @ drop_faults @ weaken_mutations @ weaken_faults
  @ drop_atoms @ shrink_literals

let shrink ~probe ~config case0 (div0 : divergence) =
  let reproduces case =
    match probe case with
    | Ok { divergence = Some d; _ } -> d.pass = div0.pass
    | _ -> false
  in
  let current = ref case0 in
  let spent = ref 0 in
  let progress = ref true in
  while !progress && !spent < config.shrink_budget do
    progress := false;
    (try
       List.iter
         (fun candidate ->
           if !spent >= config.shrink_budget then raise Exit;
           incr spent;
           if reproduces candidate then begin
             current := candidate;
             progress := true;
             raise Exit
           end)
         (shrink_candidates !current)
     with Exit -> ())
  done;
  !current

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)
(* ------------------------------------------------------------------ *)

let repro_format = "robustopt-fuzz-repro/1"

let repro_to_json ~seed ~iteration ~self_test ~self_test_rewrite case (d : divergence) =
  Json.Obj
    [
      ("format", Json.Str repro_format);
      ("seed", Json.Num (float_of_int seed));
      ("iteration", Json.Num (float_of_int iteration));
      ("self_test", Json.Bool self_test);
      ("self_test_rewrite", Json.Bool self_test_rewrite);
      ("divergence", Json.Obj [ ("pass", Json.Str d.pass); ("detail", Json.Str d.detail) ]);
      ("case", case_to_json case);
    ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let write_repro path ~seed ~iteration ~self_test ~self_test_rewrite case d =
  write_file path
    (Json.to_string (repro_to_json ~seed ~iteration ~self_test ~self_test_rewrite case d) ^ "\n")

let load_repro path =
  let* json = Json.parse (read_file path) in
  let* format = jstr "format" json in
  if format <> repro_format then Error (Printf.sprintf "unsupported repro format %S" format)
  else
    let* case_j = jfield "case" json in
    let* case = case_of_json case_j in
    let jbool name = match jfield name json with Ok (Json.Bool b) -> b | _ -> false in
    let self_test = jbool "self_test" in
    let self_test_rewrite = jbool "self_test_rewrite" in
    let pass = match jfield "divergence" json with Ok d -> Result.value ~default:"" (jstr "pass" d) | Error _ -> "" in
    Ok (case, self_test, self_test_rewrite, pass)

let replay config path =
  let* case, self_test, self_test_rewrite, expected_pass = load_repro path in
  let* probe = probe_case ~self_test ~self_test_rewrite config case in
  Ok (case, probe, expected_pass)

(* ------------------------------------------------------------------ *)
(* The evolutionary loop                                               *)
(* ------------------------------------------------------------------ *)

type found = {
  f_divergence : divergence;
  f_case : case;               (* shrunk *)
  f_tables : int;
  f_iteration : int;
  f_repro_path : string;
  f_reproduced : bool;         (* the written repro file replays red *)
}

type result = {
  r_iterations : int;
  r_probes : int;              (* total case evaluations, shrinking included *)
  r_corpus : int;
  r_pairs : int;               (* distinct (plan digest x tier digest) pairs *)
  r_baseline_pairs : int option;
  r_last_new_pair : int;       (* iteration that last produced an unseen pair *)
  r_kept_by_level : int * int * int;
  r_found : found option;
  r_self_test : bool;
  r_ok : bool;
  r_seconds : float;
}

let coverage_key (plans, tier) = plans ^ "|" ^ tier

let corpus_filename case =
  Printf.sprintf "%08x.fuzz" (Hashtbl.hash (Json.to_string (case_to_json case)))

let load_corpus dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fuzz")
    |> List.sort String.compare
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           match Json.parse (read_file path) with
           | Ok j -> ( match case_of_json j with Ok c -> Some c | Error _ -> None)
           | Error _ -> None)
  else []

let save_corpus_case dir case =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file (Filename.concat dir (corpus_filename case))
    (Json.to_string (case_to_json case) ^ "\n")

(* QPG escalation as a *floor*: sustained stagnation forces the mutator up
   the ladder (query -> stats faults -> data state), but even a productive
   search keeps a standing chance of jumping tiers — tier digests mostly
   move when statistics are damaged, and waiting for full stagnation
   before touching them leaves that axis unexplored. *)
let escalation_floor ~stagnation = if stagnation >= 16 then 2 else if stagnation >= 8 then 1 else 0

let pick_level rng ~stagnation =
  let roll = Rng.int rng 10 in
  let stochastic = if roll < 4 then 0 else if roll < 8 then 1 else 2 in
  max (escalation_floor ~stagnation) stochastic

let run ?(log = fun (_ : string) -> ()) ?(config = default_config) () =
  let start = Sys.time () in
  let rng = Rng.create config.seed in
  let self_test = config.self_test in
  let self_test_rewrite = config.self_test_rewrite in
  let probes = ref 0 in
  let probe case =
    incr probes;
    probe_case ~self_test ~self_test_rewrite config case
  in
  let seen = Hashtbl.create 256 in
  let corpus = ref [] in
  let corpus_n = ref 0 in
  let last_new = ref 0 in
  let kept = [| 0; 0; 0 |] in
  let found = ref None in
  let iterations_done = ref 0 in
  let out_of_time () =
    match config.time_budget with
    | Some budget -> Sys.time () -. start > budget
    | None -> false
  in
  let record_found ~iteration case d =
    let shrunk = shrink ~probe ~config case d in
    (* the shrunk case may now diverge with a refined detail; re-probe for
       the message we serialize *)
    let final_d =
      match probe shrunk with
      | Ok { divergence = Some d'; _ } when d'.pass = d.pass -> d'
      | _ -> d
    in
    write_repro config.repro_file ~seed:config.seed ~iteration ~self_test ~self_test_rewrite
      shrunk final_d;
    let reproduced =
      match replay config config.repro_file with
      | Ok (_, { divergence = Some d'; _ }, _) -> d'.pass = d.pass
      | _ -> false
    in
    found :=
      Some
        {
          f_divergence = final_d;
          f_case = shrunk;
          f_tables = List.length shrunk.query.genes;
          f_iteration = iteration;
          f_repro_path = config.repro_file;
          f_reproduced = reproduced;
        }
  in
  let admit ~iteration ~level case =
    match probe case with
    | Error _ -> ()   (* invalid case: the mutator overstepped, skip it *)
    | Ok { divergence = Some d; _ } ->
        log (Printf.sprintf "iteration %d: divergence in pass %s — shrinking" iteration d.pass);
        record_found ~iteration case d
    | Ok { coverage; divergence = None } ->
        let key = coverage_key coverage in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          corpus := case :: !corpus;
          incr corpus_n;
          if iteration > 0 then last_new := iteration;
          kept.(level) <- kept.(level) + 1;
          Option.iter (fun dir -> save_corpus_case dir case) config.corpus_dir
        end
  in
  (* Seed the corpus: persisted cases first, then fresh random ones. *)
  let persisted = match config.corpus_dir with Some d -> load_corpus d | None -> [] in
  List.iter (fun c -> if !found = None then admit ~iteration:0 ~level:0 c) persisted;
  for _ = 1 to config.seed_corpus do
    if !found = None then admit ~iteration:0 ~level:0 (gen_case rng config)
  done;
  if !corpus = [] && !found = None then
    (* pathological but possible if every seed was invalid: retry once *)
    admit ~iteration:0 ~level:0 (gen_case rng config);
  (* Evolve. *)
  let stagnation = ref 0 in
  (try
     let i = ref 0 in
     while (config.iterations = 0 || !i < config.iterations) && !found = None do
       incr i;
       iterations_done := !i;
       if out_of_time () then raise Exit;
       let parents = Array.of_list !corpus in
       if Array.length parents = 0 then raise Exit;
       (* novelty bias: [corpus] is newest-first, and recent additions sit
          at the frontier of unseen behaviour — prefer them, but keep a
          uniform floor so old lineages are never starved *)
       let parent =
         if Rng.int rng 10 < 7 then parents.(Rng.int rng (min 24 (Array.length parents)))
         else Rng.pick rng parents
       in
       let level = pick_level rng ~stagnation:!stagnation in
       let child = mutate_case rng ~level config parent in
       let before = !corpus_n in
       admit ~iteration:!i ~level child;
       if !corpus_n > before then stagnation := 0 else incr stagnation;
       if !i mod 50 = 0 then
         log
           (Printf.sprintf "iteration %d: corpus %d, %d distinct pairs, escalation level %d" !i
              !corpus_n (Hashtbl.length seen) level)
     done
   with Exit -> ());
  (* The pure-random control: same probe machinery, same case evaluation
     count, no corpus and no steering. *)
  let baseline_pairs =
    if not config.baseline then None
    else begin
      let brng = Rng.create (config.seed + 1009) in
      let bseen = Hashtbl.create 256 in
      let n = config.seed_corpus + !iterations_done in
      for _ = 1 to n do
        if not (out_of_time ()) then begin
          let case = gen_case brng config in
          match probe_case ~self_test ~self_test_rewrite config case with
          | Ok { divergence = None; coverage } -> Hashtbl.replace bseen (coverage_key coverage) ()
          | Ok { divergence = Some d; _ } ->
              (* a divergence is a divergence, whoever finds it *)
              if !found = None then record_found ~iteration:0 case d
          | Error _ -> ()
        end
      done;
      Some (Hashtbl.length bseen)
    end
  in
  let pairs = Hashtbl.length seen in
  let caught_by prefix f =
    (* a clean catch: the divergence must surface in the targeted pass, not
       as a crash elsewhere — "crash:kernel" deliberately does not count *)
    let n = String.length prefix in
    String.length f.f_divergence.pass >= n
    && String.sub f.f_divergence.pass 0 n = prefix
    && f.f_tables <= 3 && f.f_reproduced
  in
  let ok =
    (* rewrite sabotage takes precedence when both self-tests are armed:
       the planted unsound rewrite fires on every case, so it is the one
       the run must catch first *)
    if self_test_rewrite then
      match !found with Some f -> caught_by "rewrite" f | None -> false
    else if self_test then
      match !found with Some f -> caught_by "kernel" f | None -> false
    else
      !found = None
      && (match config.late_after with None -> true | Some n -> !last_new > n)
      && match baseline_pairs with None -> true | Some b -> pairs > b
  in
  {
    r_iterations = !iterations_done;
    r_probes = !probes;
    r_corpus = !corpus_n;
    r_pairs = pairs;
    r_baseline_pairs = baseline_pairs;
    r_last_new_pair = !last_new;
    r_kept_by_level = (kept.(0), kept.(1), kept.(2));
    r_found = !found;
    r_self_test = self_test || self_test_rewrite;
    r_ok = ok;
    r_seconds = Sys.time () -. start;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let case_summary case =
  Printf.sprintf "%s/seed%d tables=[%s] shape=%s faults=[%s] mutations=[%s]"
    (workload_to_string case.workload)
    case.catalog_seed
    (String.concat ","
       (List.map
          (fun g -> Printf.sprintf "%s(%d atoms)" g.table (List.length g.atoms))
          case.query.genes))
    (shape_to_string case.query.shape)
    (String.concat "," (List.map Fault.injection_to_string case.faults))
    (String.concat "," (List.map Mutate.to_string case.mutations))

let render r =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "fuzz: %d iterations, %d probes, %.1fs%s" r.r_iterations r.r_probes r.r_seconds
    (if r.r_self_test then " (self-test)" else "");
  let k0, k1, k2 = r.r_kept_by_level in
  line "coverage: %d distinct (plan x tier) pairs, corpus %d (query/fault/data keeps %d/%d/%d), last new pair at iteration %d"
    r.r_pairs r.r_corpus k0 k1 k2 r.r_last_new_pair;
  (match r.r_baseline_pairs with
  | Some bp ->
      line "baseline: pure-random search reached %d pairs at equal probes (steered: %d) — %s" bp
        r.r_pairs
        (if r.r_pairs > bp then "steering wins" else "steering DID NOT win")
  | None -> ());
  (match r.r_found with
  | Some f ->
      line "DIVERGENCE in pass %s (iteration %d), shrunk to %d table(s):" f.f_divergence.pass
        f.f_iteration f.f_tables;
      line "  %s" (case_summary f.f_case);
      line "  detail: %s" f.f_divergence.detail;
      line "  repro: %s (replay %s)" f.f_repro_path
        (if f.f_reproduced then "reproduces" else "DOES NOT reproduce")
  | None -> line "no divergence found");
  line "verdict: %s" (if r.r_ok then "OK" else "FAIL");
  Buffer.contents b

let result_to_json r =
  let k0, k1, k2 = r.r_kept_by_level in
  Json.Obj
    [
      ("iterations", Json.Num (float_of_int r.r_iterations));
      ("probes", Json.Num (float_of_int r.r_probes));
      ("corpus", Json.Num (float_of_int r.r_corpus));
      ("pairs", Json.Num (float_of_int r.r_pairs));
      ( "baseline_pairs",
        match r.r_baseline_pairs with Some b -> Json.Num (float_of_int b) | None -> Json.Null );
      ("last_new_pair", Json.Num (float_of_int r.r_last_new_pair));
      ( "kept_by_level",
        Json.List [ Json.Num (float_of_int k0); Json.Num (float_of_int k1); Json.Num (float_of_int k2) ] );
      ( "divergence",
        match r.r_found with
        | None -> Json.Null
        | Some f ->
            Json.Obj
              [
                ("pass", Json.Str f.f_divergence.pass);
                ("iteration", Json.Num (float_of_int f.f_iteration));
                ("tables", Json.Num (float_of_int f.f_tables));
                ("repro", Json.Str f.f_repro_path);
                ("reproduced", Json.Bool f.f_reproduced);
              ] );
      ("self_test", Json.Bool r.r_self_test);
      ("ok", Json.Bool r.r_ok);
      ("seconds", Json.Num r.r_seconds);
    ]
