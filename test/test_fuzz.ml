(* The fuzzer's own harness: genome serialization round-trips, mutation
   invariants, data-state mutation integrity, a clean probe through every
   differential pass, and the planted-divergence self-test end to end
   (catch -> shrink -> replayable repro). *)

open Rq_storage
open Rq_workload
module F = Rq_experiments.Exp_fuzz
module Json = Rq_obs.Json
module Rng = Rq_math.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tiny_config =
  {
    F.default_config with
    F.iterations = 10;
    seed = 11;
    baseline = false;
    seed_corpus = 4;
    repro_file = Filename.concat (Filename.get_temp_dir_name ()) "test-fuzz.fuzz-repro";
  }

(* ------------------------------------------------------------------ *)
(* Genome serialization                                                *)
(* ------------------------------------------------------------------ *)

let roundtrip case =
  let json = F.case_to_json case in
  let text = Json.to_string json in
  match Json.parse text with
  | Error e -> Alcotest.failf "serialized case does not parse: %s\n%s" e text
  | Ok reparsed -> (
      match F.case_of_json reparsed with
      | Error e -> Alcotest.failf "case does not decode: %s\n%s" e text
      | Ok case' ->
          check_bool
            (Printf.sprintf "round-trip preserves the case\n%s" text)
            true
            (Json.equal json (F.case_to_json case')))

let test_json_roundtrip_generated () =
  let rng = Rng.create 91 in
  for _ = 1 to 50 do
    roundtrip (F.gen_case rng F.default_config)
  done

(* A handcrafted case exercising every fault constructor, both mutation
   constructors and a multi-table grouped query in one genome. *)
let test_json_roundtrip_dense () =
  let open Rq_stats in
  roundtrip
    {
      F.workload = F.Tpch;
      catalog_seed = 1;
      mutations =
        [
          Mutate.Grow { table = "lineitem"; percent = 40 };
          Mutate.Shrink { table = "lineitem"; keep_percent = 25 };
        ];
      faults =
        [
          Fault.Drop_synopsis "lineitem";
          Fault.Truncate_synopsis { root = "lineitem"; keep = 5 };
          Fault.Corrupt_synopsis "lineitem";
          Fault.Skew_synopsis { root = "lineitem"; factor = 16.0 };
          Fault.Drop_histogram { table = "part"; column = "p_size" };
          Fault.Dangling_fk { root = "lineitem"; break = 25 };
        ];
      query =
        {
          F.genes =
            [
              {
                F.table = "lineitem";
                atoms =
                  [
                    { F.column = "l_quantity"; cmp = F.C_le; value = F.L_int 30 };
                    { F.column = "l_shipdate"; cmp = F.C_gt; value = F.L_date 9000 };
                    { F.column = "l_extendedprice"; cmp = F.C_lt; value = F.L_float 5e4 };
                  ];
              };
              {
                F.table = "part";
                atoms = [ { F.column = "p_bucket"; cmp = F.C_eq; value = F.L_int 7 } ];
              };
            ];
          shape = F.Grouped;
          semis = [ { F.table = "orders"; atoms = [] } ];
          order = true;
          descending = true;
          limit = Some 7;
        };
      pool_pages = Some 256;
    }

(* Corpus entries written while the streaming engine had a row plane may
   carry a "vectorize" field.  Repro files are outside input: such an entry
   must still parse, run clean on the one data plane there is, and drop the
   field when written back. *)
let test_json_legacy_vectorize_field () =
  let legacy_json =
    Json.Obj
      [
        ("workload", Json.Str "tpch");
        ("catalog_seed", Json.Num 1.0);
        ("mutations", Json.List []);
        ("faults", Json.List []);
        ("vectorize", Json.Bool false);
        ( "query",
          Json.Obj
            [
              ("shape", Json.Str "total");
              ( "tables",
                Json.List
                  [
                    Json.Obj
                      [ ("table", Json.Str "lineitem"); ("atoms", Json.List []) ];
                  ] );
            ] );
      ]
  in
  match F.case_of_json legacy_json with
  | Error e -> Alcotest.failf "legacy corpus entry rejected: %s" e
  | Ok case -> (
      (match F.case_to_json case with
      | Json.Obj fields ->
          check_bool "field dropped on write" false (List.mem_assoc "vectorize" fields)
      | _ -> Alcotest.fail "case_to_json did not emit an object");
      match F.probe_case tiny_config case with
      | Error e -> Alcotest.failf "legacy corpus entry did not run: %s" e
      | Ok { F.divergence = Some d; _ } ->
          Alcotest.failf "legacy corpus entry diverged on %s: %s" d.F.pass d.F.detail
      | Ok { F.divergence = None; _ } -> ())

let test_json_rejects_garbage () =
  List.iter
    (fun (label, json) ->
      match F.case_of_json json with
      | Error _ -> ()
      | Ok case -> Alcotest.failf "%s decoded as %s" label (F.case_summary case))
    [
      ("null", Json.Null);
      ("empty object", Json.Obj []);
      ("bad workload", Json.Obj [ ("workload", Json.Str "oltp") ]);
      ( "bad fault kind",
        Json.Obj
          [
            ("workload", Json.Str "star");
            ("catalog_seed", Json.Num 0.0);
            ("mutations", Json.List []);
            ("faults", Json.List [ Json.Obj [ ("kind", Json.Str "set-on-fire") ] ]);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Mutation invariants                                                 *)
(* ------------------------------------------------------------------ *)

(* Whatever the level and however long the chain, a mutated case keeps
   its genome well-formed: the root table survives at the head, joined
   tables stay distinct, atom/fault/mutation counts stay capped, and the
   query still compiles. *)
let test_mutate_case_invariants () =
  let rng = Rng.create 17 in
  for trial = 1 to 60 do
    let case = ref (F.gen_case rng F.default_config) in
    let root =
      match !case.F.query.F.genes with
      | g :: _ -> g.F.table
      | [] -> Alcotest.fail "generated query has no tables"
    in
    for step = 1 to 12 do
      let level = Rng.int rng 3 in
      case := F.mutate_case rng ~level F.default_config !case;
      let q = !case.F.query in
      let ctx = Printf.sprintf "trial %d step %d: %s" trial step (F.case_summary !case) in
      (match q.F.genes with
      | g :: _ -> check_string (ctx ^ ": root preserved") root g.F.table
      | [] -> Alcotest.failf "%s: no tables left" ctx);
      let tables = List.map (fun g -> g.F.table) q.F.genes in
      check_int
        (ctx ^ ": joined tables distinct")
        (List.length tables)
        (List.length (List.sort_uniq compare tables));
      List.iter
        (fun g ->
          check_bool (ctx ^ ": atom cap") true (List.length g.F.atoms <= 3))
        q.F.genes;
      check_bool (ctx ^ ": fault cap") true (List.length !case.F.faults <= 3);
      check_bool (ctx ^ ": mutation cap") true (List.length !case.F.mutations <= 3);
      ignore (F.compile_case !case)
    done
  done

(* ------------------------------------------------------------------ *)
(* Data-state mutations                                                *)
(* ------------------------------------------------------------------ *)

let star_catalog () =
  Star.generate (Rng.create 5) ~params:{ Star.default_params with fact_rows = 500 } ()

let test_mutate_grow () =
  let catalog = star_catalog () in
  let before = Relation.row_count (Catalog.find_table catalog "fact") in
  check_bool "fact growable" true (List.mem "fact" (Mutate.growable catalog));
  (match Mutate.apply (Rng.create 3) catalog (Mutate.Grow { table = "fact"; percent = 40 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grow failed: %s" e);
  let rel = Catalog.find_table catalog "fact" in
  check_int "grew by 40%" (before + (before * 40 / 100)) (Relation.row_count rel);
  (* fresh primary keys: still unique across old and appended rows *)
  let pk = match Catalog.primary_key catalog "fact" with Some c -> c | None -> "f_id" in
  let keys = Hashtbl.create 1024 in
  Relation.iter
    (fun _ row ->
      let k = row.(Rq_storage.Schema.index_of (Relation.schema rel) pk) in
      if Hashtbl.mem keys k then
        Alcotest.failf "duplicate primary key %s" (Rq_storage.Value.to_string k);
      Hashtbl.add keys k ())
    rel

let test_mutate_shrink () =
  let catalog = star_catalog () in
  let before = Relation.row_count (Catalog.find_table catalog "fact") in
  (match
     Mutate.apply (Rng.create 3) catalog (Mutate.Shrink { table = "fact"; keep_percent = 25 })
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shrink failed: %s" e);
  check_int "kept 25%" (before * 25 / 100)
    (Relation.row_count (Catalog.find_table catalog "fact"));
  (* dimensions have incoming FK edges: shrinking them must be refused *)
  check_bool "dim1 not shrinkable" false (List.mem "dim1" (Mutate.shrinkable catalog));
  let dim_rows = Relation.row_count (Catalog.find_table catalog "dim1") in
  match Mutate.apply (Rng.create 3) catalog (Mutate.Shrink { table = "dim1"; keep_percent = 50 }) with
  | Ok () -> Alcotest.fail "shrinking an FK-referenced table must be refused"
  | Error _ ->
      check_int "refusal left the table alone" dim_rows
        (Relation.row_count (Catalog.find_table catalog "dim1"))

let test_mutation_roundtrip () =
  List.iter
    (fun m ->
      match Mutate.of_string (Mutate.to_string m) with
      | Ok m' -> check_string "mutation round-trip" (Mutate.to_string m) (Mutate.to_string m')
      | Error e -> Alcotest.failf "%s did not parse back: %s" (Mutate.to_string m) e)
    [
      Mutate.Grow { table = "fact"; percent = 120 };
      Mutate.Shrink { table = "lineitem"; keep_percent = 0 };
    ]

(* ------------------------------------------------------------------ *)
(* Probing and the planted-divergence self-test                        *)
(* ------------------------------------------------------------------ *)

let test_probe_clean () =
  let rng = Rng.create 23 in
  let rec first_valid tries =
    if tries = 0 then Alcotest.fail "no generated case survived the oracle"
    else
      let case = F.gen_case rng tiny_config in
      match F.probe_case tiny_config case with
      | Ok probe -> (case, probe)
      | Error _ -> first_valid (tries - 1)
  in
  let case, probe = first_valid 10 in
  (match probe.F.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "healthy engines diverged on %s: %s (%s)" d.F.pass d.F.detail
        (F.case_summary case));
  let plans, tiers = probe.F.coverage in
  check_bool "plan fingerprint non-empty" true (String.length plans > 0);
  (* the degraded pass always contributes at least one guard token *)
  check_bool "tier digest non-empty" true (String.length tiers > 0)

let test_self_test_plants_divergence () =
  let rng = Rng.create 29 in
  let rec hunt tries =
    if tries = 0 then Alcotest.fail "perturbed estimator never changed a plan in 40 cases"
    else
      let case = F.gen_case rng tiny_config in
      match F.probe_case ~self_test:true tiny_config case with
      | Error _ -> hunt (tries - 1)
      | Ok { F.divergence = Some d; _ } ->
          check_bool
            (Printf.sprintf "planted fault lands in the kernel pass, got %s" d.F.pass)
            true
            (String.length d.F.pass >= 6 && String.sub d.F.pass 0 6 = "kernel")
      | Ok { F.divergence = None; _ } -> hunt (tries - 1)
  in
  hunt 40

(* End to end: the self-test run must catch the planted perturbation,
   shrink it to at most three tables, and leave a repro file that both
   replays red and survives a config round-trip through [F.replay]. *)
let test_self_test_run_and_replay () =
  let config = { tiny_config with F.self_test = true; iterations = 40; seed = 5 } in
  let result = F.run ~config () in
  check_bool "self-test run passes" true result.F.r_ok;
  match result.F.r_found with
  | None -> Alcotest.fail "self-test run reported no divergence"
  | Some found ->
      check_bool "shrunk to <= 3 tables" true (found.F.f_tables <= 3);
      check_bool "repro file replays red" true found.F.f_reproduced;
      (match F.replay config found.F.f_repro_path with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok (case, probe, recorded_pass) ->
          check_bool "replayed case still diverges" true (probe.F.divergence <> None);
          check_string "replay reports the recorded pass" found.F.f_divergence.F.pass
            recorded_pass;
          check_bool "shrunk case is small" true (List.length case.F.query.F.genes <= 3));
      Sys.remove found.F.f_repro_path

(* Same end-to-end contract for the planted unsound rewrite: the rewrite
   pass must catch it, the shrink must keep the catch in that pass, and
   the repro file must replay red with the flag restored from disk. *)
let test_self_test_rewrite_run_and_replay () =
  let config =
    { tiny_config with
      F.self_test_rewrite = true;
      iterations = 40;
      seed = 7;
      repro_file =
        Filename.concat (Filename.get_temp_dir_name ()) "test-fuzz-rewrite.fuzz-repro";
    }
  in
  let result = F.run ~config () in
  check_bool "rewrite self-test run passes" true result.F.r_ok;
  match result.F.r_found with
  | None -> Alcotest.fail "rewrite self-test run reported no divergence"
  | Some found ->
      check_bool
        (Printf.sprintf "caught by the rewrite pass, got %s" found.F.f_divergence.F.pass)
        true
        (String.length found.F.f_divergence.F.pass >= 7
        && String.sub found.F.f_divergence.F.pass 0 7 = "rewrite");
      check_bool "repro file replays red" true found.F.f_reproduced;
      (match F.replay config found.F.f_repro_path with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok (_, probe, recorded_pass) ->
          check_bool "replayed case still diverges" true (probe.F.divergence <> None);
          check_string "replay reports the recorded pass" found.F.f_divergence.F.pass
            recorded_pass);
      Sys.remove found.F.f_repro_path

let () =
  Alcotest.run "fuzz"
    [
      ( "genome serialization",
        [
          Alcotest.test_case "generated cases round-trip" `Quick test_json_roundtrip_generated;
          Alcotest.test_case "dense handcrafted case round-trips" `Quick
            test_json_roundtrip_dense;
          Alcotest.test_case "legacy vectorize field parses and runs" `Quick
            test_json_legacy_vectorize_field;
          Alcotest.test_case "garbage rejected" `Quick test_json_rejects_garbage;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "mutate_case invariants" `Quick test_mutate_case_invariants;
          Alcotest.test_case "grow appends fresh keys" `Quick test_mutate_grow;
          Alcotest.test_case "shrink keeps subset, refuses FK targets" `Quick
            test_mutate_shrink;
          Alcotest.test_case "mutation strings round-trip" `Quick test_mutation_roundtrip;
        ] );
      ( "probing",
        [
          Alcotest.test_case "clean case passes every pass" `Quick test_probe_clean;
          Alcotest.test_case "self-test perturbation is visible" `Quick
            test_self_test_plants_divergence;
          Alcotest.test_case "self-test run shrinks and replays" `Quick
            test_self_test_run_and_replay;
          Alcotest.test_case "rewrite self-test run shrinks and replays" `Quick
            test_self_test_rewrite_run_and_replay;
        ] );
    ]
