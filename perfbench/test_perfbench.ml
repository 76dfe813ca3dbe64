(* The benchmark's own tests: seeded inputs, exact metrics that repeat,
   and metric names that match BENCHMARK.json. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt
let texts (w : Workloads.t) seed = Workloads.query_texts (w.ops (Rq_math.Rng.create seed))

let test_seeded_inputs () =
  List.iter
    (fun (w : Workloads.t) ->
      if texts w 5 <> texts w 5 then fail "%s: seed 5 gave two query lists" w.name;
      if texts w 5 = texts w 6 then fail "%s: seeds 5 and 6 gave the same query list" w.name)
    Workloads.all

(* Each run in a fresh process, as the benchmark is always run: the
   program keeps caches across queries, so a second run inside one
   process would not repeat the first. *)
let run ~trace =
  let out = Filename.temp_file ~temp_dir:"." "run" ".out" in
  let cmd =
    Printf.sprintf "./main.exe --workload plan-heavy --seed 3 --seconds 1 --trace %d --spans-dir . > %s"
      (if trace then 1 else 0) (Filename.quote out)
  in
  if Sys.command cmd <> 0 then fail "%s exited nonzero" cmd;
  let lines = String.split_on_char '\n' (String.trim (In_channel.with_open_text out In_channel.input_all)) in
  Sys.remove out;
  match Rq_obs.Json.parse (List.nth lines (List.length lines - 1)) with
  | Ok (Obj fields) -> (
      (match List.assoc_opt "correct" fields with Some (Bool true) -> () | _ -> fail "run not correct");
      match List.assoc_opt "metrics" fields with
      | Some (Obj metrics) ->
          List.map
            (function
              | name, Rq_obs.Json.Obj [ ("value", Num v); ("unit", Str _) ] -> (name, v)
              | name, _ -> fail "metric %s is malformed" name)
            metrics
      | _ -> fail "no metrics")
  | _ -> fail "last line is not a JSON object"

let exact_e2e = [ "alloc_mb_per_query"; "sim_cost_mean_s"; "sim_cost_p95_s"; "query_ok_frac" ]

let exact_layer =
  [ "exec.seq_pages"; "exec.random_pages"; "exec.pages_skipped"; "exec.cpu_tuples";
    "exec.index_probes"; "exec.output_tuples"; "exec.skip_ratio"; "optimizer.alternatives" ]

let bench_names section =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  match Rq_obs.Json.parse text with
  | Ok (Obj fields) -> (
      match List.assoc_opt section fields with
      | Some (List metrics) ->
          List.map
            (function
              | Rq_obs.Json.Obj m -> (
                  match List.assoc_opt "name" m with Some (Str n) -> n | _ -> fail "unnamed metric")
              | _ -> fail "bad metric in %s" section)
            metrics
      | _ -> fail "BENCHMARK.json has no %s list" section)
  | _ -> fail "BENCHMARK.json does not parse"

let valid_name n =
  n <> "" && String.for_all (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) n

let test_runs () =
  let a = run ~trace:false and b = run ~trace:false in
  let c = run ~trace:true and d = run ~trace:true in
  let same x y n = if List.assoc n x <> List.assoc n y then fail "%s differs between runs of one seed" n in
  List.iter (same a b) exact_e2e;
  List.iter (same c d) exact_layer;
  List.iter
    (fun (r, section) ->
      List.iter (fun (n, _) -> if not (valid_name n) then fail "bad metric name %S" n) r;
      if List.map fst r <> bench_names section then
        fail "metrics printed for %s differ from BENCHMARK.json" section)
    [ (a, "end_to_end"); (c, "per_layer") ]

let () =
  test_seeded_inputs ();
  test_runs ();
  print_endline "perfbench tests: ok"
