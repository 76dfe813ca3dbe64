(* Command line: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints every metric by name with its unit, then, as the last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
   a query failed, a result differed from the oracle or the traced run
   diverged from the untraced one; 2 on bad arguments. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans_dir = ref "perfbench/_out" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads below");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where a traced run writes its spans");
    ]
  in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec =
    match Workloads.find !workload with
    | Some s when !seconds > 0 && (!trace = 0 || !trace = 1) -> s
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let r =
    Measure.run ~spans_dir:!spans_dir spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  Printf.printf "# %s seed=%d seconds=%d trace=%d\n" spec.name !seed !seconds !trace;
  List.iter (Printf.printf "# %s\n") r.notes;
  List.iter
    (fun (x : Measure.metric) -> Printf.printf "%-34s %14.6g %s\n" x.name x.value x.unit)
    (r.metrics @ r.diagnostics);
  List.iter (Printf.eprintf "error: %s\n") r.errors;
  List.iter
    (fun (x : Measure.metric) ->
      if not (Float.is_finite x.value) then begin
        Printf.eprintf "error: metric %s is not a number\n" x.name;
        exit 1
      end)
    r.metrics;
  let json_metric (x : Measure.metric) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map json_metric r.metrics));
  exit (if r.correct then 0 else 1)
