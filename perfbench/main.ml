(* The benchmark program:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     main.exe --declare

   prints progress and problems on stderr, the sim fingerprint as an
   identity line, and the result as the last line of stdout. *)

let () =
  let workload = ref "" and seed = ref Perfbench.Metric.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and declare = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " Perfbench.Bench.workload_names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
      ("--declare", Arg.Set declare, " print the metric declaration and exit");
    ]
  in
  let usage = "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !declare then print_string (Perfbench.Metric.declaration_json ())
  else
    match
      Perfbench.Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ()
    with
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
    | Some r ->
        List.iter (fun p -> prerr_endline ("verification: " ^ p)) r.problems;
        print_endline r.identity;
        print_endline
          (Perfbench.Metric.result_json ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics)
