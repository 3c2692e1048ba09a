(* The benchmark's own tests, on the seconds-scale inputs. *)

open Perfbench

let run ?(traced = false) ~seed workload =
  match Bench.run ~small:true ~workload ~seed ~seconds:0.0 ~traced () with
  | Some r -> r
  | None -> Alcotest.failf "unknown workload %s" workload

let names decls = List.map (fun d -> d.Metric.name) decls

let test_names_valid () =
  let all = names (Metric.end_to_end @ Metric.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (Metric.valid_name n)) all;
  Alcotest.(check int) "names are unique" (List.length all) (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length Metric.per_layer <= 128);
  List.iter
    (fun bad -> Alcotest.(check bool) ("invalid name " ^ bad) false (Metric.valid_name bad))
    [ ""; ".x"; "a b"; "a/b"; String.make 65 'a' ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_declaration_file () =
  Alcotest.(check string) "metrics.json is main.exe --declare" (Metric.declaration_json ()) (read_file "metrics.json")

(* BENCHMARK.json is written by hand; its workloads and metrics must be
   exactly the ones [Metric] declares, with the same units, directions
   and bounds. *)
let test_benchmark_file () =
  let module J = Tinca_obs.Jsonv in
  let json =
    match J.parse (read_file "../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let field k j = match J.member k j with Some v -> v | None -> Alcotest.failf "BENCHMARK.json: no %s" k in
  let str k j = match field k j with J.Str s -> s | _ -> Alcotest.failf "BENCHMARK.json: %s is not a string" k in
  let items k j = match field k j with J.Arr l -> l | _ -> Alcotest.failf "BENCHMARK.json: %s is not a list" k in
  let bound j = match J.member "bound" j with Some (J.Num b) -> Some b | _ -> None in
  let row j = (str "name" j, str "unit" j, str "better" j, bound j) in
  let declared d =
    (d.Metric.name, d.Metric.unit, (match d.Metric.better with Metric.Lower -> "lower" | Higher -> "higher"), d.Metric.bound)
  in
  let rows = Alcotest.(list (pair (pair string string) (pair string (option (float 0.0))))) in
  let nest (n, u, b, x) = ((n, u), (b, x)) in
  List.iter
    (fun key ->
      Alcotest.check rows key
        (List.map (fun d -> nest (declared d)) (if key = "end_to_end" then Metric.end_to_end else Metric.per_layer))
        (List.map (fun j -> nest (row j)) (items key json)))
    [ "end_to_end"; "per_layer" ];
  Alcotest.(check (list (pair string string)))
    "workloads" Metric.workloads
    (List.map (fun j -> (str "name" j, str "why" j)) (items "workloads" json))

let check_run ~traced workload (r : Bench.result) =
  let label = Printf.sprintf "%s%s" workload (if traced then " traced" else "") in
  Alcotest.(check (list string)) (label ^ ": problems") [] r.Bench.problems;
  Alcotest.(check bool) (label ^ ": correct") true r.Bench.correct;
  Alcotest.(check int) (label ^ ": failed") 0 r.Bench.failed;
  Alcotest.(check bool) (label ^ ": attempted") true (r.Bench.attempted > 0);
  Alcotest.(check (list string))
    (label ^ ": printed names")
    (names (if traced then Metric.per_layer else Metric.end_to_end))
    (List.map fst r.Bench.metrics);
  ignore (Metric.result_json ~correct:true ~attempted:1 ~failed:0 r.Bench.metrics)

(* Two untraced runs with one seed: all of them verify, print exactly the
   declared end-to-end names, and repeat every sim metric and the
   allocation count bit for bit. *)
let test_same_seed workload () =
  let a = run ~seed:5 workload and b = run ~seed:5 workload in
  check_run ~traced:false workload a;
  check_run ~traced:false workload b;
  let repeated =
    "alloc_words_per_op"
    :: names (List.filter (fun d -> d.Metric.clock = Metric.Sim) Metric.end_to_end)
  in
  List.iter
    (fun n ->
      Alcotest.(check (float 0.0)) (workload ^ " repeats " ^ n)
        (List.assoc n a.Bench.metrics) (List.assoc n b.Bench.metrics))
    repeated;
  List.iter
    (fun (n, v) -> Alcotest.(check bool) (workload ^ " nonzero " ^ n) true (v <> 0.0))
    a.Bench.metrics

let test_traced workload () = check_run ~traced:true workload (run ~traced:true ~seed:3 workload)

let test_seed_changes_inputs () =
  let differ label a b = Alcotest.(check bool) label true (a <> b) in
  let same label a b = Alcotest.(check bool) label true (a = b) in
  same "fs_trace: same seed" (Wl_fs.inputs Wl_fs.small ~seed:1) (Wl_fs.inputs Wl_fs.small ~seed:1);
  differ "fs_trace" (Wl_fs.inputs Wl_fs.small ~seed:1) (Wl_fs.inputs Wl_fs.small ~seed:2);
  same "txn: same seed" (Wl_txn.inputs Wl_txn.small ~seed:1) (Wl_txn.inputs Wl_txn.small ~seed:1);
  differ "txn" (Wl_txn.inputs Wl_txn.small ~seed:1) (Wl_txn.inputs Wl_txn.small ~seed:2);
  let seeds p s = List.map (fun c -> c.Tinca_checker.Crash_check.seed) (Wl_crash.inputs p ~seed:s) in
  same "crash_sweep: same seed" (seeds Wl_crash.default 1) (seeds Wl_crash.default 1);
  differ "crash_sweep" (seeds Wl_crash.default 1) (seeds Wl_crash.default 2)

let test_percentiles () =
  let tail n = Samples.tail_pct n in
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 99.9) (tail 10000);
  Alcotest.(check (option (float 0.0))) "9999 samples: p99" (Some 99.0) (tail 9999);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (tail 1000);
  Alcotest.(check (option (float 0.0))) "999 samples: p95" (Some 95.0) (tail 999);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (tail 20);
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (tail 19);
  let s = Samples.create () in
  for i = 1000 downto 1 do
    Samples.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "median" 500.0 (Samples.median s);
  Alcotest.(check (float 0.0)) "p99 leaves ten beyond" 990.0 (snd (Samples.tail s ~want:99.0));
  Alcotest.(check (float 0.0)) "p99.9 is capped at p99" 990.0 (snd (Samples.tail s ~want:99.9))

let test_planted_corruption () =
  let layer () = Layer.create ~traced:false in
  let tripped label (r : Round.t) = Alcotest.(check bool) label true (r.Round.problems <> []) in
  let clean label (r : Round.t) = Alcotest.(check (list string)) label [] r.Round.problems in
  clean "fs_trace clean" (Wl_fs.round ~params:Wl_fs.small ~seed:4 (layer ()));
  tripped "fs_trace planted"
    (Wl_fs.round ~params:{ Wl_fs.small with Wl_fs.plant_corruption = true } ~seed:4 (layer ()));
  List.iter
    (fun (name, scheme) ->
      tripped (name ^ " planted")
        (Wl_txn.round ~params:{ Wl_txn.small with Wl_txn.plant_corruption = true } scheme ~seed:4 (layer ())))
    [ ("txn_log", Wl_txn.Log); ("txn_page", Wl_txn.Page) ];
  tripped "crash_sweep planted"
    (Wl_crash.round ~params:{ Wl_crash.small with Wl_crash.plant_corruption = true } ~seed:4 (layer ()))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench.metrics",
        [
          Alcotest.test_case "names valid and declared" `Quick test_names_valid;
          Alcotest.test_case "metrics.json matches" `Quick test_declaration_file;
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_file;
          Alcotest.test_case "percentile helper" `Quick test_percentiles;
          Alcotest.test_case "seed changes inputs" `Quick test_seed_changes_inputs;
        ] );
      ( "perfbench.workloads",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " same seed repeats") `Quick (test_same_seed w);
              Alcotest.test_case (w ^ " traced") `Quick (test_traced w);
            ])
          Bench.workload_names
        @ [ Alcotest.test_case "planted corruption trips" `Quick test_planted_corruption ] );
    ]
