let workloads ~small =
  let pick small_params params = if small then small_params else params in
  [
    ("fs_trace", fun ~seed l -> Wl_fs.round ~params:(pick Wl_fs.small Wl_fs.default) ~seed l);
    ("txn_log", fun ~seed l -> Wl_txn.round ~params:(pick Wl_txn.small Wl_txn.default) Wl_txn.Log ~seed l);
    ("txn_page", fun ~seed l -> Wl_txn.round ~params:(pick Wl_txn.small Wl_txn.default) Wl_txn.Page ~seed l);
    ("crash_sweep", fun ~seed l -> Wl_crash.round ~params:(pick Wl_crash.small Wl_crash.default) ~seed l);
  ]

let workload_names = List.map fst (workloads ~small:false)

(* Round i runs the inputs of sub-seed (i mod pool); the sim metrics
   pool the first [pool] rounds, so they rest on [pool] independent
   input sets rather than one. *)
let pool = 5
let sub_seed seed i = (seed * pool) + (i mod pool)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  identity : string;
  problems : string list;
}

(* Rounds until [seconds] of wall time have passed, at least [min]; and
   the top of the heap, in words, once the first [pool] rounds are done
   (0 if they are not).  That is a fixed amount of work, where the top at
   the end would grow with however many rounds the machine's speed
   allowed. *)
let rounds f ~seed ~seconds ~min layer =
  let t0 = Hclock.now_ns () in
  let top = ref 0 in
  let rec go acc i =
    if i = pool then top := (Gc.quick_stat ()).Gc.top_heap_words;
    if i >= min && Hclock.now_ns () -. t0 >= seconds *. 1e9 then List.rev acc
    else begin
      (* Each round starts on a collected heap, so what one round left
         behind does not move the next one's set-up time or heap top. *)
      Gc.full_major ();
      go (f ~seed:(sub_seed seed i) layer :: acc) (i + 1)
    end
  in
  let rs = go [] 0 in
  (rs, !top)

let ops_per_s (r : Round.t) = float_of_int r.Round.ops /. r.Round.host_s
let us ns = ns /. 1e3
let finite v = if Float.is_finite v then v else 0.0

let pooled rounds f =
  let s = Samples.create () in
  List.iter (fun r -> Samples.append ~dst:s (f r)) rounds;
  s

(* Host figures skip round 0, which pays for cold caches and a fresh
   heap, and then keep the faster half of the rounds by throughput: on a
   shared machine, other tenants slow whole rounds down, and the faster
   half is the code's cost with the least interference.  The sim metrics
   pool rounds 0 .. pool-1, which the host clock cannot move. *)
let fast_half rounds =
  let warm = List.sort (fun a b -> Float.compare (ops_per_s b) (ops_per_s a)) (List.tl rounds) in
  List.filteri (fun i _ -> i < (List.length warm + 1) / 2) warm

let host_ops_per_s rounds = Samples.median_of (List.map ops_per_s (fast_half rounds))

(* The workload's own host figures.  Their run-to-run spread on a
   shared machine is wider than any gate could bound, so the traced run
   reports them as per-layer rows and the untraced run only in its
   identity line. *)
let host_rows rounds =
  let op_host = pooled (fast_half rounds) (fun r -> r.Round.op_host) in
  [
    ("host.ops_per_s", host_ops_per_s rounds);
    ("host.op_p50_us", us (Samples.median op_host));
    ("host.op_p99_us", us (snd (Samples.tail op_host ~want:99.0)));
  ]

let end_to_end (rounds, top_heap_words) =
  let first = List.filteri (fun i _ -> i < pool) rounds in
  let sim f = pooled first f in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 first in
  let ops = total (fun r -> float_of_int r.Round.ops) in
  let mean f = total f /. float_of_int (List.length first) in
  let commit_sim = sim (fun r -> r.Round.commit_sim) and read_sim = sim (fun r -> r.Round.read_sim) in
  [
    ("setup_s", Samples.median_of (List.map (fun r -> r.Round.setup_s) (List.tl rounds)));
    ("commit_sim_mean_us", us (Samples.mean commit_sim));
    ("read_sim_mean_us", us (Samples.mean read_sim));
    ("sim_ops_per_s", ops /. (total (fun r -> r.Round.sim_ns) /. 1e9));
    ("alloc_words_per_op", total (fun r -> r.Round.minor_words) /. ops);
    ("peak_heap_mb", float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    ("recover_sim_ms", mean (fun r -> r.Round.recover_sim_ns) /. 1e6);
    ("nvm_write_amp", mean (fun r -> r.Round.write_amp));
  ]

(* Host timers recorded through [Layer] during the traced rounds. *)
let host_layer layer =
  let p50 key = us (Samples.median (Layer.timer layer key)) in
  let p99 key = us (snd (Samples.tail (Layer.timer layer key) ~want:99.0)) in
  [
    ("fs.pwrite.host_us_p50", p50 "fs.pwrite");
    ("fs.pread.host_us_p50", p50 "fs.pread");
    ("fs.fsync.host_us_p50", p50 "fs.fsync");
    ("fs.fsync.host_us_p99", p99 "fs.fsync");
    ("stacks.commit_blocks.host_us_p50", p50 "stacks.commit_blocks.host");
    ("stacks.commit_blocks.host_us_p99", p99 "stacks.commit_blocks.host");
    ("stacks.read_block.host_us_p50", p50 "stacks.read_block.host");
    ("tinca.commit.host_us_p50", p50 "tinca.commit");
    ("tinca.commit_async.host_us_p50", p50 "tinca.commit_async");
    ("tinca.await.host_us_p99", p99 "tinca.await");
    ("tinca.read.host_us_p50", p50 "tinca.read");
    ("tinca.write.host_ns_p50", Samples.median (Layer.timer layer "tinca.write"));
    ("check.judge.host_us_p50", p50 "check.judge");
  ]

let str s = "\"" ^ String.escaped s ^ "\""

let identity ~workload ~seed rounds =
  let first = List.filteri (fun i _ -> i < pool) rounds in
  let count name s =
    let p, tail = Samples.tail s ~want:99.0 in
    Printf.sprintf "%s: {\"n\": %d, \"p50\": %s, \"tail_pct\": %s, \"tail\": %s}" (str name)
      (Samples.count s) (Metric.json_float (Samples.median s)) (Metric.json_float p) (Metric.json_float tail)
  in
  let floats f = "[" ^ String.concat ", " (List.map (fun r -> Metric.json_float (f r)) rounds) ^ "]" in
  let fingerprint (r : Round.t) =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ str v) r.Round.fingerprint) ^ "}"
  in
  Printf.sprintf
    "{\"identity\": {\"workload\": %s, \"seed\": %d, \"rounds\": %d, \"host\": {%s}, \"host_ops_per_s_by_round\": %s, \"setup_s_by_round\": %s, \"alloc_words_by_round\": %s, %s, \"fingerprints\": [%s]}}"
    (str workload) seed (List.length rounds)
    (String.concat ", "
       (List.map (fun (k, v) -> str k ^ ": " ^ Metric.json_float v) (host_rows rounds)))
    (floats ops_per_s)
    (floats (fun r -> r.Round.setup_s))
    (floats (fun r -> r.Round.minor_words))
    (String.concat ", "
       [ count "op_host" (pooled rounds (fun r -> r.Round.op_host));
         count "commit_sim" (pooled first (fun r -> r.Round.commit_sim));
         count "read_sim" (pooled first (fun r -> r.Round.read_sim)) ])
    (String.concat ", " (List.map fingerprint first))

let run ?(small = false) ~workload ~seed ~seconds ~traced () =
  match List.assoc_opt workload (workloads ~small) with
  | None -> None
  | Some f ->
      let min = pool + 1 in
      let plain = Layer.create ~traced:false in
      let (untraced, top_heap_words), traced_rounds, layer =
        if not traced then (rounds f ~seed ~seconds ~min plain, [], plain)
        else begin
          let half = seconds /. 2.0 in
          let u = rounds f ~seed ~seconds:half ~min:2 plain in
          let layer = Layer.create ~traced:true in
          (u, fst (rounds f ~seed ~seconds:half ~min layer), layer)
        end
      in
      let check rs =
        let a = Array.of_list rs in
        List.concat
          (List.mapi
             (fun i r ->
               if Round.sim_identity r = Round.sim_identity a.(i mod pool) then []
               else [ Printf.sprintf "round %d's simulated results differ from round %d's" i (i mod pool) ])
             rs)
      in
      let all = untraced @ traced_rounds in
      let failed = List.fold_left (fun acc r -> acc + r.Round.failed) 0 all in
      let problems =
        List.concat_map (fun r -> r.Round.problems) all
        @ check untraced
        @ check traced_rounds
      in
      let metrics =
        if not traced then end_to_end (untraced, top_heap_words)
        else begin
          let median f = Samples.median_of (List.map f all) in
          let rows =
            (List.hd traced_rounds).Round.layer
            @ host_rows untraced
            @ host_layer layer
            @ [
                ("workloads.gen.host_ms", median (fun r -> r.Round.gen_ms));
                ("workloads.prealloc.host_ms", median (fun r -> r.Round.prealloc_ms));
                ( "obs.overhead_frac",
                  host_ops_per_s untraced /. host_ops_per_s traced_rounds -. 1.0 );
              ]
          in
          List.map
            (fun d -> (d.Metric.name, Option.value ~default:0.0 (List.assoc_opt d.Metric.name rows)))
            Metric.per_layer
        end
      in
      Some
        {
          correct = problems = [] && failed = 0;
          attempted = List.fold_left (fun acc r -> acc + r.Round.ops) 0 all;
          failed;
          metrics = List.map (fun (k, v) -> (k, finite v)) metrics;
          identity = identity ~workload ~seed (if traced then traced_rounds else untraced);
          problems;
        }
