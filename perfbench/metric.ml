type clock = Host | Sim | Count
type better = Lower | Higher

type decl = {
  name : string;
  unit : string;
  clock : clock;
  better : better;
  bound : float option;
}

let e ?(better = Lower) name unit clock bound = { name; unit; clock; better; bound = Some bound }
let l ?(better = Lower) name unit clock = { name; unit; clock; better; bound = None }

let end_to_end =
  [
    e "setup_s" "s" Host 0.25;
    e "commit_sim_mean_us" "us" Sim 0.2;
    e "read_sim_mean_us" "us" Sim 0.15;
    e "sim_ops_per_s" "1/s" Sim 0.15 ~better:Higher;
    e "alloc_words_per_op" "words/op" Host 0.1;
    e "peak_heap_mb" "MB" Host 0.2;
    e "recover_sim_ms" "ms" Sim 0.15;
    e "nvm_write_amp" "x" Sim 0.1;
  ]

let drain_causes = [ "sync"; "deadline"; "conflict"; "ring_pressure"; "max_batch"; "await"; "barrier" ]

let span_groups =
  [
    ("commit", "tinca.commit.", [ "alloc"; "stage_a"; "stage_b"; "head"; "role_switch"; "tail"; "writeback" ]);
    ("gcommit", "tinca.gcommit.", [ "flush"; "seal"; "finalize"; "retire" ]);
    ("xcommit", "tinca.xcommit.", [ "stage"; "publish"; "seal"; "finalize"; "retire" ]);
  ]

let site_prefixes = [ "commit"; "cache"; "ring"; "shard"; "paging" ]

let per_layer =
  [
    l "host.ops_per_s" "1/s" Host ~better:Higher;
    l "host.op_p50_us" "us" Host;
    l "host.op_p99_us" "us" Host;
    l "workloads.gen.host_ms" "ms" Host;
    l "workloads.prealloc.host_ms" "ms" Host;
    l "fs.pwrite.host_us_p50" "us" Host;
    l "fs.pread.host_us_p50" "us" Host;
    l "fs.fsync.host_us_p50" "us" Host;
    l "fs.fsync.host_us_p99" "us" Host;
    l "fs.fsync.self_host_frac" "frac" Host;
    l "fs.blocks_per_fsync" "blocks" Count;
    l "stacks.commit_blocks.host_us_p50" "us" Host;
    l "stacks.commit_blocks.host_us_p99" "us" Host;
    l "stacks.commit_blocks.sim_us_p99" "us" Sim;
    l "stacks.read_block.host_us_p50" "us" Host;
    l "stacks.read_block.sim_us_p99" "us" Sim;
    l "tinca.commit.host_us_p50" "us" Host;
    l "tinca.commit_async.host_us_p50" "us" Host;
    l "tinca.await.host_us_p99" "us" Host;
    l "tinca.read.host_us_p50" "us" Host;
    l "tinca.write.host_ns_p50" "ns" Host;
    l "tinca.group.txns_per_batch" "txns" Count ~better:Higher;
  ]
  @ List.map (fun c -> l ("tinca.group.drains." ^ c) "count" Count) drain_causes
  @ [
      l "tinca.group.pending_high_water" "txns" Count ~better:Higher;
      l "tinca.group.ack_to_durable_p99_us" "us" Sim;
      l "shard.multi_shard_commit_frac" "frac" Count;
      l "shard.cross_shard_seals_per_commit" "1/commit" Count;
      l "shard.lane_imbalance" "x" Sim;
      l "cache.write_hit_ratio" "frac" Count ~better:Higher;
      l "cache.read_hit_ratio" "frac" Count ~better:Higher;
      l "cache.evictions_per_op" "1/op" Count;
      l "cache.writebacks_per_op" "1/op" Count;
      l "cache.cleaned_per_op" "1/op" Count;
      l "cache.peak_cow_blocks" "blocks" Count;
      l "ring.head_advances_per_commit" "1/commit" Count;
      l "ring.high_water_max" "slots" Count;
      l "paging.table_swings_per_commit" "1/commit" Count;
      l "paging.epoch_swings_per_commit" "1/commit" Count;
      l "paging.pool_free_frac_min" "frac" Count ~better:Higher;
      l "paging.evictions_per_op" "1/op" Count;
      l "paging.writebacks_per_op" "1/op" Count;
      l "pmem.sfence_per_commit" "1/commit" Count;
      l "pmem.clflush_per_commit" "1/commit" Count;
      l "pmem.writebacks_per_commit" "1/commit" Count;
      l "pmem.stores_per_op" "1/op" Count;
      l "pmem.atomic_writes_per_commit" "1/commit" Count;
      l "pmem.wear_max" "count" Count;
      l "disk.reads_per_op" "1/op" Count;
      l "disk.writes_per_op" "1/op" Count;
      l "disk.seq_write_frac" "frac" Count ~better:Higher;
      l "check.states_per_point" "states" Count;
      l "check.states_per_s" "1/s" Host ~better:Higher;
      l "check.capped_points" "count" Count;
      l "check.states_deduped" "count" Count;
      l "check.max_torn_lines" "lines" Count;
      l "check.judge.host_us_p50" "us" Host;
      l "check.exhaustive_frac" "frac" Count ~better:Higher;
    ]
  @ List.concat_map
      (fun (group, _, stages) ->
        List.concat_map
          (fun s ->
            [
              l (Printf.sprintf "obs.%s.%s.sim_self_frac" group s) "frac" Sim;
              l (Printf.sprintf "obs.%s.%s.sfences" group s) "1/op" Count;
            ])
          stages)
      span_groups
  @ [ l "obs.overhead_frac" "frac" Host ]
  @ List.concat_map
      (fun p ->
        List.map
          (fun k -> l (Printf.sprintf "pmem.site.%s.%s" p k) "1/op" Count)
          [ "stores"; "flush_lines"; "sfences" ])
      site_prefixes

let layers =
  [
    ("workloads", [ "workloads." ], [ "setup_s" ], "fs_trace", "txn_log,txn_page");
    ("fs", [ "fs." ], [ "host.op_p50_us"; "host.op_p99_us"; "commit_sim_mean_us" ],
     "fs_trace", "txn_log,txn_page,crash_sweep");
    ("stacks", [ "stacks." ], [ "host.op_p99_us"; "commit_sim_mean_us" ], "fs_trace",
     "txn_log,txn_page,crash_sweep");
    ("tinca", [ "tinca." ], [ "commit_sim_mean_us"; "host.ops_per_s" ], "txn_log",
     "txn_page");
    ("shard", [ "shard." ], [ "sim_ops_per_s"; "commit_sim_mean_us" ], "txn_log", "fs_trace");
    ("cache+ring", [ "cache."; "ring." ], [ "sim_ops_per_s"; "nvm_write_amp"; "read_sim_mean_us" ],
     "fs_trace", "txn_page");
    ("paging", [ "paging." ], [ "commit_sim_mean_us"; "nvm_write_amp" ], "txn_page",
     "fs_trace,txn_log,crash_sweep");
    ("pmem", [ "pmem." ], [ "commit_sim_mean_us"; "nvm_write_amp"; "host.ops_per_s" ],
     "txn_page,txn_log,crash_sweep", "fs_trace");
    ("blockdev", [ "disk." ], [ "sim_ops_per_s"; "read_sim_mean_us" ], "fs_trace", "txn_log,txn_page");
    ("check", [ "check." ], [ "host.ops_per_s" ], "crash_sweep", "fs_trace,txn_log,txn_page");
    ("obs", [ "obs." ], [ "host.ops_per_s" ], "txn_log", "txn_page");
  ]

let workloads =
  [
    ( "fs_trace",
      "zipf block trace through Fs and the Tinca stack on a file twice the NVM: fsync path, eviction, cleaning and disk" );
    ( "txn_log",
      "8 async streams on the facade, logging at 4 shards with a group window, NVM-resident: fences and per-call cost" );
    ( "txn_page",
      "txn_log's inputs under the paging scheme at 1 shard, synchronous: isolates the commit scheme" );
    ( "crash_sweep",
      "budgeted crash-space sweep of the default checker workload: replay, snapshot/restore and recovery per state" );
  ]

let default_seed = 1
let holdout_seed = 7919

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let str s = "\"" ^ String.escaped s ^ "\""
let clock_name = function Host -> "host" | Sim -> "sim" | Count -> "count"
let better_name = function Lower -> "lower" | Higher -> "higher"
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[\n    " ^ String.concat ",\n    " items ^ "\n  ]"

let decl_json d =
  obj
    ([ ("name", str d.name); ("unit", str d.unit); ("clock", str (clock_name d.clock));
       ("better", str (better_name d.better)) ]
    @ match d.bound with Some b -> [ ("bound", json_float b) ] | None -> [])

let declaration_json () =
  let strs l = "[" ^ String.concat ", " (List.map str l) ^ "]" in
  "{\n"
  ^ String.concat ",\n"
      [
        "  \"default_seed\": " ^ string_of_int default_seed;
        "  \"holdout_seed\": " ^ string_of_int holdout_seed;
        "  \"workloads\": "
        ^ arr (List.map (fun (n, why) -> obj [ ("name", str n); ("why", str why) ]) workloads);
        "  \"end_to_end\": " ^ arr (List.map decl_json end_to_end);
        "  \"per_layer\": " ^ arr (List.map decl_json per_layer);
        "  \"layers\": "
        ^ arr
            (List.map
               (fun (layer, prefixes, moves, heavy, light) ->
                 obj
                   [ ("layer", str layer); ("metrics", strs prefixes); ("moves", strs moves);
                     ("heavy", str heavy); ("light", str light) ])
               layers);
      ]
  ^ "\n}\n"

let result_json ~correct ~attempted ~failed values =
  let all = end_to_end @ per_layer in
  let metric (name, v) =
    match List.find_opt (fun d -> d.name = name) all with
    | None -> invalid_arg ("Metric.result_json: undeclared metric " ^ name)
    | Some d -> (name, obj [ ("value", json_float v); ("unit", str d.unit) ])
  in
  obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", obj (List.map metric values));
    ]
