module Clock = Tinca_sim.Clock
module Metrics = Tinca_sim.Metrics
module Pmem = Tinca_pmem.Pmem
module Stacks = Tinca_stacks.Stacks
module Rng = Tinca_util.Rng
module Histogram = Tinca_util.Histogram
module Shard = Tinca_core.Shard

type scheme = Log | Page

type params = { universe : int; streams : int; ops : int; nvm_bytes : int; plant_corruption : bool }

let small = { universe = 128; streams = 8; ops = 600; nvm_bytes = 16 * 1024 * 1024; plant_corruption = false }
let default = { universe = 1024; streams = 8; ops = 6000; nvm_bytes = 16 * 1024 * 1024; plant_corruption = false }

type op = Read of int array | Txn of int array

let bs = 4096

let distinct rng ~universe size =
  let chosen = Hashtbl.create size in
  let blocks = Array.make size 0 in
  let i = ref 0 in
  while !i < size do
    let b = Rng.int rng universe in
    if not (Hashtbl.mem chosen b) then begin
      Hashtbl.replace chosen b ();
      blocks.(!i) <- b;
      incr i
    end
  done;
  blocks

(* Exactly 30% of operations are reads and exactly 5% (placed
   independently) touch 64 blocks, the ones that dominate the cost; the
   rest touch 8 blocks with odds 35:60 against 1.  The seed shuffles the
   placement and draws the small sizes and the blocks, so seeds differ
   slightly in work, never in its bulk. *)
let inputs p ~seed =
  let rng = Rng.create seed in
  let exact n frac = Array.init n (fun i -> i < int_of_float (frac *. float_of_int n)) in
  let reads = exact p.ops 0.30 and big = exact p.ops 0.05 in
  Rng.shuffle rng reads;
  Rng.shuffle rng big;
  Array.init p.ops (fun i ->
      let size = if big.(i) then 64 else if Rng.float rng < 35.0 /. 95.0 then 8 else 1 in
      let blocks = distinct rng ~universe:p.universe size in
      if reads.(i) then Read blocks else Txn blocks)

let config = function
  | Log ->
      { Tinca.Config.default with
        Tinca.Config.nshards = 4;
        commit_scheme = Tinca.Config.Logging Tinca.Batched;
        group_window_ns = 4_000_000 }
  | Page ->
      { Tinca.Config.default with
        Tinca.Config.nshards = 1;
        commit_scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg }

let round ?(params = default) scheme ~seed layer =
  let p = params in
  let h0 = Hclock.now_ns () in
  let ops_in = inputs p ~seed in
  let h1 = Hclock.now_ns () in
  let env = Stacks.make_env ~seed ~nvm_bytes:p.nvm_bytes ~disk_blocks:p.universe () in
  let clock = env.Stacks.clock and pmem = env.Stacks.pmem in
  let cfg = { (config scheme) with Tinca.Config.nvm_bytes = p.nvm_bytes } in
  let tc =
    Tinca.ok_exn
      (Tinca.format ~config:cfg ~pmem ~disk:env.Stacks.disk ~clock ~metrics:env.Stacks.metrics)
  in
  let oracle = Oracle.create ~block_size:bs ~nblocks:p.universe ~initial:(fun _ -> Bytes.make bs '\000') in
  (* Prefill: every block of the universe gets its first version. *)
  let b = ref 0 in
  while !b < p.universe do
    let txn = Tinca.init_txn tc in
    for blk = !b to min p.universe (!b + 64) - 1 do
      Tinca.ok_exn (Tinca.write txn blk (Oracle.write oracle blk))
    done;
    Tinca.ok_exn (Tinca.commit txn);
    b := !b + 64
  done;
  let h2 = Hclock.now_ns () in
  let n = Array.length ops_in in
  let op_host = Samples.create ~capacity:n ()
  and commit_sim = Samples.create ~capacity:n ()
  and read_sim = Samples.create ~capacity:n () in
  let mismatches = ref 0 and failed = ref 0 and user_bytes = ref 0 and commits = ref 0 in
  let tickets = Array.make p.streams None in
  let await k =
    match tickets.(k) with
    | None -> ()
    | Some tk ->
        tickets.(k) <- None;
        (match Layer.time layer "tinca.await" (fun () -> Tinca.await tk) with
        | Ok () -> Samples.add commit_sim (Option.value ~default:0.0 (Tinca.ticket_latency_ns tk))
        | Error _ -> incr failed)
  in
  let txn_op k blocks =
    let txn = Tinca.init_txn tc in
    let staged =
      Array.for_all
        (fun blk ->
          let data = Oracle.next_payload oracle blk in
          Result.is_ok (Layer.time layer "tinca.write" (fun () -> Tinca.write txn blk data)))
        blocks
    in
    let applied =
      staged
      &&
      match scheme with
      | Page ->
          let s0 = Clock.now_ns clock in
          let r = Layer.time layer "tinca.commit" (fun () -> Tinca.commit txn) in
          if Result.is_ok r then Samples.add commit_sim (Clock.now_ns clock -. s0);
          Result.is_ok r
      | Log -> (
          match Layer.time layer "tinca.commit_async" (fun () -> Tinca.commit_async txn) with
          | Ok tk ->
              tickets.(k) <- Some tk;
              true
          | Error _ -> false)
    in
    if applied then begin
      Array.iter (Oracle.advance oracle) blocks;
      user_bytes := !user_bytes + (bs * Array.length blocks);
      incr commits
    end
    else begin
      ignore (Tinca.abort txn);
      incr failed
    end
  in
  let read_op blocks =
    let s0 = Clock.now_ns clock in
    let ok =
      Array.for_all
        (fun blk ->
          match Layer.time layer "tinca.read" (fun () -> Tinca.read tc blk) with
          | Ok data ->
              if not (Oracle.matches oracle blk data) then incr mismatches;
              true
          | Error _ -> false)
        blocks
    in
    if ok then Samples.add read_sim (Clock.now_ns clock -. s0) else incr failed
  in
  let snap = Metrics.snapshot env.Stacks.metrics in
  let kv0 = Tinca.stats_kv tc in
  let sim0 = Clock.now_ns clock in
  if scheme = Log then Shard.reset_lanes (Tinca.shard tc);
  let pool_free_min = ref 1.0 in
  let sample_pool () =
    let kvs = Tinca.stats_kv tc in
    let total = Layer.kv kvs "pool_frames" in
    if total > 0.0 then pool_free_min := Float.min !pool_free_min (Layer.kv kvs "pool_frames_free" /. total)
  in
  (* Collect set-up garbage first: the measured phase pays for its own. *)
  Gc.full_major ();
  Layer.start layer;
  Layer.attach layer pmem;
  let w0 = Gc.minor_words () in
  let m0 = Hclock.now_ns () in
  for i = 0 to n - 1 do
    let k = i mod p.streams in
    let t0 = Hclock.now_ns () in
    await k;
    (match ops_in.(i) with Read blocks -> read_op blocks | Txn blocks -> txn_op k blocks);
    Samples.add op_host (Hclock.now_ns () -. t0);
    if scheme = Page && Layer.recording layer && i land 63 = 0 then sample_pool ()
  done;
  for k = 0 to p.streams - 1 do
    await k
  done;
  let host_ns = Hclock.now_ns () -. m0 in
  let minor_words = Gc.minor_words () -. w0 in
  let sim_ns = Clock.now_ns clock -. sim0 in
  let delta = Metrics.since env.Stacks.metrics snap in
  let spans = Layer.stop layer ~ops:n ~sim_ns in
  let layer_rows =
    if not (Layer.traced layer) then []
    else begin
      let kvs = Tinca.stats_kv tc in
      let f = float_of_int in
      let kv_delta key = Layer.kv kvs key -. Layer.kv kv0 key in
      let per_op x = x /. f n and per_commit x = x /. f (max 1 !commits) in
      let group =
        match scheme with
        | Page -> []
        | Log ->
            let lanes = Shard.lane_ns (Tinca.shard tc) in
            let lane_max = Array.fold_left Float.max 0.0 lanes in
            let lane_mean = Array.fold_left ( +. ) 0.0 lanes /. f (Array.length lanes) in
            let batches = kv_delta "group_batches" in
            [
              ("tinca.group.txns_per_batch", if batches > 0.0 then f !commits /. batches else 0.0);
              ("tinca.group.pending_high_water", Layer.kv kvs "group_pending_high_water");
              ("tinca.group.ack_to_durable_p99_us", Histogram.percentile (Tinca.group_ack_to_durable tc) 99.0 /. 1e3);
              ("shard.lane_imbalance", if lane_mean > 0.0 then lane_max /. lane_mean else 0.0);
              ("shard.multi_shard_commit_frac", per_commit (kv_delta "multi_shard_commits"));
              ("cache.peak_cow_blocks", Layer.kv kvs "peak_cow_blocks");
              ("ring.high_water_max", Layer.kv kvs "ring_high_water_max");
            ]
            @ List.map (fun c -> ("tinca.group.drains." ^ c, kv_delta ("group_drains_" ^ c))) Metric.drain_causes
      in
      let paging =
        match scheme with
        | Log -> []
        | Page ->
            [
              ("paging.table_swings_per_commit", per_commit (kv_delta "table_swings"));
              ("paging.epoch_swings_per_commit", per_commit (kv_delta "epoch_swings"));
              ("paging.pool_free_frac_min", !pool_free_min);
              ("paging.evictions_per_op", per_op (kv_delta "evictions"));
              ("paging.writebacks_per_op", per_op (kv_delta "writebacks"));
            ]
      in
      spans @ Layer.counter_metrics ~delta ~ops:n ~commits:!commits ~wear_max:(Pmem.wear_max pmem) @ group @ paging
    end
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if !mismatches > 0 then problem "%d measured reads returned stale or wrong data" !mismatches;
  let audit label tc =
    try Tinca.check_invariants tc with e -> problem "%s invariants: %s" label (Printexc.to_string e)
  in
  let read_back label tc =
    let bad = ref 0 in
    for blk = 0 to p.universe - 1 do
      match Tinca.read tc blk with
      | Ok data -> if not (Oracle.matches oracle blk data) then incr bad
      | Error _ -> incr bad
    done;
    if !bad > 0 then problem "%s: %d of %d blocks differ from the oracle" label !bad p.universe
  in
  (* A last transaction of 8 blocks with a crash armed at a
     seed-chosen pmem event inside it (or, for late draws, just after
     it): recovery must keep every acknowledged write and apply that
     transaction entirely or not at all. *)
  let cut_short () =
    let rng = Rng.create (seed + 17) in
    let blocks = distinct rng ~universe:p.universe 8 in
    Pmem.set_crash_countdown pmem (Some (1 + Rng.int rng 96));
    let committed =
      try
        let txn = Tinca.init_txn tc in
        Array.iter (fun b -> Tinca.ok_exn (Tinca.write txn b (Oracle.next_payload oracle b))) blocks;
        Tinca.ok_exn (Tinca.commit txn);
        true
      with Pmem.Crash_point -> false
    in
    Pmem.set_crash_countdown pmem None;
    (blocks, committed)
  in
  let recover_sim_ns =
    try
      Tinca.group_flush tc;
      audit "pre-crash" tc;
      if p.plant_corruption then Oracle.corrupt oracle 0;
      read_back "read-back" tc;
      let blocks, committed = cut_short () in
      Pmem.crash ~seed pmem;
      let s0 = Clock.now_ns clock in
      let recovered =
        Tinca.recover ~pmem ~disk:env.Stacks.disk ~clock ~metrics:env.Stacks.metrics
      in
      let recover_ns = Clock.now_ns clock -. s0 in
      (match recovered with
      | Error e -> problem "recovery failed: %s" (Tinca.error_message e)
      | Ok tc ->
          audit "post-crash" tc;
          (match Oracle.in_flight oracle (fun b -> Result.to_option (Tinca.read tc b)) blocks with
          | `Post -> Array.iter (Oracle.advance oracle) blocks
          | `Pre when not committed -> ()
          | `Pre -> problem "an acknowledged transaction was lost in the crash"
          | `Mixed -> problem "the transaction cut short by the crash was applied in part");
          read_back "post-crash read-back" tc);
      recover_ns
    with e ->
      problem "verification raised %s" (Printexc.to_string e);
      0.0
  in
  {
    Round.setup_s = (h2 -. h0) /. 1e9;
    gen_ms = (h1 -. h0) /. 1e6;
    prealloc_ms = (h2 -. h1) /. 1e6;
    ops = n;
    failed = !failed;
    host_s = host_ns /. 1e9;
    op_host;
    commit_sim;
    read_sim;
    sim_ns;
    minor_words;
    recover_sim_ns;
    write_amp =
      float_of_int (delta "pmem.clflush_writebacks" * Pmem.line_size) /. float_of_int (max 1 !user_bytes);
    problems = List.rev !problems;
    fingerprint = Round.fingerprint ~clock ~pmem ~metrics:env.Stacks.metrics;
    layer = layer_rows;
  }
