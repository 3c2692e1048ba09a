module Fs = Tinca_fs.Fs
module Stacks = Tinca_stacks.Stacks
module Trace = Tinca_workloads.Trace
module Ops = Tinca_workloads.Ops
module Clock = Tinca_sim.Clock
module Metrics = Tinca_sim.Metrics
module Pmem = Tinca_pmem.Pmem

type params = { nblocks : int; warmup : int; ops : int; nvm_bytes : int; plant_corruption : bool }

let small = { nblocks = 512; warmup = 200; ops = 1500; nvm_bytes = 4 * 1024 * 1024; plant_corruption = false }

let default =
  { nblocks = 4096; warmup = 4000; ops = 12000; nvm_bytes = 8 * 1024 * 1024; plant_corruption = false }

let bs = 4096
let fs_config = Fs.default_config

let inputs p ~seed =
  Array.of_list
    (Trace.synthesize ~seed ~nblocks:p.nblocks ~ops:(p.warmup + p.ops) ~read_pct:0.5 ~zipf_theta:0.9
       ~fsync_every:8)

(* What [Trace.prealloc] leaves in block [b]: its 256 KiB fill chunks
   are prefixes of the [Ops.payload] pattern, so block b holds the
   window at (b * 4096) mod 256 KiB. *)
let prealloc_contents () =
  let chunk = 1 lsl 18 in
  let pattern = Ops.payload chunk in
  let windows = Array.init (chunk / bs) (fun i -> Bytes.sub pattern (i * bs) bs) in
  fun b -> windows.(b mod Array.length windows)

let round ?(params = default) ~seed layer =
  let p = params in
  let h0 = Hclock.now_ns () in
  let trace = inputs p ~seed in
  let h1 = Hclock.now_ns () in
  let env = Stacks.make_env ~seed ~nvm_bytes:p.nvm_bytes ~disk_blocks:(max 4096 (2 * p.nblocks)) () in
  let stack = Stacks.tinca env in
  let fs = Fs.format ~config:fs_config (Layer.wrap_backend layer env.clock stack.Stacks.backend) in
  Trace.prealloc ~block_size:bs [ Trace.Read (p.nblocks - 1) ] (Ops.of_fs fs);
  let oracle = Oracle.create ~block_size:bs ~nblocks:p.nblocks ~initial:(prealloc_contents ()) in
  let h2 = Hclock.now_ns () in
  let file = Trace.file_name in
  let mismatches = ref 0 and failed = ref 0 in
  let n = Array.length trace in
  let first = min n p.warmup in
  let op_host = Samples.create ~capacity:n ()
  and commit_sim = Samples.create ~capacity:(n / 8) ()
  and read_sim = Samples.create ~capacity:n () in
  let fsync_host = ref 0.0 and fsync_child = ref 0.0 and fsyncs = ref 0 and fsync_blocks = ref 0 in
  let user_bytes = ref 0 in
  let step ~measure op =
    let h0 = Hclock.now_ns () and s0 = Clock.now_ns env.clock in
    match op with
    | Trace.Read b ->
        let data = Fs.pread fs file ~off:(b * bs) ~len:bs in
        let dh = Hclock.now_ns () -. h0 in
        if measure then begin
          Samples.add op_host dh;
          Samples.add read_sim (Clock.now_ns env.clock -. s0);
          Layer.record layer "fs.pread" dh
        end;
        if not (Oracle.matches oracle b data) then incr mismatches
    | Trace.Write b ->
        Fs.pwrite fs file ~off:(b * bs) (Oracle.write oracle b);
        let dh = Hclock.now_ns () -. h0 in
        if measure then begin
          Samples.add op_host dh;
          Layer.record layer "fs.pwrite" dh;
          user_bytes := !user_bytes + bs
        end
    | Trace.Fsync ->
        let c0 = Layer.commit_host_ns layer and b0 = Layer.commit_blocks layer in
        Fs.fsync fs;
        let dh = Hclock.now_ns () -. h0 in
        if measure then begin
          Samples.add op_host dh;
          Samples.add commit_sim (Clock.now_ns env.clock -. s0);
          Layer.record layer "fs.fsync" dh;
          fsync_host := !fsync_host +. dh;
          fsync_child := !fsync_child +. (Layer.commit_host_ns layer -. c0);
          fsync_blocks := !fsync_blocks + (Layer.commit_blocks layer - b0);
          incr fsyncs
        end
  in
  (* The file system's own errors count as failed ops; anything else the
     library raises is a fault and ends the run. *)
  let step ~measure op = try step ~measure op with Fs.No_space | Fs.No_such_file _ -> incr failed in
  for i = 0 to first - 1 do
    step ~measure:false trace.(i)
  done;
  let snap = Metrics.snapshot env.metrics in
  let sim0 = Clock.now_ns env.clock in
  (* Collect set-up garbage first: the measured phase pays for its own. *)
  Gc.full_major ();
  Layer.start layer;
  Layer.attach layer env.pmem;
  let w0 = Gc.minor_words () in
  let m0 = Hclock.now_ns () in
  for i = first to n - 1 do
    step ~measure:true trace.(i)
  done;
  let host_ns = Hclock.now_ns () -. m0 in
  let minor_words = Gc.minor_words () -. w0 in
  let ops = n - first in
  let sim_ns = Clock.now_ns env.clock -. sim0 in
  let delta = Metrics.since env.metrics snap in
  let commits = delta "tinca.commits" in
  let spans = Layer.stop layer ~ops ~sim_ns in
  let layer_rows =
    if not (Layer.traced layer) then []
    else begin
      let kvs = stack.Stacks.proc_stats () in
      let f = float_of_int in
      spans
      @ Layer.counter_metrics ~delta ~ops ~commits ~wear_max:(Pmem.wear_max env.pmem)
      @ [
          ("fs.blocks_per_fsync", f !fsync_blocks /. f (max 1 !fsyncs));
          ("fs.fsync.self_host_frac", if !fsync_host > 0.0 then 1.0 -. (!fsync_child /. !fsync_host) else 0.0);
          ("stacks.commit_blocks.sim_us_p99", Samples.percentile (Layer.timer layer "stacks.commit_blocks.sim") 99.0 /. 1e3);
          ("stacks.read_block.sim_us_p99", Samples.percentile (Layer.timer layer "stacks.read_block.sim") 99.0 /. 1e3);
          ("cache.peak_cow_blocks", Layer.kv kvs "peak_cow_blocks");
          ("ring.high_water_max", Layer.kv kvs "ring_high_water_max");
          ("shard.lane_imbalance", 1.0);
        ]
    end
  in
  (* Verification: a full read-back, fsck, then a crash; everything
     fsync'd must survive recovery bit for bit. *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if !mismatches > 0 then problem "%d measured reads returned stale or wrong data" !mismatches;
  let read_back label fs =
    let bad = ref 0 in
    for b = 0 to p.nblocks - 1 do
      if not (Oracle.matches oracle b (Fs.pread fs file ~off:(b * bs) ~len:bs)) then incr bad
    done;
    if !bad > 0 then problem "%s: %d of %d blocks differ from the oracle" label !bad p.nblocks
  in
  let fsck label fs = try Fs.fsck fs with Failure m -> problem "%s fsck: %s" label m in
  (* A last fsync of 8 overwritten blocks with a crash armed at a
     seed-chosen pmem event inside it (or, for late draws, just after
     it): recovery must keep everything fsync'd before and apply the
     last transaction entirely or not at all. *)
  let cut_short () =
    let rng = Tinca_util.Rng.create (seed + 17) in
    let blocks =
      Array.of_list (List.sort_uniq compare (List.init 8 (fun _ -> Tinca_util.Rng.int rng p.nblocks)))
    in
    Array.iter (fun b -> Fs.pwrite fs file ~off:(b * bs) (Oracle.next_payload oracle b)) blocks;
    Pmem.set_crash_countdown env.pmem (Some (1 + Tinca_util.Rng.int rng 96));
    let committed =
      try
        Fs.fsync fs;
        true
      with Pmem.Crash_point -> false
    in
    Pmem.set_crash_countdown env.pmem None;
    (blocks, committed)
  in
  let recover_sim_ns =
    try
      Fs.fsync fs;
      if p.plant_corruption then Oracle.corrupt oracle 0;
      read_back "read-back" fs;
      fsck "pre-crash" fs;
      let blocks, committed = cut_short () in
      Pmem.crash ~seed env.pmem;
      let s0 = Clock.now_ns env.clock in
      let recovered = Stacks.tinca_recover env in
      let recover_ns = Clock.now_ns env.clock -. s0 in
      let fs = Fs.mount ~config:fs_config recovered.Stacks.backend in
      fsck "post-crash" fs;
      (match Oracle.in_flight oracle (fun b -> Some (Fs.pread fs file ~off:(b * bs) ~len:bs)) blocks with
      | `Post -> Array.iter (Oracle.advance oracle) blocks
      | `Pre when not committed -> ()
      | `Pre -> problem "an fsync'd transaction was lost in the crash"
      | `Mixed -> problem "the fsync cut short by the crash was applied in part");
      read_back "post-crash read-back" fs;
      recover_ns
    with e ->
      problem "verification raised %s" (Printexc.to_string e);
      0.0
  in
  {
    Round.setup_s = (h2 -. h0) /. 1e9;
    gen_ms = (h1 -. h0) /. 1e6;
    prealloc_ms = (h2 -. h1) /. 1e6;
    ops;
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
    fingerprint = Round.fingerprint ~clock:env.clock ~pmem:env.pmem ~metrics:env.metrics;
    layer = layer_rows;
  }
