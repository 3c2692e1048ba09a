(* Persistence-budget pins for the fence-coalesced group commit.

   The staged pipeline (Cache §4.4, stages A–D) must keep the fence count
   of a commit CONSTANT in the transaction size: stage A (all COW data +
   entry lines, one fence), stage B (all ring slots, one fence; Head, one
   persist), the batched role switch (one fence) and the Tail persist —
   5 fences for any write-back commit, 6 with the write-through tail.
   These tests pin the budget so a fence regression fails loudly, pin
   the batched rollback of a mid-allocation failure (the generalization
   of the COW data-block leak), and cover the new Pmem/Ring batch
   primitives directly. *)

module Cache = Tinca_core.Cache
module Layout = Tinca_core.Layout
module Ring = Tinca_core.Ring
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
open Tinca_sim

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let mk_env ?(pmem_bytes = 160 * 1024) ?(nblocks = 256) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks ~block_size:4096 in
  { pmem; disk; clock; metrics }

let mk_cache ?(config = { Cache.default_config with ring_slots = 128 }) env =
  Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics

let commit_n cache n ~base =
  let h = Cache.Txn.init cache in
  for b = 0 to n - 1 do
    Cache.Txn.add h (base + b) (Bytes.make 4096 'w')
  done;
  Cache.Txn.commit h

let sfences env = Metrics.get env.metrics "pmem.sfence"
let writebacks env = Metrics.get env.metrics "pmem.clflush_writebacks"

(* An n-block commit issues O(1) sfences: the same count for 1, 8 and 64
   blocks, and at most 6.  A 1 MB device (~240 data blocks) keeps all
   three sizes free of evictions, so the budget is exactly the pipeline's
   own fences. *)
let test_commit_fence_budget () =
  let budgets =
    List.map
      (fun n ->
        let env = mk_env ~pmem_bytes:(1024 * 1024) () in
        let cache = mk_cache env in
        let before = sfences env in
        commit_n cache n ~base:0;
        let miss_commit = sfences env - before in
        (* Re-writing the same blocks (all COW write hits, with prev
           reclamation) must stay within the same budget. *)
        let before = sfences env in
        commit_n cache n ~base:0;
        let hit_commit = sfences env - before in
        Alcotest.(check bool)
          (Printf.sprintf "%d-block miss commit: %d sfences <= 6" n miss_commit)
          true (miss_commit <= 6);
        Alcotest.(check bool)
          (Printf.sprintf "%d-block hit commit: %d sfences <= 6" n hit_commit)
          true (hit_commit <= 6);
        Cache.check_invariants cache;
        (miss_commit, hit_commit))
      [ 1; 8; 64 ]
  in
  match budgets with
  | (m1, h1) :: rest ->
      List.iter
        (fun (m, h) ->
          Alcotest.(check int) "miss-commit fences independent of txn size" m1 m;
          Alcotest.(check int) "hit-commit fences independent of txn size" h1 h)
        rest
  | [] -> assert false

(* The write-through tail is batched too: one extra fence, not one per
   block. *)
let test_commit_fence_budget_write_through () =
  let env = mk_env ~pmem_bytes:(1024 * 1024) () in
  let cache =
    mk_cache
      ~config:{ Cache.default_config with ring_slots = 128; mode = Cache.Write_through }
      env
  in
  let before = sfences env in
  commit_n cache 8 ~base:0;
  let fences = sfences env - before in
  Alcotest.(check bool)
    (Printf.sprintf "8-block write-through commit: %d sfences <= 6" fences)
    true (fences <= 6)

(* Flush write-backs per commit stay proportional to the data actually
   written: 64 lines per 4 KB block plus a small metadata tail (entry
   lines twice — log swing and role switch — ring slot lines, Head and
   Tail), with nothing flushed twice within a stage. *)
let test_commit_writeback_budget () =
  List.iter
    (fun n ->
      let env = mk_env ~pmem_bytes:(1024 * 1024) () in
      let cache = mk_cache env in
      let before = writebacks env in
      commit_n cache n ~base:0;
      let wb = writebacks env - before in
      let data = 64 * n in
      Alcotest.(check bool)
        (Printf.sprintf "%d-block commit: %d write-backs in [%d, %d]" n wb data
           (data + (2 * n) + 8))
        true
        (wb >= data && wb <= data + (2 * n) + 8))
    [ 1; 8; 64 ]

(* The ablation baseline really is per-block: the same 8-block commit
   under the Per_block pipeline pays a fence bill that grows with n
   (~4n + 2), so the budget assertion above is measuring the batching. *)
let test_per_block_baseline_exceeds_budget () =
  let env = mk_env ~pmem_bytes:(1024 * 1024) () in
  let cache =
    mk_cache
      ~config:{ Cache.default_config with ring_slots = 128; commit_pipeline = Cache.Per_block }
      env
  in
  let before = sfences env in
  commit_n cache 8 ~base:0;
  let fences = sfences env - before in
  Alcotest.(check bool)
    (Printf.sprintf "per-block 8-block commit: %d sfences > 6" fences)
    true (fences > 6);
  Cache.check_invariants cache

(* [flush_all] marks every written-back block clean under one batched
   entry update: one fence however many blocks were dirty. *)
let test_flush_all_single_fence () =
  let env = mk_env ~pmem_bytes:(1024 * 1024) () in
  let cache = mk_cache env in
  for b = 0 to 5 do
    commit_n cache 1 ~base:b
  done;
  let before = sfences env in
  Cache.flush_all cache;
  Alcotest.(check int) "flush_all of 6 dirty blocks is one fence" 1 (sfences env - before);
  (* Idempotent second pass: nothing dirty, nothing fenced. *)
  let before = sfences env in
  Cache.flush_all cache;
  Alcotest.(check int) "clean flush_all fences nothing" 0 (sfences env - before)

(* Regression for the commit-path allocation leak: when the group
   commit's allocation pass fails midway (replacement out of victims),
   every NVM data block AND entry slot allocated by the pass — including
   COW blocks that never reached the index, which revocation cannot see
   — must return to the free pools.  Pre-fix, the leaked references made
   [check_invariants] fail on the free-monitor accounting.

   Setup: fill the cache completely with clean blocks, then stage a
   transaction of 4 misses followed by every cached block as a hit.
   Admission control would reject it, so drive it through
   [commit_prefix]: pass 1 pins all hits, the misses consume the only 4
   evictable victims (1 data block + 1 entry each), and the first hit
   allocation runs out of victims with 4 data blocks + 4 entries already
   allocated. *)
let test_group_alloc_rollback () =
  let env = mk_env ~nblocks:128 () in
  let cache = mk_cache ~config:{ Cache.default_config with ring_slots = 64 } env in
  (* Fill the cache: read distinct blocks until the data pool is empty. *)
  let cached = ref [] in
  let next = ref 0 in
  while Cache.free_blocks cache > 0 do
    ignore (Cache.read cache !next);
    cached := !next :: !cached;
    incr next
  done;
  let all_cached = List.rev !cached in
  let capacity = List.length all_cached in
  Alcotest.(check bool) "cache filled" true (capacity > 8);
  let evictable = 4 in
  let hits = List.filteri (fun i _ -> i < capacity - evictable) all_cached in
  let h = Cache.Txn.init cache in
  (* Misses first (insertion order = commit order), then the hits. *)
  for m = 0 to evictable - 1 do
    Cache.Txn.add h (!next + m) (Bytes.make 4096 'm')
  done;
  List.iter (fun b -> Cache.Txn.add h b (Bytes.make 4096 'h')) hits;
  let evictions_before = Metrics.get env.metrics "tinca.evictions" in
  Alcotest.check_raises "allocation pass exhausts replacement" Cache.Cache_exhausted
    (fun () -> Cache.Txn.commit_prefix h (Cache.Txn.block_count h));
  Cache.Txn.abort h;
  (* The four evictions stand (they completed); everything the failed
     pass allocated was returned, so the free pool holds exactly the
     evicted blocks and the full audit passes. *)
  Alcotest.(check int) "evictions performed" (evictions_before + evictable)
    (Metrics.get env.metrics "tinca.evictions");
  Alcotest.(check int) "pass-1 allocations all returned" evictable (Cache.free_blocks cache);
  Alcotest.(check int) "cache population consistent" (capacity - evictable)
    (Cache.cached_blocks cache);
  Cache.check_invariants cache;
  (* No staged content leaked into the cache, and it still commits. *)
  List.iter
    (fun b ->
      match Cache.peek cache b with
      | Some data -> Alcotest.(check char) "hit content untouched" '\000' (Bytes.get data 0)
      | None -> ())
    hits;
  Cache.write_direct cache 0 (Bytes.make 4096 'z');
  Cache.check_invariants cache

(* --- Ring.record_batch / publish ---------------------------------------- *)

let mk_ring ?(ring_slots = 8) () =
  let env = mk_env ~pmem_bytes:(64 * 1024) () in
  let layout = Layout.compute ~pmem_bytes:(64 * 1024) ~block_size:4096 ~ring_slots in
  let ring = Ring.attach ~pmem:env.pmem ~layout in
  Ring.format ring;
  (env, ring)

let test_ring_batch_staged_invisible () =
  let env, ring = mk_ring () in
  Ring.record_batch ring [ 11; 12; 13 ];
  (* Slots are durable but unpublished: invisible to the recovery scan. *)
  Alcotest.(check (list int)) "nothing pending before publish" [] (Ring.pending_blknos ring);
  Alcotest.(check int) "head not advanced" 0 (Ring.head ring);
  Pmem.crash ~seed:3 ~survival:0.0 env.pmem;
  Ring.reload ring;
  Alcotest.(check int) "crash before publish: ring quiescent" (Ring.tail ring) (Ring.head ring);
  Alcotest.(check (list int)) "crash before publish: nothing to revoke" []
    (Ring.pending_blknos ring)

let test_ring_batch_publish () =
  let _env, ring = mk_ring () in
  Ring.record_batch ring [ 11; 12; 13 ];
  Ring.publish ring 3;
  Alcotest.(check (list int)) "published batch pending, oldest first" [ 11; 12; 13 ]
    (Ring.pending_blknos ring);
  Alcotest.(check int) "in flight" 3 (Ring.in_flight ring);
  Ring.commit_point ring;
  Alcotest.(check (list int)) "quiescent after commit point" [] (Ring.pending_blknos ring)

let test_ring_batch_wraparound () =
  let _env, ring = mk_ring ~ring_slots:8 () in
  (* Advance the counters near the slot-array end, then batch across it. *)
  for b = 1 to 6 do
    Ring.record ring b
  done;
  Ring.commit_point ring;
  Ring.record_batch ring [ 21; 22; 23; 24 ];
  Ring.publish ring 4;
  Alcotest.(check (list int)) "batch wraps the slot array" [ 21; 22; 23; 24 ]
    (Ring.pending_blknos ring);
  Ring.commit_point ring

let test_ring_batch_overflow_rejected () =
  let _env, ring = mk_ring ~ring_slots:8 () in
  Alcotest.(check bool) "oversized batch rejected" true
    (try
       Ring.record_batch ring [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad publish count rejected" true
    (try
       Ring.publish ring (-1);
       false
     with Invalid_argument _ -> true);
  Ring.publish ring 0 (* no-op *);
  Alcotest.(check int) "head untouched" 0 (Ring.head ring)

(* One batched record of n slots fences once; n singleton records fence
   2n times (slot persist + Head persist each). *)
let test_ring_batch_fence_economy () =
  let env, ring = mk_ring ~ring_slots:64 () in
  let before = sfences env in
  Ring.record_batch ring [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Ring.publish ring 8;
  let batched = sfences env - before in
  Ring.commit_point ring;
  let before = sfences env in
  for b = 11 to 18 do
    Ring.record ring b
  done;
  let per_slot = sfences env - before in
  Alcotest.(check int) "batched record+publish is two fences" 2 batched;
  Alcotest.(check int) "per-slot record is two fences per slot" 16 per_slot

(* --- Pmem.flush_lines / writev ------------------------------------------ *)

let lineset lines =
  let s = Pmem.Lineset.create () in
  List.iter (Pmem.Lineset.add s) lines;
  s

let test_flush_lines_semantics () =
  let env = mk_env ~pmem_bytes:(64 * 1024) () in
  let p = env.pmem in
  Pmem.write p ~off:(1 * 64) (Bytes.make 64 'a');
  Pmem.write p ~off:(3 * 64) (Bytes.make 64 'b');
  let flushes = Metrics.get env.metrics "pmem.clflush" in
  let wb = Metrics.get env.metrics "pmem.clflush_writebacks" in
  (* Duplicates collapse: three requests, two issued flushes. *)
  Pmem.flush_lines p (lineset [ 3; 1; 1 ]);
  Alcotest.(check int) "deduplicated issue" (flushes + 2) (Metrics.get env.metrics "pmem.clflush");
  Alcotest.(check int) "both write-backs started" (wb + 2)
    (Metrics.get env.metrics "pmem.clflush_writebacks");
  Pmem.sfence p;
  Pmem.crash ~seed:5 ~survival:0.0 p;
  Alcotest.(check char) "line 1 durable" 'a' (Bytes.get (Pmem.read p ~off:(1 * 64) ~len:1) 0);
  Alcotest.(check char) "line 3 durable" 'b' (Bytes.get (Pmem.read p ~off:(3 * 64) ~len:1) 0)

let test_flush_lines_bounds () =
  let env = mk_env ~pmem_bytes:(64 * 1024) () in
  let flushes = Metrics.get env.metrics "pmem.clflush" in
  Alcotest.(check bool) "out-of-bounds line rejected" true
    (try
       Pmem.flush_lines env.pmem (lineset [ 0; 64 * 1024 / 64 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "nothing issued" flushes (Metrics.get env.metrics "pmem.clflush")

(* The point of the batch API: under a pipelined flush instruction, one
   scatter-gather burst is cheaper than the same lines flushed through
   separate serialized calls; under classic clflush the model charges
   identically (every line pays the full instruction latency). *)
let test_flush_lines_pipelining () =
  let cost flush_instr ~batched =
    let clock = Clock.create () in
    let metrics = Metrics.create () in
    let p = Pmem.create ~flush_instr ~clock ~metrics ~tech:Latency.Nvdimm ~size:4096 () in
    for l = 0 to 7 do
      Pmem.write p ~off:(l * 64) (Bytes.make 64 'x')
    done;
    let t0 = Clock.now_ns clock in
    if batched then Pmem.flush_lines p (lineset [ 0; 1; 2; 3; 4; 5; 6; 7 ])
    else
      for l = 0 to 7 do
        Pmem.clflush p ~off:(l * 64) ~len:64
      done;
    Clock.now_ns clock -. t0
  in
  Alcotest.(check bool) "clwb batch beats serialized calls" true
    (cost Latency.Clwb ~batched:true < cost Latency.Clwb ~batched:false);
  Alcotest.(check bool) "clflushopt batch beats serialized calls" true
    (cost Latency.Clflushopt ~batched:true < cost Latency.Clflushopt ~batched:false);
  Alcotest.(check (float 0.001)) "classic clflush gains nothing from batching"
    (cost Latency.Clflush ~batched:false)
    (cost Latency.Clflush ~batched:true)

let test_writev_scatter () =
  let env = mk_env ~pmem_bytes:(64 * 1024) () in
  let p = env.pmem in
  Pmem.writev p [ (0, Bytes.of_string "alpha"); (4096, Bytes.of_string "beta") ];
  Alcotest.(check string) "chunk 1" "alpha" (Bytes.to_string (Pmem.read p ~off:0 ~len:5));
  Alcotest.(check string) "chunk 2" "beta" (Bytes.to_string (Pmem.read p ~off:4096 ~len:4))

(* --- Async group commit (ISSUE 8) ---------------------------------------- *)

module Mq_driver = Tinca_harness.Mq_driver

let mk_facade ~window () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(8 * 1024 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes = 8 * 1024 * 1024;
      ring_slots = 1024;
      group_window_ns = window;
    }
  in
  (clock, metrics, Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics))

let run_group ~window ~streams =
  let clock, metrics, tc = mk_facade ~window () in
  let cfg =
    {
      Mq_driver.default with
      Mq_driver.streams;
      txns_per_stream = 16;
      txn_blocks = 2;
      universe = 2048;
      async = true;
      mixed_sizes = true;
    }
  in
  let r = Mq_driver.run ~clock ~metrics cfg tc in
  Tinca.check_invariants tc;
  r

(* The tentpole's budget: with a nonzero window and >= 8 open-loop
   commit_async streams, the standing batch amortizes the ~5-fence
   durability sequence so well that sfences PER COMMIT drops below 1 —
   the synchronous pipeline pays ~5. *)
let test_group_fence_amortization () =
  let r = run_group ~window:4_000_000 ~streams:8 in
  let spc = float_of_int r.Mq_driver.sfences /. float_of_int r.Mq_driver.commits in
  Alcotest.(check bool)
    (Printf.sprintf "8-stream async: %.2f sfences/commit <= 1" spc)
    true (spc <= 1.0);
  Alcotest.(check bool) "batches actually formed" true (r.Mq_driver.group_batches > 0);
  Alcotest.(check bool) "batches hold multiple txns" true
    (r.Mq_driver.commits > r.Mq_driver.group_batches)

(* Each batch drain publishes its whole slot run under a SINGLE Head
   advance (per touched shard; exactly one at N=1) — the per-txn Head
   persist is what the batching eliminates. *)
let test_group_one_head_advance_per_batch () =
  let r = run_group ~window:4_000_000 ~streams:8 in
  Alcotest.(check int) "one Head advance per batch at N=1" r.Mq_driver.group_batches
    r.Mq_driver.head_advances

(* window = 0 is the pinned degeneracy: commit_async + await through the
   async plumbing must be media-, cost- and fence-identical to the
   synchronous pipeline on the same stream workload. *)
let test_group_window0_equivalence () =
  let run ~async =
    let clock, metrics, tc = mk_facade ~window:0 () in
    let cfg =
      {
        Mq_driver.default with
        Mq_driver.streams = 4;
        txns_per_stream = 8;
        txn_blocks = 2;
        universe = 512;
        async;
        mixed_sizes = true;
      }
    in
    let r = Mq_driver.run ~clock ~metrics cfg tc in
    let ns = Clock.now_ns clock in
    let buf = Buffer.create (256 * 4096) in
    for blk = 0 to 255 do
      Buffer.add_bytes buf (Tinca.ok_exn (Tinca.read tc blk))
    done;
    (Digest.to_hex (Digest.string (Buffer.contents buf)), ns, r.Mq_driver.sfences)
  in
  let d_sync, ns_sync, sf_sync = run ~async:false in
  let d_async, ns_async, sf_async = run ~async:true in
  Alcotest.(check string) "media identical" d_sync d_async;
  Alcotest.(check (float 0.0)) "simulated cost identical" ns_sync ns_async;
  Alcotest.(check int) "sfence count identical" sf_sync sf_async

let test_writev_validates_before_writing () =
  let env = mk_env ~pmem_bytes:(64 * 1024) () in
  let p = env.pmem in
  Alcotest.(check bool) "bad chunk rejected" true
    (try
       Pmem.writev p [ (0, Bytes.of_string "good"); (64 * 1024 - 2, Bytes.of_string "bad") ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "no partial scatter" "\000\000\000\000"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:4))

(* --- Host allocation of a commit ------------------------------------------ *)

(* A warm facade's synchronous 64-block commit allocates a bounded number
   of minor words per block under either commit scheme: the flush batches
   of every commit stage are reused sets, not per-line lists.  Rewriting
   the same 64 blocks keeps every commit a write hit, so the cache state
   is the same from one commit to the next. *)
let test_commit_allocation () =
  Tinca_obs.Trace.disable ();
  let nblocks = 64 and budget = 160 in
  let words scheme =
    let clock = Clock.create () in
    let metrics = Metrics.create () in
    let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(4 * 1024 * 1024) () in
    let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:1024 ~block_size:4096 in
    let config =
      { Tinca.Config.default with Tinca.Config.nvm_bytes = 4 * 1024 * 1024; commit_scheme = scheme }
    in
    let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
    let data = Bytes.make 4096 'a' in
    let commit () =
      let txn = Tinca.init_txn tc in
      for b = 0 to nblocks - 1 do
        Tinca.ok_exn (Tinca.write txn b data)
      done;
      let w0 = Gc.minor_words () in
      Tinca.ok_exn (Tinca.commit txn);
      Gc.minor_words () -. w0
    in
    for _ = 1 to 3 do
      ignore (commit () : float)
    done;
    int_of_float (commit ()) / nblocks
  in
  List.iter
    (fun (name, scheme) ->
      let w = words scheme in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d minor words per block <= %d" name w budget)
        true (w <= budget))
    [
      ("logging", Tinca.Config.Logging Tinca.Batched);
      ("paging", Tinca.Config.Paging Tinca.Config.default_page_cfg);
    ]

let suite =
  [
    ( "core.persistence_budget",
      [
        Alcotest.test_case "commit fences O(1) in txn size" `Quick test_commit_fence_budget;
        Alcotest.test_case "write-through commit within budget" `Quick
          test_commit_fence_budget_write_through;
        Alcotest.test_case "commit write-backs proportional to data" `Quick
          test_commit_writeback_budget;
        Alcotest.test_case "per-block baseline exceeds budget" `Quick
          test_per_block_baseline_exceeds_budget;
        Alcotest.test_case "flush_all is one fence" `Quick test_flush_all_single_fence;
        Alcotest.test_case "group-commit allocation rollback" `Quick test_group_alloc_rollback;
        Alcotest.test_case "commit allocation per block" `Quick test_commit_allocation;
      ] );
    ( "core.ring_batch",
      [
        Alcotest.test_case "staged slots invisible until publish" `Quick
          test_ring_batch_staged_invisible;
        Alcotest.test_case "publish exposes the batch" `Quick test_ring_batch_publish;
        Alcotest.test_case "batch wraps the slot array" `Quick test_ring_batch_wraparound;
        Alcotest.test_case "overflow and bad counts rejected" `Quick
          test_ring_batch_overflow_rejected;
        Alcotest.test_case "batched fence economy" `Quick test_ring_batch_fence_economy;
      ] );
    ( "pmem.batch",
      [
        Alcotest.test_case "flush_lines semantics" `Quick test_flush_lines_semantics;
        Alcotest.test_case "flush_lines bounds" `Quick test_flush_lines_bounds;
        Alcotest.test_case "flush_lines pipelines clflushopt/clwb" `Quick
          test_flush_lines_pipelining;
        Alcotest.test_case "writev scatter roundtrip" `Quick test_writev_scatter;
        Alcotest.test_case "writev validates first" `Quick test_writev_validates_before_writing;
      ] );
    ( "facade.group_budget",
      [
        Alcotest.test_case "sfences/commit <= 1 at 8 async streams" `Quick
          test_group_fence_amortization;
        Alcotest.test_case "one Head advance per batch" `Quick
          test_group_one_head_advance_per_batch;
        Alcotest.test_case "window=0 equals synchronous pipeline" `Quick
          test_group_window0_equivalence;
      ] );
  ]
