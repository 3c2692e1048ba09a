open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Block_io = Tinca_blockdev.Block_io
module Fc = Tinca_flashcache.Flashcache
module Journal = Tinca_jbd2.Journal
module Backend = Tinca_fs.Backend
module Trace = Tinca_obs.Trace

type env = { clock : Clock.t; metrics : Metrics.t; pmem : Pmem.t; disk : Disk.t }

let make_env ?(seed = 42) ?(tech = Latency.Pcm) ?(disk_kind = Latency.Ssd)
    ?(flush_instr = Latency.Clflush) ~nvm_bytes ~disk_blocks () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~seed ~flush_instr ~clock ~metrics ~tech ~size:nvm_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:disk_kind ~nblocks:disk_blocks ~block_size:4096 in
  { clock; metrics; pmem; disk }

type t = {
  label : string;
  env : env;
  backend : Backend.t;
  layouts : Tinca_core.Layout.t list;
      (* NVM space partition, one layout per shard, for the persistence
         sanitizer's region classifier (Tinca logging stacks only). *)
  page_layouts : Tinca_core.Paging.region_layout list;
      (* Same, for Tinca paging stacks: epoch/table/pool regions. *)
  cache_write_hit_rate : unit -> float;
  txn_size_histogram : unit -> Tinca_util.Histogram.t option;
  peak_cow_blocks : unit -> int;
  proc_stats : unit -> (string * string) list;
}

(* Observe the simulated latency of every backend operation into per-op
   histograms ("lat.commit", ...), so each stack reports percentile
   latencies through the same Metrics registry the counters use. *)
let with_latency env (b : Backend.t) =
  let timed name f =
    let t0 = Clock.now_ns env.clock in
    let r = f () in
    Metrics.observe env.metrics name (Clock.now_ns env.clock -. t0);
    r
  in
  {
    b with
    Backend.read_block =
      (fun blkno -> timed "lat.read_block" (fun () -> b.Backend.read_block blkno));
    commit_blocks = (fun blocks -> timed "lat.commit" (fun () -> b.Backend.commit_blocks blocks));
    write_blocks = (fun blocks -> timed "lat.write" (fun () -> b.Backend.write_blocks blocks));
    sync = (fun () -> timed "lat.sync" b.Backend.sync);
  }

(* --- Tinca stack --------------------------------------------------------- *)

(* The stack programs against the Tinca facade; the Backend contract is
   exception-based, so results are unwrapped with [Tinca.ok_exn] (whose
   exception mapping matches the old Cache-level ones 1:1). *)
let tinca_of_facade env tc =
  let backend =
    {
      Backend.name = "tinca";
      block_size = 4096;
      nblocks = Disk.nblocks env.disk;
      read_block = (fun blkno -> Tinca.ok_exn (Tinca.read tc blkno));
      commit_blocks =
        (fun blocks ->
          let txn = Tinca.init_txn tc in
          List.iter (fun (blkno, data) -> Tinca.ok_exn (Tinca.write txn blkno data)) blocks;
          Tinca.ok_exn (Tinca.commit txn));
      write_blocks =
        (fun blocks ->
          List.iter (fun (blkno, data) -> Tinca.ok_exn (Tinca.write_direct tc blkno data)) blocks);
      sync = (fun () -> Tinca.sync tc);
    }
  in
  Trace.name_track env.clock "tinca";
  {
    label = "Tinca";
    env;
    backend = with_latency env backend;
    layouts = Tinca.layouts tc;
    page_layouts = Tinca.page_layouts tc;
    cache_write_hit_rate = (fun () -> Tinca.write_hit_rate tc);
    txn_size_histogram = (fun () -> Some (Tinca.txn_size_histogram tc));
    peak_cow_blocks = (fun () -> Tinca.peak_cow_blocks tc);
    proc_stats =
      (fun () ->
        Tinca.stats_kv tc
        @ List.map
            (fun (region, total, peak) ->
              ("wear." ^ region, Printf.sprintf "%d (peak %d)" total peak))
            (Tinca.region_wear tc));
  }

let tinca ?(config = Tinca.Config.default) env =
  (* The env owns the device, so its geometry fields are authoritative:
     validation must see the device actually being formatted. *)
  let config = { config with Tinca.Config.nvm_bytes = Pmem.size env.pmem } in
  let tc =
    Tinca.ok_exn
      (Tinca.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  tinca_of_facade env tc

let tinca_recover env =
  let tc =
    Tinca.ok_exn
      (Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  tinca_of_facade env tc

(* --- Classic stack -------------------------------------------------------- *)

let io_of_fc fc ~nblocks =
  {
    Block_io.block_size = 4096;
    nblocks;
    read_block = (fun blkno -> Fc.read fc blkno);
    write_block = (fun blkno data -> Fc.write fc blkno data);
  }

let classic_of ~label env fc journal =
  let backend =
    {
      Backend.name = "classic";
      block_size = 4096;
      nblocks = Disk.nblocks env.disk;
      read_block =
        (fun blkno ->
          match Journal.read_cached journal blkno with
          | Some data -> data
          | None -> Fc.read fc blkno);
      commit_blocks =
        (fun blocks ->
          let h = Journal.init_txn journal in
          List.iter (fun (blkno, data) -> Journal.stage h blkno data) blocks;
          Journal.commit h);
      write_blocks = (fun blocks -> List.iter (fun (blkno, data) -> Fc.write fc blkno data) blocks);
      sync =
        (fun () ->
          Journal.checkpoint journal;
          Fc.flush_all fc);
    }
  in
  Trace.name_track env.clock "classic";
  {
    label;
    env;
    backend = with_latency env backend;
    layouts = [];
    page_layouts = [];
    cache_write_hit_rate = (fun () -> Fc.write_hit_rate fc);
    txn_size_histogram = (fun () -> None);
    peak_cow_blocks = (fun () -> 0);
    proc_stats =
      (fun () ->
        [
          ("fc_write_hit_ratio", Printf.sprintf "%.3f" (Fc.write_hit_rate fc));
          ("journal_used_blocks", string_of_int (Journal.used_blocks journal));
          ("journal_capacity_blocks", string_of_int (Journal.capacity_blocks journal));
          ("journal_pending_txns", string_of_int (Journal.pending_txns journal));
        ]);
  }

let journal_config ~journal_len ~disk_blocks =
  {
    Journal.start = disk_blocks - journal_len;
    len = journal_len;
    checkpoint_threshold = Journal.default_threshold;
  }

let classic ?(fc_config = Fc.default_config) ?(journal_len = 1024) env =
  let fc =
    Fc.create ~config:fc_config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
      ~metrics:env.metrics
  in
  let io = io_of_fc fc ~nblocks:(Disk.nblocks env.disk) in
  let config = journal_config ~journal_len ~disk_blocks:(Disk.nblocks env.disk) in
  let journal = Journal.format ~clock:env.clock ~config ~io ~metrics:env.metrics () in
  classic_of ~label:"Classic" env fc journal

let classic_recover ?(fc_config = Fc.default_config) ?(journal_len = 1024) env =
  let fc =
    Fc.recover ~config:fc_config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
      ~metrics:env.metrics
  in
  let io = io_of_fc fc ~nblocks:(Disk.nblocks env.disk) in
  let config = journal_config ~journal_len ~disk_blocks:(Disk.nblocks env.disk) in
  let journal = Journal.recover ~clock:env.clock ~config ~io ~metrics:env.metrics () in
  classic_of ~label:"Classic" env fc journal

(* --- UBJ stack -------------------------------------------------------------- *)

let ubj ?(ubj_config = Tinca_ubj.Ubj.default_config) env =
  let module Ubj = Tinca_ubj.Ubj in
  let u =
    Ubj.create ~config:ubj_config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
      ~metrics:env.metrics
  in
  let commit_blocks blocks =
    let h = Ubj.Txn.init u in
    List.iter (fun (blkno, data) -> Ubj.Txn.add h blkno data) blocks;
    Ubj.Txn.commit h
  in
  let backend =
    {
      Backend.name = "ubj";
      block_size = 4096;
      nblocks = Disk.nblocks env.disk;
      read_block = (fun blkno -> Ubj.read u blkno);
      commit_blocks;
      write_blocks = commit_blocks;
      sync = (fun () -> Ubj.flush_all u);
    }
  in
  Trace.name_track env.clock "ubj";
  {
    label = "UBJ";
    env;
    backend = with_latency env backend;
    layouts = [];
    page_layouts = [];
    cache_write_hit_rate = (fun () -> 0.0);
    txn_size_histogram = (fun () -> None);
    peak_cow_blocks = (fun () -> 0);
    proc_stats = (fun () -> []);
  }

(* --- No-journal stack ------------------------------------------------------ *)

let nojournal ?(fc_config = Fc.default_config) env =
  let fc =
    Fc.create ~config:fc_config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
      ~metrics:env.metrics
  in
  let write_blocks blocks = List.iter (fun (blkno, data) -> Fc.write fc blkno data) blocks in
  let backend =
    {
      Backend.name = "nojournal";
      block_size = 4096;
      nblocks = Disk.nblocks env.disk;
      read_block = (fun blkno -> Fc.read fc blkno);
      commit_blocks = write_blocks;
      write_blocks;
      sync = (fun () -> Fc.flush_all fc);
    }
  in
  Trace.name_track env.clock "nojournal";
  {
    label = "NoJournal";
    env;
    backend = with_latency env backend;
    layouts = [];
    page_layouts = [];
    cache_write_hit_rate = (fun () -> Fc.write_hit_rate fc);
    txn_size_histogram = (fun () -> None);
    peak_cow_blocks = (fun () -> 0);
    proc_stats =
      (fun () -> [ ("fc_write_hit_ratio", Printf.sprintf "%.3f" (Fc.write_hit_rate fc)) ]);
  }

(* --- persistence sanitizer wiring ---------------------------------------- *)

module Psan = Tinca_checker.Psan

let instrument ?strict ?max_violations stack =
  let psan =
    Psan.attach ?strict ?max_violations ~layouts:stack.layouts ~page_layouts:stack.page_layouts
      stack.env.pmem
  in
  (* Bracket every acknowledged commit so psan can enforce unfenced-ack:
     at commit return, all lines the transaction stored must be durable.
     A commit that raises acknowledged nothing, so the scope is dropped
     without the durability check. *)
  let commit_blocks blocks =
    Psan.txn_begin psan;
    match stack.backend.Backend.commit_blocks blocks with
    | () -> Psan.txn_end psan
    | exception e ->
        Psan.txn_abort psan;
        raise e
  in
  ({ stack with backend = { stack.backend with Backend.commit_blocks } }, psan)
