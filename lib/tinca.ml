open Tinca_sim
module Disk = Tinca_blockdev.Disk
module Cache = Tinca_core.Cache
module Shard = Tinca_core.Shard
module Layout = Tinca_core.Layout
module Paging = Tinca_core.Paging
module Histogram = Tinca_util.Histogram
module Trace = Tinca_obs.Trace
module Flight = Tinca_obs.Flight
module Forensics = Tinca_obs.Forensics

(* Re-exported with type equations, so facade users and the retained
   Cache interface agree on the same constructors. *)
type write_policy = Cache.mode = Write_back | Write_through
type pipeline = Cache.pipeline = Per_block | Batched

module Config = struct
  (* Paging-scheme knobs (the logging pipeline's knobs — ring_slots and
     the pipeline variant — do not apply to paging, and vice versa). *)
  type page_cfg = {
    page_headroom : int;
        (* free page frames admission keeps in reserve beyond a
           transaction's own demand; >= 0 *)
  }

  let default_page_cfg = { page_headroom = 0 }

  (* The one validated commit-scheme choice (ISSUE 10): the logging
     ring pipeline in either of its variants, or COW paging through a
     persistent indirection table. *)
  type scheme = Logging of pipeline | Paging of page_cfg

  type t = {
    nvm_bytes : int;
    block_size : int;
    ring_slots : int;
    nshards : int;
    commit_scheme : scheme;
    flush_instr : Latency.flush_instr;
    write_policy : write_policy;
    clean_threshold : float;
    alloc_policy : Tinca_cachelib.Free_monitor.policy;
    group_window_ns : int;
    group_max_batch : int;
    flight_slots : int;
  }

  let default =
    {
      nvm_bytes = 8 * 1024 * 1024;
      block_size = Cache.default_config.Cache.block_size;
      ring_slots = Cache.default_config.Cache.ring_slots;
      nshards = 1;
      commit_scheme = Logging Cache.default_config.Cache.commit_pipeline;
      flush_instr = Latency.Clflush;
      write_policy = Cache.default_config.Cache.mode;
      clean_threshold = Cache.default_config.Cache.clean_threshold;
      alloc_policy = Cache.default_config.Cache.alloc_policy;
      group_window_ns = 0;
      group_max_batch = 32;
      flight_slots = 0;
    }

  let scheme_name = function Logging _ -> "logging" | Paging _ -> "paging"

  let validate c =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    if c.block_size <= 0 || c.block_size mod 64 <> 0 then
      err "block_size %d must be a positive multiple of 64" c.block_size
    else if c.ring_slots <= 0 then err "ring_slots %d must be positive" c.ring_slots
    else if c.nshards < 1 || c.nshards > Shard.max_shards then
      err "nshards %d not in [1, %d]" c.nshards Shard.max_shards
    else if not (c.clean_threshold > 0.0 && c.clean_threshold <= 1.0) then
      err "clean_threshold %g not in (0, 1]" c.clean_threshold
    else if c.nvm_bytes <= 0 then err "nvm_bytes %d must be positive" c.nvm_bytes
    else if c.group_window_ns < 0 then
      err "group_window_ns %d must be non-negative" c.group_window_ns
    else if c.group_max_batch < 1 then
      err "group_max_batch %d must be positive" c.group_max_batch
    else if c.flight_slots < 0 then err "flight_slots %d must be non-negative" c.flight_slots
    else
      match c.commit_scheme with
      | Logging pipeline ->
          if c.group_window_ns > 0 && pipeline <> Batched then
            err "group_window_ns requires the Batched commit pipeline"
          else
            (* Geometry must fit: every shard's span must host the ring
               plus at least one data block and entry — the same check
               Layout.compute performs, applied to the tightest shard. *)
            let span = (c.nvm_bytes - 128) / c.nshards / 64 * 64 in
            if span < 64 then err "nvm_bytes %d too small for %d shards" c.nvm_bytes c.nshards
            else (
              match
                Layout.compute_flight ~flight_slots:c.flight_slots ~base:0 ~pmem_bytes:span
                  ~block_size:c.block_size ~ring_slots:c.ring_slots
              with
              | _ -> Ok c
              | exception Invalid_argument _ ->
                  err "nvm_bytes %d cannot host %d shard(s) of block_size %d with %d ring slots"
                    c.nvm_bytes c.nshards c.block_size c.ring_slots)
      | Paging pcfg ->
          if c.group_window_ns > 0 then
            err "the paging scheme has no group committer: group_window_ns must be 0"
          else if c.write_policy <> Write_back then
            err "the paging scheme is write-back only"
          else if pcfg.page_headroom < 0 then
            err "page_headroom %d must be non-negative" pcfg.page_headroom
          else (
            match
              Paging.check_geometry ~nshards:c.nshards ~pmem_bytes:c.nvm_bytes
                ~block_size:c.block_size ~flight_slots:c.flight_slots
            with
            | Ok () -> Ok c
            | Error m -> Error m)

  let to_cache_config c =
    {
      Cache.block_size = c.block_size;
      ring_slots = c.ring_slots;
      mode = c.write_policy;
      clean_threshold = c.clean_threshold;
      alloc_policy = c.alloc_policy;
      commit_pipeline =
        (match c.commit_scheme with
        | Logging p -> p
        | Paging _ -> Cache.default_config.Cache.commit_pipeline);
      flight_slots = c.flight_slots;
    }

  let to_page_config c pcfg =
    {
      Paging.block_size = c.block_size;
      flight_slots = c.flight_slots;
      headroom = pcfg.page_headroom;
    }

  (* The one CLI spelling of a scheme, shared by every subcommand. *)
  let scheme_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "logging" | "log" | "batched" -> Ok (Logging Batched)
    | "per-block" | "perblock" | "logging-per-block" -> Ok (Logging Per_block)
    | "paging" | "page" -> Ok (Paging default_page_cfg)
    | other ->
        Error
          (Printf.sprintf
             "unknown scheme %S (expected logging | per-block | paging)" other)

  (* Central CLI-to-config funnel (ISSUE 10 satellite): every
     tinca_bench / tinca_check subcommand builds its config through this
     one helper, so they all accept the same --scheme / --shards /
     --group-window / --flight-slots vocabulary and reject the same
     invalid combinations.  Unset arguments keep [base]'s values. *)
  let of_args ?(base = default) ?scheme ?shards ?group_window ?flight_slots ?ring_slots
      ?nvm_bytes () =
    let ( let* ) = Result.bind in
    let* scheme =
      match scheme with
      | None -> Ok base.commit_scheme
      | Some s -> scheme_of_string s
    in
    let c =
      {
        base with
        commit_scheme = scheme;
        nshards = Option.value ~default:base.nshards shards;
        group_window_ns = Option.value ~default:base.group_window_ns group_window;
        flight_slots = Option.value ~default:base.flight_slots flight_slots;
        ring_slots = Option.value ~default:base.ring_slots ring_slots;
        nvm_bytes = Option.value ~default:base.nvm_bytes nvm_bytes;
      }
    in
    validate c
end

type error =
  | Transaction_too_large
  | Txn_not_running
  | Wrong_block_size of { expected : int; got : int }
  | Block_out_of_range of int
  | Unformatted of string
  | Invalid_config of string

let error_message = function
  | Transaction_too_large -> "transaction too large for the cache geometry"
  | Txn_not_running -> "transaction not running"
  | Wrong_block_size { expected; got } ->
      Printf.sprintf "wrong block size: expected %d, got %d" expected got
  | Block_out_of_range b -> Printf.sprintf "disk block %d out of range" b
  | Unformatted m -> m
  | Invalid_config m -> Printf.sprintf "invalid config: %s" m

let pp_error fmt e = Format.pp_print_string fmt (error_message e)

(* The 1:1 bridge to the exception-based Cache interface, used by the
   stack builders (whose Backend contract is exception-based) and pinned
   by the facade round-trip tests.  I/O-shaped errors keep their payload
   (Io_error) instead of flattening into Failure — a caller catching the
   bridge must be able to tell bad media from bad arguments. *)
exception Io_error of error

let () =
  Printexc.register_printer (function
    | Io_error e -> Some (Printf.sprintf "Tinca.Io_error: %s" (error_message e))
    | _ -> None)

let to_exn = function
  | Transaction_too_large -> Cache.Transaction_too_large
  | Unformatted _ as e -> Io_error e
  | (Txn_not_running | Wrong_block_size _ | Block_out_of_range _ | Invalid_config _) as e ->
      Invalid_argument ("Tinca: " ^ error_message e)

let of_exn = function
  | Cache.Transaction_too_large -> Some Transaction_too_large
  (* Cache_exhausted is the raw allocator signal the commit path
     normally rewrites into Transaction_too_large; a stray one crossing
     the bridge is the same geometry-pressure class. *)
  | Cache.Cache_exhausted -> Some Transaction_too_large
  | Io_error e -> Some e
  | _ -> None

let ok_exn = function Ok v -> v | Error e -> raise (to_exn e)

(* The one commit-engine seam: the logging scheme's ring pipeline
   (one Cache per shard behind Shard) or the paging scheme's
   COW/indirection-table engine.  Every scheme-generic facade function
   below is one two-arm match on it; the group committer, which is
   logging-only, matches [Log_txn] directly. *)
type engine = Logging of Shard.t | Paging of Paging.t
type handle = Log_txn of Shard.Txn.handle | Page_txn of Paging.Txn.handle

(* A transaction acknowledged by [commit_async] but not yet drained by
   the group committer.  [ph] is the sealed shard-level handle the
   drain will commit; [ticket] is the caller-visible durability token. *)
type ticket = {
  t_owner : t;
  tk_id : int; (* durable-notification ticket id, named by flight records *)
  tk_blocks : int;
  sealed_at : float;
  mutable durable : bool;
  mutable durable_at : float;
  mutable callbacks : (unit -> unit) list; (* reversed registration order *)
}

and pending = { ph : Shard.Txn.handle; ticket : ticket }

and t = {
  engine : engine;
  nblocks : int; (* disk blocks, for the range check *)
  block_size : int;
  txn_sizes : Histogram.t;
      (* cross-shard blocks-per-commit distribution; the per-shard Cache
         histograms only see their own sub-commits *)
  clock : Clock.t;
  metrics : Metrics.t;
  window_ns : int; (* Config.group_window_ns, captured at construction *)
  max_batch : int; (* Config.group_max_batch *)
  ring_slots : int; (* per shard — the conservative batch-capacity bound *)
  ack_to_durable : Histogram.t; (* commit_async return -> batch drain, ns *)
  group : group; (* the standing batch — the only mutable facade state *)
  forensics : Forensics.t option ref; (* dossier built at recover *)
}

(* Mutable group-committer state, split out so the handle record itself
   stays immutable (and so reads as such to the R1 lint). *)
and group = {
  mutable pending : pending list; (* newest first *)
  pending_blocks : (int, unit) Hashtbl.t; (* blocks written by pending txns *)
  mutable pending_slots : int; (* ring slots the pending batch has staged *)
  mutable batch_deadline : float; (* drain due time once pending <> [] *)
  mutable next_ticket : int; (* ticket ids issued, = next id *)
  mutable batches : int; (* drains that committed at least one txn *)
  mutable pending_high_water : int; (* peak batch population *)
  drains_by_cause : (string, int) Hashtbl.t; (* cause name -> drains *)
}

let of_engine ~disk ~clock ~metrics ~window_ns ~max_batch engine =
  let block_size, ring_slots =
    match engine with
    | Logging shard ->
        let c = Cache.config (Shard.cache shard 0) in
        (c.Cache.block_size, c.Cache.ring_slots)
    | Paging pg -> (Paging.block_size pg, max_int)
  in
  {
    engine;
    nblocks = Disk.nblocks disk;
    block_size;
    txn_sizes = Histogram.create ();
    clock;
    metrics;
    window_ns;
    max_batch;
    ring_slots;
    ack_to_durable = Histogram.create ();
    group =
      { pending = []; pending_blocks = Hashtbl.create 64; pending_slots = 0;
        batch_deadline = 0.0; next_ticket = 0; batches = 0; pending_high_water = 0;
        drains_by_cause = Hashtbl.create 8 };
    forensics = ref None;
  }

let format ~config ~pmem ~disk ~clock ~metrics =
  match Config.validate config with
  | Error m -> Error (Invalid_config m)
  | Ok config -> (
      match
        match config.Config.commit_scheme with
        | Config.Logging _ ->
            Logging
              (Shard.format ~nshards:config.Config.nshards
                 ~config:(Config.to_cache_config config) ~pmem ~disk ~clock ~metrics)
        | Config.Paging pcfg ->
            Paging
              (Paging.format ~nshards:config.Config.nshards
                 ~config:(Config.to_page_config config pcfg) ~pmem ~disk ~clock ~metrics)
      with
      | engine ->
          Ok
            (of_engine ~disk ~clock ~metrics ~window_ns:config.Config.group_window_ns
               ~max_batch:config.Config.group_max_batch engine)
      | exception Invalid_argument m -> Error (Invalid_config m))

let peek t blkno =
  match t.engine with Logging sh -> Shard.peek sh blkno | Paging pg -> Paging.peek pg blkno

(* Crashed media carries its scheme in its first 8 bytes: the paging
   magics dispatch to Paging.recover, anything else (the logging
   superblock, the shard directory, or garbage) to Shard.recover, which
   does its own validation. *)
let recover ~pmem ~disk ~clock ~metrics =
  match
    let magic = Tinca_util.Codec.get_u64 (Tinca_pmem.Pmem.read pmem ~off:0 ~len:8) 0 in
    if magic = Paging.super_magic || magic = Paging.dir_magic then
      Paging (Paging.recover ~pmem ~disk ~clock ~metrics ())
    else Logging (Shard.recover ~pmem ~disk ~clock ~metrics ())
  with
  | engine ->
      let t =
        of_engine ~disk ~clock ~metrics ~window_ns:0
          ~max_batch:Config.default.Config.group_max_batch engine
      in
      (* Post-crash dossier: reconcile recorder-acked commits against the
         just-recovered cache state.  The probe answers "does this block
         now carry the payload sealed into the dead batch?" by CRC. *)
      let scans =
        match engine with Logging sh -> Shard.flight_scans sh | Paging pg -> Paging.flight_scans pg
      in
      if Array.exists (fun (recs, torn) -> recs <> [] || torn > 0) scans then begin
        let probe ~shard:_ ~blkno ~crc =
          match peek t blkno with
          | Some data ->
              Int32.to_int (Tinca_util.Codec.crc32 data ~pos:0 ~len:(Bytes.length data))
              land 0xFFFF_FFFF
              = crc
          | None -> false
        in
        t.forensics := Some (Forensics.build ~shards:scans ~probe ())
      end;
      Ok t
  | exception Cache.Corrupt m -> Error (Unformatted m)

(* The dossier from the last {!recover} on this handle, when the media
   carried a flight ring with any surviving or torn records. *)
let last_crash_report t = !(t.forensics)

(* --- introspection ------------------------------------------------------ *)

let scheme_name t = match t.engine with Logging _ -> "logging" | Paging _ -> "paging"

(* The one typed escape hatch below the facade: per-shard caches, lanes
   and ring internals exist only on the logging engine, so asking on
   paging media is a usage error, not a zero. *)
let shard t =
  match t.engine with
  | Logging sh -> sh
  | Paging _ -> invalid_arg "Tinca.shard: logging-scheme-only (this cache is paging)"

let nshards t = match t.engine with Logging sh -> Shard.nshards sh | Paging pg -> Paging.nshards pg
let block_size t = t.block_size

(* Scheme-specific introspection returns data, not exceptions: the
   other scheme's layouts are empty and it has no COW chain. *)
let layouts t =
  match t.engine with
  | Logging sh -> Array.to_list (Array.map Cache.layout (Shard.caches sh))
  | Paging _ -> []

let page_layouts t = match t.engine with Paging pg -> Paging.region_layouts pg | Logging _ -> []

(* Scheme-aware stats: each engine reports its own vocabulary — under
   paging the logging-only rows (ring high water, role switches) are
   absent rather than zero-and-misleading, and vice versa.  The group
   rows describe the facade's committer, which only exists over the
   logging engine. *)
let stats_kv t =
  match t.engine with
  | Paging pg -> Paging.stats_kv pg
  | Logging sh ->
      Shard.stats_kv (Shard.stats sh)
      @ [
          ("group_batches", string_of_int t.group.batches);
          ("group_pending", string_of_int (List.length t.group.pending));
          ("group_pending_high_water", string_of_int t.group.pending_high_water);
        ]
      @ (Hashtbl.fold
           (fun k v acc -> (("group_drains_" ^ k), string_of_int v) :: acc)
           t.group.drains_by_cause []
        |> List.sort compare)

let region_wear t =
  match t.engine with Logging sh -> Shard.region_wear sh | Paging pg -> Paging.region_wear pg

let check_invariants t =
  match t.engine with
  | Logging sh -> Shard.check_invariants sh
  | Paging pg -> Paging.check_invariants pg

let txn_size_histogram t = t.txn_sizes

let contains t blkno =
  match t.engine with Logging sh -> Shard.contains sh blkno | Paging pg -> Paging.contains pg blkno

let write_hit_rate t =
  match t.engine with
  | Logging sh -> (Shard.stats sh).Shard.agg.Cache.write_hit_ratio
  | Paging pg -> Paging.write_hit_rate pg

let peak_cow_blocks t =
  match t.engine with Logging sh -> (Shard.stats sh).Shard.agg.Cache.peak_cow | Paging _ -> 0

(* --- the group committer (async commit, ISSUE 8) ------------------------ *)

(* Drain the pending batch: ONE Shard.commit_group over every sealed
   transaction acknowledged since the last drain, then mark their
   tickets durable and fire their callbacks.  The batch is atomic under
   crash (commit_group's contract), so the spec's crash candidates are
   exactly {without the batch, with the whole batch}.  The batch is only
   ever populated over the logging engine (validate rejects a group
   window under paging), so paging always takes the empty arm. *)
let flush_pending ?(cause = Flight.Barrier) t =
  match (t.group.pending, t.engine) with
  | [], _ | _, Paging _ -> ()
  | newest_first, Logging shard ->
      let batch = List.rev newest_first in
      t.group.pending <- [];
      (* [clear], not [reset]: the table keeps the buckets the batch grew. *)
      Hashtbl.clear t.group.pending_blocks;
      t.group.pending_slots <- 0;
      t.group.batches <- t.group.batches + 1;
      (let key = Flight.cause_name cause in
       Hashtbl.replace t.group.drains_by_cause key
         (1 + Option.value ~default:0 (Hashtbl.find_opt t.group.drains_by_cause key)));
      Trace.begin_span ~clock:t.clock "tinca.group_commit";
      Trace.attr "txns" (string_of_int (List.length batch));
      Trace.attr "cause" (Flight.cause_name cause);
      Trace.attr "blocks"
        (string_of_int (List.fold_left (fun acc p -> acc + p.ticket.tk_blocks) 0 batch));
      let sf0 = Metrics.get t.metrics "pmem.sfence" in
      Shard.commit_group ~cause shard (List.map (fun p -> p.ph) batch);
      Trace.attr "sfences" (string_of_int (Metrics.get t.metrics "pmem.sfence" - sf0));
      Trace.end_span "tinca.group_commit";
      let now = Clock.now_ns t.clock in
      List.iter
        (fun p ->
          let tk = p.ticket in
          tk.durable <- true;
          tk.durable_at <- now;
          Histogram.add t.txn_sizes (float_of_int tk.tk_blocks);
          Histogram.add t.ack_to_durable (now -. tk.sealed_at);
          let cbs = List.rev tk.callbacks in
          tk.callbacks <- [];
          List.iter (fun f -> f ()) cbs)
        batch;
      (* Close the per-ticket spans opened at seal time, newest first so
         the B/E nesting stays balanced (they all share one track). *)
      List.iter (fun _ -> Trace.end_span "tinca.commit_async") newest_first

let group_pending t = List.length t.group.pending
let group_flush t = flush_pending ~cause:Flight.Barrier t
let group_ack_to_durable t = t.ack_to_durable

(* Group-committer runtime counters (satellite of ISSUE 9): drained
   batches, drains split by cause, and the peak standing-batch size. *)
let group_batches t = t.group.batches
let group_pending_high_water t = t.group.pending_high_water

let group_drains_by_cause t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.group.drains_by_cause []
  |> List.sort compare

(* --- the paper's primitives -------------------------------------------- *)

type txn = {
  owner : t;
  h : handle;
  mutable live : bool;
  mutable blocks : int list; (* staged block numbers, for conflict checks *)
}

let init_txn t =
  let h =
    match t.engine with
    | Logging sh -> Log_txn (Shard.Txn.init sh)
    | Paging pg -> Page_txn (Paging.Txn.init pg)
  in
  { owner = t; h; live = true; blocks = [] }

let check_block t blkno = blkno >= 0 && blkno < t.nblocks

let write txn blkno data =
  if not txn.live then Error Txn_not_running
  else if Bytes.length data <> txn.owner.block_size then
    Error (Wrong_block_size { expected = txn.owner.block_size; got = Bytes.length data })
  else if not (check_block txn.owner blkno) then Error (Block_out_of_range blkno)
  else begin
    txn.blocks <- blkno :: txn.blocks;
    Ok
      (match txn.h with
      | Log_txn h -> Shard.Txn.add h blkno data
      | Page_txn h -> Paging.Txn.add h blkno data)
  end

let durable_ticket t n =
  let now = Clock.now_ns t.clock in
  let id = t.group.next_ticket in
  t.group.next_ticket <- id + 1;
  {
    t_owner = t;
    tk_id = id;
    tk_blocks = n;
    sealed_at = now;
    durable = true;
    durable_at = now;
    callbacks = [];
  }

(* [commit_async] — validate and volatilely seal NOW (later reads see
   the transaction immediately), return a ticket, and let the group
   committer amortize one durability sequence over every transaction
   sealed inside the window.  The batch drains when: the window
   deadline has passed (checked on the next commit_async), the batch
   hits [group_max_batch], a new transaction conflicts with a pending
   one (same block — the per-block COW chain is one level deep), the
   staged slots could overrun a ring, or someone awaits / syncs.

   With [group_window_ns = 0] this IS the synchronous pipeline — the
   sealed path is never entered, so media traffic, fences and the
   simulated clock match today's [commit] byte for byte.  The paging
   engine always takes the synchronous path (validate rejects a group
   window under paging). *)
let commit_async txn =
  if not txn.live then Error Txn_not_running
  else begin
    txn.live <- false;
    let t = txn.owner in
    let n =
      match txn.h with
      | Log_txn h -> Shard.Txn.block_count h
      | Page_txn h -> Paging.Txn.block_count h
    in
    match txn.h with
    | Log_txn lh when t.window_ns > 0 && n > 0 -> begin
        if Clock.now_ns t.clock >= t.group.batch_deadline then
          flush_pending ~cause:Flight.Deadline t;
        if List.exists (fun b -> Hashtbl.mem t.group.pending_blocks b) txn.blocks then
          flush_pending ~cause:Flight.Conflict t;
        if t.group.pending_slots + n > t.ring_slots then
          flush_pending ~cause:Flight.Ring_pressure t;
        let id = t.group.next_ticket in
        Shard.Txn.set_flight_ticket lh id;
        match Shard.Txn.seal lh with
        | () ->
            t.group.next_ticket <- id + 1;
            let tk =
              {
                t_owner = t;
                tk_id = id;
                tk_blocks = n;
                sealed_at = Clock.now_ns t.clock;
                durable = false;
                durable_at = 0.0;
                callbacks = [];
              }
            in
            Trace.begin_span ~clock:t.clock "tinca.commit_async";
            Trace.attr "ticket" (string_of_int id);
            Trace.attr "blocks" (string_of_int n);
            if t.group.pending = [] then
              t.group.batch_deadline <- Clock.now_ns t.clock +. float_of_int t.window_ns;
            t.group.pending <- { ph = lh; ticket = tk } :: t.group.pending;
            List.iter (fun b -> Hashtbl.replace t.group.pending_blocks b ()) txn.blocks;
            t.group.pending_slots <- t.group.pending_slots + n;
            t.group.pending_high_water <-
              max t.group.pending_high_water (List.length t.group.pending);
            if List.length t.group.pending >= t.max_batch then
              flush_pending ~cause:Flight.Max_batch t;
            Ok tk
        | exception Cache.Transaction_too_large -> Error Transaction_too_large
      end
    | h -> (
        (* Synchronous path (and empty transactions, which carry no
           durability obligation): drain any standing batch first so
           commit order equals durability order.  The ring pipeline
           stamps its own causes per stage; the cause is only meaningful
           to the paging recorder. *)
        flush_pending ~cause:Flight.Sync t;
        match
          match h with
          | Log_txn h -> Shard.Txn.commit h
          | Page_txn h -> Paging.Txn.commit ~cause:Flight.Sync h
        with
        | () ->
            Histogram.add t.txn_sizes (float_of_int n);
            Ok (durable_ticket t n)
        | exception Cache.Transaction_too_large -> Error Transaction_too_large)
  end

let await tk =
  if not tk.durable then flush_pending ~cause:Flight.Await tk.t_owner;
  Ok ()

let ticket_durable tk = tk.durable
let ticket_id tk = tk.tk_id

let ticket_latency_ns tk = if tk.durable then Some (tk.durable_at -. tk.sealed_at) else None

let on_durable tk f = if tk.durable then f () else tk.callbacks <- f :: tk.callbacks

let commit txn =
  match commit_async txn with
  | Error _ as e -> e
  | Ok tk -> await tk

let abort txn =
  if not txn.live then Error Txn_not_running
  else begin
    txn.live <- false;
    Ok (match txn.h with Log_txn h -> Shard.Txn.abort h | Page_txn h -> Paging.Txn.abort h)
  end

let read t blkno =
  if not (check_block t blkno) then Error (Block_out_of_range blkno)
  else
    Ok (match t.engine with Logging sh -> Shard.read sh blkno | Paging pg -> Paging.read pg blkno)

let write_direct t blkno data =
  if Bytes.length data <> t.block_size then
    Error (Wrong_block_size { expected = t.block_size; got = Bytes.length data })
  else if not (check_block t blkno) then Error (Block_out_of_range blkno)
  else begin
    (* The direct write commits synchronously through the scheme;
       drain the batch first so its staged slots stay newest. *)
    flush_pending ~cause:Flight.Sync t;
    match
      match t.engine with
      | Logging sh -> Shard.write_direct sh blkno data
      | Paging pg -> Paging.write_direct pg blkno data
    with
    | () ->
        Histogram.add t.txn_sizes 1.0;
        Ok ()
    | exception Cache.Transaction_too_large -> Error Transaction_too_large
  end

let sync t =
  flush_pending ~cause:Flight.Sync t;
  match t.engine with
  | Logging sh -> Array.iter Cache.flush_all (Shard.caches sh)
  | Paging pg -> Paging.flush_all pg
