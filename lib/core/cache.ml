open Tinca_sim
module Pmem = Tinca_pmem.Pmem

let log_src = Logs.Src.create "tinca.cache" ~doc:"Tinca transactional NVM cache"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Disk = Tinca_blockdev.Disk
module Lru = Tinca_cachelib.Lru
module Free_monitor = Tinca_cachelib.Free_monitor
module Histogram = Tinca_util.Histogram
module Trace = Tinca_obs.Trace
module Flight = Tinca_obs.Flight

type mode = Write_back | Write_through

type pipeline = Per_block | Batched

type config = {
  block_size : int;
  ring_slots : int;
  mode : mode;
  clean_threshold : float;
      (* dirty fraction of the cache beyond which the background flusher
         pre-cleans oldest dirty buffer blocks (keeping them cached), so
         replacement usually finds clean victims.  1.0 disables it. *)
  alloc_policy : Free_monitor.policy;
  commit_pipeline : pipeline;
      (* Batched (default): the staged group commit — all COW data and
         entry lines under one fence, all ring slots under one more, one
         Head persist; O(1) fences per commit.  Per_block: the paper's
         literal per-block protocol (~4 fences per block), kept for the
         fig_commit_batch ablation. *)
  flight_slots : int;
      (* NVM-resident flight-recorder records (64 B each) reserved in the
         layout; 0 disables the recorder entirely (ISSUE 9).  Recorded in
         the superblock so recovery finds the same geometry. *)
}

let default_config =
  { block_size = 4096; ring_slots = 131072; mode = Write_back; clean_threshold = 0.7;
    alloc_policy = Free_monitor.Lifo; commit_pipeline = Batched; flight_slots = 0 }

exception Transaction_too_large

exception Cache_exhausted
(** Replacement found no victim: every cached block is pinned by the
    in-flight transaction.  [Txn.commit] maps this to
    {!Transaction_too_large} after rolling the partial commit back. *)

exception Corrupt of string
(** Recovery rejected the media: unformatted NVM, corrupt superblock
    geometry, or an entry table that contradicts itself.  Typed (not
    [Failure]) so callers can tell "the medium is bad" from an
    arbitrary internal error; the facade maps it to
    [Tinca.Unformatted]. *)

exception Invariant_violation of string
(** An internal-invariant audit failed ([check_invariants], or a
    bookkeeping structure caught mid-corruption): a programming error,
    never an API or media error.  Typed (not [Failure]) so the lockstep
    sweep and the crash checker can key on the audit outcome without
    pattern-matching exception payloads of unrelated [Failure]s. *)

let () =
  Printexc.register_printer (function
    | Corrupt m -> Some (Printf.sprintf "Tinca_core.Cache.Corrupt(%S)" m)
    | Invariant_violation m -> Some (Printf.sprintf "Tinca_core.Cache.Invariant_violation(%S)" m)
    | _ -> None)

(* DRAM-side bookkeeping for one cached disk block (§4.6: hash table +
   LRU list, reconstructible from the persistent entry table). *)
type info = {
  disk_blkno : int;
  entry_idx : int;
  mutable cur : int;
  mutable prev : int option;
  mutable role_log : bool;
  mutable dirty : bool;
  mutable pre_dirty : bool;
      (* dirty bit as of just before the in-flight COW update; meaningful
         only while [role_log].  In-process revocation restores it, so
         aborting a transaction over a clean cached block does not turn
         the block spuriously dirty.  Post-crash recovery cannot read it
         back from media (the entry's M bit was overwritten by the COW
         update), so recovered infos conservatively set it to [true]. *)
  mutable txn_pinned : bool;
      (* DRAM-only: block is staged in the in-flight group commit, so
         replacement must not victimize it during the commit's own
         allocation pass (before [role_log] starts protecting it). *)
  mutable node : info Lru.node option;
}

type t = {
  cfg : config;
  layout : Layout.t;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  metrics : Metrics.t;
  cpu : Latency.cpu;
  ring : Ring.t;
  index : (int, info) Hashtbl.t;
  lru : info Lru.t;
  free_data : Free_monitor.t;
  free_entries : Free_monitor.t;
  txn_sizes : Histogram.t;
  mutable pinned : int; (* infos currently in log role *)
  mutable dirty_count : int;
  mutable cow_pinned : int; (* NVM blocks held as previous versions *)
  mutable peak_cow : int;
  mutable committing : bool;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  (* Flush batches, reused across commits: [lines] is the cache's own
     (stage A, and the flight records waiting for the next commit-path
     flush); [sealed] and [sealed_slots] gather the data + entry lines and
     the staged ring-slot lines of every sealed transaction, each handle
     keeping only its marks into them. *)
  lines : Pmem.Lineset.t;
  sealed : Pmem.Lineset.t;
  sealed_slots : Pmem.Lineset.t;
  (* Flight recorder: volatile cursor over the NVM record ring, the
     drain counter that numbers batches, and the records recovered by
     the last [recover_region] scan. *)
  flight : Flight.cursor option;
  mutable flight_batch : int;
  mutable flight_cur_batch : int;
  mutable flight_shard : int;
  mutable flight_scan : ((int * Flight.event) list * int) option;
}

let layout t = t.layout
let config t = t.cfg

(* --- flight recorder (ISSUE 9) ----------------------------------------- *)

let set_flight_shard t s = t.flight_shard <- s
let flight_scan_result t = t.flight_scan

(* The batch id the NEXT drain of this cache will carry — the standing
   batch facade-level seal records must point at. *)
let flight_next_batch t = t.flight_batch

(* Volatile store of one 64 B record (exactly one line): no flush, no
   fence — the dirtied line waits in the cache's flush batch [lines] for
   the commit path's next flush.  Restores the pmem call-site label so
   the sanitizer keeps attributing the surrounding protocol step. *)
let flight_note t ?(batch = -1) ?(cause = Flight.Sync) ?(a = 0) ?(b = 0) ?(c = 0) ?(d = 0) kind =
  match t.flight with
  | None -> ()
  | Some cur ->
      let site = Pmem.site t.pmem in
      Pmem.set_site t.pmem "flight.record";
      let ev =
        { Flight.kind; shard = t.flight_shard; cause; a; b; c; d; batch;
          t_ns = int_of_float (Clock.now_ns t.clock) }
      in
      let off = Layout.flight_slot_off t.layout cur.Flight.seq in
      Pmem.write t.pmem ~off (Flight.encode ~seq:cur.Flight.seq ev);
      cur.Flight.seq <- cur.Flight.seq + 1;
      Pmem.Lineset.add t.lines (off / Pmem.line_size);
      Metrics.incr t.metrics "tinca.flight.records" ~by:1;
      Pmem.set_site t.pmem site
[@@pmem.defer
  "a flight record is deliberately left unflushed: the dirtied line waits in the cache's flush \
   batch until the commit path's next flush_lines or flight_flush_into_fence folds it into an \
   existing flush+fence stage (zero added fences); a record torn by a crash before that fence \
   fails its CRC and is dropped by Flight.scan — detected, not trusted"]

(* clflush the pending record lines, newest first, into the caller's
   imminent fence — never a fence of its own, so the commit path's
   sfence count is untouched by the recorder. *)
let flight_flush_into_fence t =
  Pmem.Lineset.iter_rev
    (fun l -> Pmem.clflush t.pmem ~off:(l * Pmem.line_size) ~len:Pmem.line_size)
    t.lines;
  Pmem.Lineset.clear t.lines

(* --- superblock ------------------------------------------------------- *)

let magic = 0x314143_4E49_54L (* "TINCA1" little-endian-ish tag *)

let write_super t =
  Pmem.set_site t.pmem "cache.super";
  let b = Bytes.make 64 '\000' in
  Bytes.set_int64_le b 0 magic;
  Tinca_util.Codec.set_u32 b 8 t.cfg.block_size;
  Tinca_util.Codec.set_u32 b 12 t.cfg.ring_slots;
  Tinca_util.Codec.set_u32 b 16 t.layout.Layout.nblocks;
  (* Flight-recorder geometry (0 = recorder off).  Legacy superblocks
     carry zeros here, so pre-recorder media recovers unchanged. *)
  Tinca_util.Codec.set_u32 b 20 t.layout.Layout.flight_slots;
  Pmem.write t.pmem ~off:t.layout.Layout.super_off b;
  Pmem.persist t.pmem ~off:t.layout.Layout.super_off ~len:64

(* Read and *validate* the superblock: a corrupt one must surface as a
   clean "unformatted/corrupt NVM" failure, never as a division by zero
   or an absurd layout handed to the rest of recovery.  [base]/[mem_bytes]
   bound the region this cache may own (a shard of a partitioned device);
   they default to the whole device. *)
let read_super ~base ~mem_bytes pmem =
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt ("Tinca.Cache: " ^ m))) fmt in
  if mem_bytes < base + 64 || mem_bytes > Pmem.size pmem then
    corrupt "unformatted NVM (region smaller than a superblock)";
  let b = Pmem.read pmem ~off:base ~len:64 in
  if Bytes.get_int64_le b 0 <> magic then corrupt "unformatted NVM (bad magic)";
  let block_size = Tinca_util.Codec.get_u32 b 8 in
  let ring_slots = Tinca_util.Codec.get_u32 b 12 in
  let nblocks = Tinca_util.Codec.get_u32 b 16 in
  let flight_slots = Tinca_util.Codec.get_u32 b 20 in
  if block_size <= 0 || block_size mod 64 <> 0 then
    corrupt "corrupt superblock (block_size %d)" block_size;
  if ring_slots <= 0 then corrupt "corrupt superblock (ring_slots %d)" ring_slots;
  if nblocks <= 0 then corrupt "corrupt superblock (nblocks %d)" nblocks;
  if flight_slots < 0 then corrupt "corrupt superblock (flight_slots %d)" flight_slots;
  let layout =
    try Layout.compute_flight ~flight_slots ~base ~pmem_bytes:mem_bytes ~block_size ~ring_slots
    with Invalid_argument _ -> corrupt "corrupt superblock (geometry does not fit the device)"
  in
  if layout.Layout.nblocks <> nblocks then
    corrupt "corrupt superblock (stored %d blocks, device fits %d)" nblocks
      layout.Layout.nblocks;
  layout

(* --- entry I/O --------------------------------------------------------- *)

(* Create or modify a cache entry with a 16 B atomic write + clflush +
   sfence, the paper's fine-grained metadata update. *)
let write_entry t idx e =
  let off = Layout.entry_off t.layout idx in
  Pmem.atomic_write16 t.pmem ~off (Entry.encode e);
  Pmem.clflush t.pmem ~off ~len:Entry.size;
  Pmem.sfence t.pmem

(* Batched entry updates (role switches, background cleaning): write all
   the 16 B entries atomically first, then flush each dirtied cache line
   exactly once, then fence.  Four entries share a 64 B line, so
   interleaving write/clflush per entry both stores into flush-pending
   lines (adversarial write-back resolution) and starts up to four medium
   write-backs per line where one suffices — the persistence sanitizer's
   persist-race / redundant-flush finding on this path. *)
let write_entries_batched t updates =
  match updates with
  | [] -> ()
  | updates ->
      let lines = Hashtbl.create 8 in
      List.iter
        (fun (idx, e) ->
          let off = Layout.entry_off t.layout idx in
          Pmem.atomic_write16 t.pmem ~off (Entry.encode e);
          Hashtbl.replace lines (off / Pmem.line_size) ())
        updates;
      Hashtbl.iter
        (fun line () ->
          Pmem.clflush t.pmem ~off:(line * Pmem.line_size) ~len:Pmem.line_size)
        lines;
      Pmem.sfence t.pmem

let entry_at t idx = Entry.decode (Pmem.read t.pmem ~off:(Layout.entry_off t.layout idx) ~len:Entry.size)

let entry_of_info ~role info =
  {
    Entry.valid = true;
    role;
    modified = info.dirty;
    disk_blkno = info.disk_blkno;
    prev = info.prev;
    cur = info.cur;
  }

(* --- allocation & replacement (§4.6) ----------------------------------- *)

let node_exn info =
  match info.node with
  | Some n -> n
  | None -> raise (Invariant_violation "Tinca.Cache: info without LRU node")

(* All dirty-bit transitions go through here so the background flusher
   can watch the dirty population. *)
let note_dirty t info v =
  if info.dirty <> v then begin
    info.dirty <- v;
    t.dirty_count <- t.dirty_count + (if v then 1 else -1)
  end

let read_data_block t nvm_blk =
  Pmem.read t.pmem ~off:(Layout.data_block_off t.layout nvm_blk) ~len:t.cfg.block_size

let writeback ?(background = false) t info =
  let data = read_data_block t info.cur in
  Disk.write_block ~background t.disk info.disk_blkno data;
  Metrics.incr t.metrics "tinca.writebacks" ~by:1

(* Victim selection: LRU order, skipping every block involved in the
   committing transaction: log role pins both its current and previous
   NVM blocks (because [prev] is only non-None while the role is log),
   and [txn_pinned] protects staged blocks during the group commit's
   allocation pass, before their role has switched to log. *)
let evict_one t =
  match Lru.find_from_lru t.lru ~f:(fun info -> not (info.role_log || info.txn_pinned)) with
  | None -> raise Cache_exhausted
  | Some node ->
      let info = Lru.value node in
      if info.dirty then begin
        writeback t info;
        note_dirty t info false
      end;
      (* Persistently invalidate the entry so recovery cannot resurrect
         a block whose NVM space is about to be reused. *)
      Pmem.set_site t.pmem "cache.evict";
      write_entry t info.entry_idx
        { Entry.valid = false; role = Buffer; modified = false; disk_blkno = 0; prev = None; cur = 0 };
      Lru.remove t.lru node;
      info.node <- None;
      Hashtbl.remove t.index info.disk_blkno;
      Free_monitor.free t.free_data info.cur;
      Free_monitor.free t.free_entries info.entry_idx;
      Metrics.incr t.metrics "tinca.evictions" ~by:1

let rec alloc_data t =
  match Free_monitor.alloc t.free_data with
  | Some i -> i
  | None ->
      evict_one t;
      alloc_data t

let rec alloc_entry t =
  match Free_monitor.alloc t.free_entries with
  | Some i -> i
  | None ->
      evict_one t;
      alloc_entry t

(* Background flusher: when the dirty fraction exceeds the threshold,
   write the oldest dirty buffer blocks back using background device time
   (they stay cached, marked clean persistently), elevator-sorted by home
   block number.  Keeps replacement from stalling on dirty victims. *)
let maybe_clean t =
  let high =
    int_of_float (t.cfg.clean_threshold *. float_of_int t.layout.Layout.nblocks)
  in
  if t.dirty_count > high then begin
    Trace.begin_span ~clock:t.clock "tinca.bg_clean";
    let low = max 0 (high * 7 / 8) in
    let budget = ref (t.dirty_count - low) in
    let victims = ref [] in
    let rec collect node_opt =
      if !budget > 0 then
        match node_opt with
        | None -> ()
        | Some node ->
            let info = Lru.value node in
            if info.dirty && not info.role_log then begin
              victims := info :: !victims;
              decr budget
            end;
            collect (Lru.next node)
    in
    collect (Lru.lru t.lru);
    Pmem.set_site t.pmem "cache.bg_clean";
    let sorted = List.sort (fun a b -> compare a.disk_blkno b.disk_blkno) !victims in
    let updates =
      List.map
        (fun info ->
          writeback ~background:true t info;
          note_dirty t info false;
          Metrics.incr t.metrics "tinca.cleaned" ~by:1;
          (info.entry_idx, entry_of_info ~role:Entry.Buffer info))
        sorted
    in
    write_entries_batched t updates;
    Trace.end_span "tinca.bg_clean"
  end

(* --- construction ------------------------------------------------------ *)

let make_t ~config:cfg ~layout ~pmem ~disk ~clock ~metrics =
  {
    cfg;
    layout;
    pmem;
    disk;
    clock;
    metrics;
    cpu = Latency.default_cpu;
    ring = Ring.attach ~pmem ~layout;
    index = Hashtbl.create 4096;
    lru = Lru.create ();
    free_data = Free_monitor.create ~policy:cfg.alloc_policy ~n:layout.Layout.nblocks ();
    free_entries = Free_monitor.create ~n:layout.Layout.nblocks ();
    txn_sizes = Histogram.create ();
    pinned = 0;
    dirty_count = 0;
    cow_pinned = 0;
    peak_cow = 0;
    committing = false;
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
    flight =
      (if layout.Layout.flight_slots > 0 then Some (Flight.cursor ~slots:layout.Layout.flight_slots)
       else None);
    lines = Pmem.Lineset.create ();
    sealed = Pmem.Lineset.create ();
    sealed_slots = Pmem.Lineset.create ();
    flight_batch = 0;
    flight_cur_batch = -1;
    flight_shard = 0;
    flight_scan = None;
  }

let format_region ~base ~mem_bytes ~config:cfg ~pmem ~disk ~clock ~metrics =
  let layout =
    Layout.compute_flight ~flight_slots:cfg.flight_slots ~base ~pmem_bytes:mem_bytes
      ~block_size:cfg.block_size ~ring_slots:cfg.ring_slots
  in
  if Disk.block_size disk <> cfg.block_size then
    invalid_arg "Tinca.Cache.format: disk block size mismatch";
  let t = make_t ~config:cfg ~layout ~pmem ~disk ~clock ~metrics in
  (* Zero the entry table persistently, then the pointers and superblock. *)
  Pmem.set_site pmem "cache.format";
  Pmem.fill pmem ~off:layout.Layout.entries_off
    ~len:(layout.Layout.nblocks * Entry.size)
    '\000';
  Pmem.persist pmem ~off:layout.Layout.entries_off ~len:(layout.Layout.nblocks * Entry.size);
  (* Zero the flight ring so every slot scans as empty, not torn. *)
  if layout.Layout.flight_slots > 0 then begin
    Pmem.fill pmem ~off:layout.Layout.flight_off
      ~len:(layout.Layout.flight_slots * Layout.flight_record_size)
      '\000';
    Pmem.persist pmem ~off:layout.Layout.flight_off
      ~len:(layout.Layout.flight_slots * Layout.flight_record_size)
  end;
  Ring.format t.ring;
  write_super t;
  t

let format ~config ~pmem ~disk ~clock ~metrics =
  format_region ~base:0 ~mem_bytes:(Pmem.size pmem) ~config ~pmem ~disk ~clock ~metrics

(* --- revocation (shared by abort and recovery, §4.5) -------------------- *)

(* Undo one block of the in-flight transaction using the DRAM info (which
   mirrors the media entry).

   [force] distinguishes the two revocation sources of §4.5: blocks named
   in the ring range [Tail, Head) are revoked unconditionally — the Head
   advance that put them in range is persisted strictly after their new
   entry, so whatever entry we see (log, or buffer when a role-switch
   flush happened to complete before the crash) is the in-flight
   transaction's version.  Blocks found only by the full entry scan are
   revoked when still in log role. *)
let revoke_block ?(force = false) t blkno =
  match Hashtbl.find_opt t.index blkno with
  | None -> () (* entry write never became durable: nothing to undo *)
  | Some info ->
      if force || info.role_log then begin
        info.txn_pinned <- false;
        Pmem.set_site t.pmem "cache.revoke";
        (match info.prev with
        | Some p ->
            (* Roll back to the previous version, restoring the dirty bit
               the block had before the COW update.  For in-process aborts
               [pre_dirty] is exact, so rolling back over a clean cached
               block does not schedule a spurious disk writeback; recovered
               infos carry the conservative [pre_dirty = true] because the
               pre-transaction M bit is unrecoverable from media. *)
            Free_monitor.free t.free_data info.cur;
            info.cur <- p;
            info.prev <- None;
            t.cow_pinned <- t.cow_pinned - 1;
            note_dirty t info info.pre_dirty;
            if info.role_log then begin
              info.role_log <- false;
              t.pinned <- t.pinned - 1
            end;
            write_entry t info.entry_idx (entry_of_info ~role:Entry.Buffer info)
        | None ->
            (* Write miss with no prior version: delete block and entry. *)
            note_dirty t info false;
            write_entry t info.entry_idx
              { Entry.valid = false; role = Buffer; modified = false; disk_blkno = 0; prev = None; cur = 0 };
            (match info.node with Some node -> Lru.remove t.lru node | None -> ());
            info.node <- None;
            Hashtbl.remove t.index blkno;
            Free_monitor.free t.free_data info.cur;
            Free_monitor.free t.free_entries info.entry_idx;
            if info.role_log then begin
              info.role_log <- false;
              t.pinned <- t.pinned - 1
            end);
        Metrics.incr t.metrics "tinca.revoked" ~by:1
      end

let recover_region ?(flight_replay = true) ~base ~mem_bytes ~pmem ~disk ~clock ~metrics () =
  let layout = read_super ~base ~mem_bytes pmem in
  let block_size = layout.Layout.block_size and ring_slots = layout.Layout.ring_slots in
  if Disk.block_size disk <> block_size then
    raise (Corrupt "Tinca.Cache.recover: disk block size mismatch");
  let cfg =
    { default_config with block_size; ring_slots; flight_slots = layout.Layout.flight_slots }
  in
  let t = make_t ~config:cfg ~layout ~pmem ~disk ~clock ~metrics in
  Trace.begin_span ~clock "tinca.recover";
  (* Flight recorder: capture the surviving pre-crash records BEFORE any
     recovery action overwrites ring slots, then resume the sequence
     past the newest survivor so post-recovery records keep the total
     order.  [flight_replay = false] skips the scan (the dossier) but
     changes nothing else — the recovery-semantics-unchanged pin in
     check-flight holds recovery byte-identical either way. *)
  (match t.flight with
  | Some cur when flight_replay ->
      Trace.begin_span ~clock "tinca.recover.flight_scan";
      let records, torn =
        Flight.scan ~slots:layout.Layout.flight_slots ~read:(fun i ->
            Pmem.read pmem
              ~off:(layout.Layout.flight_off + (i * Layout.flight_record_size))
              ~len:Layout.flight_record_size)
      in
      t.flight_scan <- Some (records, torn);
      cur.Flight.seq <-
        (match List.rev records with (seq, _) :: _ -> seq + 1 | [] -> 0);
      Trace.end_span "tinca.recover.flight_scan";
      flight_note t Flight.Recovery_start ~a:(Ring.head t.ring) ~b:(Ring.tail t.ring)
        ~c:(List.length records)
  | Some cur ->
      (* Recorder present but replay disabled: still continue the
         sequence so later records never collide with survivors. *)
      let records, _ =
        Flight.scan ~slots:layout.Layout.flight_slots ~read:(fun i ->
            Pmem.read pmem
              ~off:(layout.Layout.flight_off + (i * Layout.flight_record_size))
              ~len:Layout.flight_record_size)
      in
      cur.Flight.seq <- (match List.rev records with (seq, _) :: _ -> seq + 1 | [] -> 0)
  | None -> ());
  (* Blocks named by the ring range are the in-flight transaction's; their
     entries must be interpreted as in-flight even when a role-switch
     flush leaked to the medium before the crash (see revoke_block). *)
  Trace.begin_span ~clock "tinca.recover.ring_scan";
  let in_ring = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace in_ring b ()) (Ring.pending_blknos t.ring);
  Trace.end_span "tinca.recover.ring_scan";
  (* Rebuild the DRAM index from the persistent entry table. *)
  Trace.begin_span ~clock "tinca.recover.entry_scan";
  for i = 0 to layout.Layout.nblocks - 1 do
    let e = entry_at t i in
    if e.Entry.valid then begin
      if Hashtbl.mem t.index e.Entry.disk_blkno then
        raise (Corrupt "Tinca.Cache.recover: duplicate valid entry for a disk block");
      let role_log = e.Entry.role = Entry.Log in
      let in_flight = role_log || Hashtbl.mem in_ring e.Entry.disk_blkno in
      let info =
        {
          disk_blkno = e.Entry.disk_blkno;
          entry_idx = i;
          cur = e.Entry.cur;
          (* prev is meaningful (and pins NVM space) only for in-flight
             blocks; other buffer-role entries carry a stale prev. *)
          prev = (if in_flight then e.Entry.prev else None);
          role_log;
          dirty = e.Entry.modified;
          pre_dirty = true;
          txn_pinned = false;
          node = None;
        }
      in
      info.node <- Some (Lru.push_mru t.lru info);
      Hashtbl.replace t.index info.disk_blkno info;
      Free_monitor.mark_used t.free_entries i;
      Free_monitor.mark_used t.free_data info.cur;
      (match info.prev with Some p -> Free_monitor.mark_used t.free_data p | None -> ());
      if role_log then t.pinned <- t.pinned + 1;
      if info.dirty then t.dirty_count <- t.dirty_count + 1;
      if info.prev <> None then t.cow_pinned <- t.cow_pinned + 1
    end
  done;
  Trace.end_span "tinca.recover.entry_scan";
  (* Revoke set = ring range [Tail, Head) ∪ all log-role entries.  The
     union is required: an entry can be persisted before its ring slot
     (commit step 1 precedes step 2), and a role-switched (buffer)
     entry of the in-flight transaction is only named by the ring. *)
  let before = Metrics.get t.metrics "tinca.revoked" in
  Trace.begin_span ~clock "tinca.recover.revoke";
  let revoke_logged blkno =
    let n0 = Metrics.get t.metrics "tinca.revoked" in
    revoke_block ~force:true t blkno;
    (* Each effective revocation is a recovery decision worth keeping:
       the record line rides the revocation's own entry fence. *)
    if Metrics.get t.metrics "tinca.revoked" > n0 then
      flight_note t Flight.Recovery_decision ~a:1 ~b:blkno
  in
  Hashtbl.iter (fun blkno () -> revoke_logged blkno) in_ring;
  Hashtbl.iter
    (fun blkno info -> if info.role_log then revoke_logged blkno)
    (Hashtbl.copy t.index);
  flight_flush_into_fence t;
  Ring.commit_point t.ring;
  Trace.end_span "tinca.recover.revoke";
  Trace.end_span "tinca.recover";
  Metrics.incr t.metrics "tinca.recoveries" ~by:1;
  Log.info (fun m ->
      m "recovered: %d cached blocks, %d in-flight blocks revoked (%d named by ring)"
        (Hashtbl.length t.index)
        (Metrics.get t.metrics "tinca.revoked" - before)
        (Hashtbl.length in_ring));
  t

let recover ?(flight_replay = true) ~pmem ~disk ~clock ~metrics () =
  recover_region ~flight_replay ~base:0 ~mem_bytes:(Pmem.size pmem) ~pmem ~disk ~clock ~metrics ()

let read_layout ~base ~mem_bytes pmem = read_super ~base ~mem_bytes pmem

(* --- block I/O ---------------------------------------------------------- *)

let charge_op t = Clock.advance t.clock t.cpu.Latency.op_overhead_ns
let charge_lookup t = Clock.advance t.clock t.cpu.Latency.hash_lookup_ns

let insert_clean t blkno data =
  let nvm_blk = alloc_data t in
  let entry_idx = alloc_entry t in
  Pmem.set_site t.pmem "cache.read_fill";
  let off = Layout.data_block_off t.layout nvm_blk in
  Pmem.write t.pmem ~off data;
  Pmem.persist t.pmem ~off ~len:t.cfg.block_size;
  let info =
    { disk_blkno = blkno; entry_idx; cur = nvm_blk; prev = None; role_log = false;
      dirty = false; pre_dirty = false; txn_pinned = false; node = None }
  in
  write_entry t entry_idx (entry_of_info ~role:Entry.Buffer info);
  info.node <- Some (Lru.push_mru t.lru info);
  Hashtbl.replace t.index blkno info;
  info

let read t blkno =
  charge_op t;
  charge_lookup t;
  match Hashtbl.find_opt t.index blkno with
  | Some info ->
      t.read_hits <- t.read_hits + 1;
      Metrics.incr t.metrics "tinca.read_hits" ~by:1;
      Lru.touch t.lru (node_exn info);
      read_data_block t info.cur
  | None ->
      t.read_misses <- t.read_misses + 1;
      Metrics.incr t.metrics "tinca.read_misses" ~by:1;
      let data = Disk.read_block t.disk blkno in
      let _info = insert_clean t blkno data in
      data

(* --- transactions (§4.3–§4.4) ------------------------------------------ *)

module Txn = struct
  type state = Running | Committing | Finished

  type handle = {
    cache : t;
    staged : (int, bytes) Hashtbl.t;
    mutable order : int list; (* reversed insertion order *)
    mutable state : state;
    (* Volatile seal bookkeeping ([seal]): the marks in the cache's
       [sealed] and [sealed_slots] sets where this transaction's dirtied
       data + entry lines and staged ring-slot lines begin (they wait
       there for the group committer's one batched flush,
       [flush_sealed]), and its staged slot count. *)
    mutable sealed_mark : int;
    mutable slot_mark : int;
    mutable sealed_slots : int;
    (* Facade ticket id for the flight recorder's Txn_seal record; -1
       when the transaction has no ticket (sync path). *)
    mutable flight_ticket : int;
  }

  let init cache =
    Trace.instant ~clock:cache.clock "tinca.txn.init";
    { cache; staged = Hashtbl.create 16; order = []; state = Running;
      sealed_mark = 0; slot_mark = 0; sealed_slots = 0; flight_ticket = -1 }

  let set_flight_ticket h id = h.flight_ticket <- id

  let add h blkno data =
    if h.state <> Running then invalid_arg "Tinca.Txn.add: transaction not running";
    let t = h.cache in
    if Bytes.length data <> t.cfg.block_size then invalid_arg "Tinca.Txn.add: wrong block size";
    Clock.advance t.clock t.cpu.Latency.memcpy_4k_ns;
    if not (Hashtbl.mem h.staged blkno) then h.order <- blkno :: h.order;
    Hashtbl.replace h.staged blkno (Bytes.copy data)

  let block_count h = Hashtbl.length h.staged

  (* Commit one block: paper §4.4 steps 1–3 (write data COW; swing the
     entry atomically; record the block number in the ring and advance
     Head). *)
  let commit_block t blkno data =
    let new_blk = alloc_data t in
    Pmem.set_site t.pmem "commit.data";
    let off = Layout.data_block_off t.layout new_blk in
    Pmem.write t.pmem ~off data;
    Pmem.persist t.pmem ~off ~len:t.cfg.block_size;
    Pmem.set_site t.pmem "commit.entry";
    (match Hashtbl.find_opt t.index blkno with
    | Some info ->
        (* Write hit: COW block write (§4.3). *)
        t.write_hits <- t.write_hits + 1;
        Metrics.incr t.metrics "tinca.write_hits" ~by:1;
        info.pre_dirty <- info.dirty;
        info.prev <- Some info.cur;
        info.cur <- new_blk;
        info.role_log <- true;
        note_dirty t info true;
        t.pinned <- t.pinned + 1;
        t.cow_pinned <- t.cow_pinned + 1;
        if t.cow_pinned > t.peak_cow then t.peak_cow <- t.cow_pinned;
        write_entry t info.entry_idx (entry_of_info ~role:Entry.Log info)
    | None ->
        (* Write miss: fresh entry, previous version = FRESH. *)
        t.write_misses <- t.write_misses + 1;
        Metrics.incr t.metrics "tinca.write_misses" ~by:1;
        (* If the entry allocation fails, the COW data block allocated
           above must be returned to the pool before the exception
           escapes: the block never reached the index, so neither
           [revoke_partial] nor recovery can ever reclaim it, and
           [check_invariants] would flag the leak. *)
        let entry_idx =
          try alloc_entry t
          with e ->
            Free_monitor.free t.free_data new_blk;
            raise e
        in
        let info =
          { disk_blkno = blkno; entry_idx; cur = new_blk; prev = None; role_log = true;
            dirty = false; pre_dirty = false; txn_pinned = false; node = None }
        in
        note_dirty t info true;
        t.pinned <- t.pinned + 1;
        write_entry t entry_idx (entry_of_info ~role:Entry.Log info);
        info.node <- Some (Lru.push_mru t.lru info);
        Hashtbl.replace t.index blkno info);
    Ring.record t.ring blkno;
    Metrics.incr t.metrics "tinca.head_advance" ~by:1

  (* Group commit, stages A–B (§4.4 steps 1–3, fence-coalesced), built
     from two passes shared with the volatile [seal] path below.

     Stage A = pass 2's dirtied lines flushed once + one fence, however
     many blocks.  Stage B: stage all ring slots ([Ring.record_batch]:
     atomic slot writes, one flush pass, one fence) — Head still
     excludes them; the caller advances it with [Ring.publish] (one
     persist).  Entries and slots are durable strictly before Head
     covers them — the invariant recovery's union scan (ring range ∪
     log-role entries) relies on.  The split lets the sharded scheduler
     stage every shard's sub-commit before any Head moves. *)

  (* The hit/miss classification pass 1 records per block.  Pinning
     makes it stable for the rest of the commit — a pinned hit cannot be
     evicted and nothing inserts missing blocks mid-commit — so pass 2
     branches on the record instead of re-probing the index (which would
     need an unreachable-by-construction failure arm). *)
  type staged_alloc = Hit of info | Miss of int  (* fresh entry slot *)

  (* Pass 1 (volatile): pin every staged cached block, then allocate all
     COW data blocks and fresh entry slots up front, so replacement —
     including its persistent entry invalidations — runs to completion
     before the first staged store.  A failure here is rolled back
     completely (every allocation freed, every pin dropped) and
     re-raised with the cache exactly as before the call; nothing has
     been written, the ring is untouched. *)
  let alloc_group t blocks =
    List.iter
      (fun blkno ->
        match Hashtbl.find_opt t.index blkno with
        | Some info -> info.txn_pinned <- true
        | None -> ())
      blocks;
    (* (disk blkno, COW data block, classification), reversed *)
    let allocs = ref [] in
    Trace.begin_span ~clock:t.clock "tinca.commit.alloc";
    (try
       List.iter
         (fun blkno ->
           let new_blk = alloc_data t in
           match Hashtbl.find_opt t.index blkno with
           | Some info -> allocs := (blkno, new_blk, Hit info) :: !allocs
           | None ->
               let entry_idx =
                 try alloc_entry t
                 with e ->
                   Free_monitor.free t.free_data new_blk;
                   raise e
               in
               allocs := (blkno, new_blk, Miss entry_idx) :: !allocs)
         blocks
     with e ->
       List.iter
         (fun (_, data_blk, kind) ->
           Free_monitor.free t.free_data data_blk;
           match kind with
           | Miss i -> Free_monitor.free t.free_entries i
           | Hit _ -> ())
         !allocs;
       List.iter
         (fun blkno ->
           match Hashtbl.find_opt t.index blkno with
           | Some info -> info.txn_pinned <- false
           | None -> ())
         blocks;
       Trace.end_span "tinca.commit.alloc";
       raise e);
    Trace.end_span "tinca.commit.alloc";
    List.rev !allocs

  (* Pass 2 (cannot fail): write all COW data blocks (vectored), swing
     all entries with 16 B atomic writes, and add every dirtied line to
     [lines] — the caller decides when (and with how many peer
     transactions) the lines are flushed.  The relative durability order
     of data vs. entry lines within the stage is irrelevant: until Head
     covers the blocks, recovery revokes whatever subset became
     durable. *)
  let store_group t lines staged allocs =
    Pmem.set_site t.pmem "commit.data";
    Pmem.writev t.pmem
      (List.map
         (fun (blkno, data_blk, _) ->
           (Layout.data_block_off t.layout data_blk, Hashtbl.find staged blkno))
         allocs);
    Pmem.set_site t.pmem "commit.entry";
    List.iter
      (fun (blkno, new_blk, kind) ->
        Pmem.Lineset.add_range lines ~off:(Layout.data_block_off t.layout new_blk)
          ~len:t.cfg.block_size;
        match kind with
        | Hit info ->
            (* Write hit: COW block write (§4.3). *)
            t.write_hits <- t.write_hits + 1;
            Metrics.incr t.metrics "tinca.write_hits" ~by:1;
            info.pre_dirty <- info.dirty;
            info.prev <- Some info.cur;
            info.cur <- new_blk;
            info.role_log <- true;
            note_dirty t info true;
            t.pinned <- t.pinned + 1;
            t.cow_pinned <- t.cow_pinned + 1;
            if t.cow_pinned > t.peak_cow then t.peak_cow <- t.cow_pinned;
            let off = Layout.entry_off t.layout info.entry_idx in
            Pmem.atomic_write16 t.pmem ~off (Entry.encode (entry_of_info ~role:Entry.Log info));
            Pmem.Lineset.add_range lines ~off ~len:Entry.size
        | Miss entry_idx ->
            (* Write miss: fresh entry, previous version = FRESH. *)
            t.write_misses <- t.write_misses + 1;
            Metrics.incr t.metrics "tinca.write_misses" ~by:1;
            let info =
              { disk_blkno = blkno; entry_idx; cur = new_blk; prev = None; role_log = true;
                dirty = false; pre_dirty = false; txn_pinned = true; node = None }
            in
            note_dirty t info true;
            t.pinned <- t.pinned + 1;
            let off = Layout.entry_off t.layout entry_idx in
            Pmem.atomic_write16 t.pmem ~off (Entry.encode (entry_of_info ~role:Entry.Log info));
            Pmem.Lineset.add_range lines ~off ~len:Entry.size;
            info.node <- Some (Lru.push_mru t.lru info);
            Hashtbl.replace t.index blkno info)
      allocs
  [@@pmem.defer
    "group-commit stage A deliberately leaves its dirtied lines unflushed in the caller's set: \
     the caller folds every batched transaction's data + entry lines into ONE flush_lines + \
     sfence (the point of the fence amortization), and until Head covers the blocks recovery \
     revokes any subset that became durable"]

  let stage_group t staged blocks =
    match blocks with
    | [] -> ()
    | blocks ->
        let allocs = alloc_group t blocks in
        Trace.begin_span ~clock:t.clock "tinca.commit.stage_a";
        store_group t t.lines staged allocs;
        (* Stage A fence: every dirtied data and entry line, flushed once.
           Pending flight-record lines, already in the set, ride the same
           flush burst. *)
        Pmem.set_site t.pmem "commit.flush";
        Pmem.flush_lines t.pmem t.lines;
        Pmem.sfence t.pmem;
        Trace.end_span "tinca.commit.stage_a";
        (* Stage B: slots durable (one fence); Head moves in the caller. *)
        Trace.begin_span ~clock:t.clock "tinca.commit.stage_b";
        Ring.record_batch t.ring blocks;
        Trace.end_span "tinca.commit.stage_b"

  let revoke_partial h blocks_done =
    let t = h.cache in
    List.iter (fun blkno -> revoke_block t blkno) blocks_done;
    Ring.rewind_head t.ring;
    t.committing <- false

  (* Admission control.  A rejected transaction is terminal (the handle
     moves to Finished) and leaves the cache untouched.

     Capacity accounting: the commit needs [n] fresh NVM data blocks
     (every staged block gets a COW copy) and one entry slot per write
     miss.  Supply is the free pools plus evictions, each of which frees
     exactly one data block and one entry slot — but the transaction's
     own cached blocks must not be counted as victims: every write hit
     pins its LRU node (and both its [cur] and [prev] NVM blocks) once
     its turn in the commit loop comes. *)
  let admit h blocks n =
    let t = h.cache in
    let reject () =
      h.state <- Finished;
      raise Transaction_too_large
    in
    if n > t.cfg.ring_slots then reject ();
    let hits = List.fold_left (fun acc b -> if Hashtbl.mem t.index b then acc + 1 else acc) 0 blocks in
    let misses = n - hits in
    let evictable = Lru.length t.lru - t.pinned - hits in
    if n > Free_monitor.free_count t.free_data + evictable then reject ();
    if misses > Free_monitor.free_count t.free_entries + evictable then reject ()

  (* §4.4 steps 1–2 (+ slot staging) in the pipeline's shape.  Batched:
     stages A–B under two fences, Head unmoved.  Per_block: the paper's
     literal protocol (~4 fences per block), whose Head advances as it
     goes — [publish_staged] is then a no-op.  On a capacity failure the
     partial work is fully revoked, the handle finished, and
     [Transaction_too_large] raised with the cache as before. *)
  let run_stage h blocks =
    let t = h.cache in
    match t.cfg.commit_pipeline with
    | Batched -> (
        try stage_group t h.staged blocks
        with Cache_exhausted ->
          t.committing <- false;
          h.state <- Finished;
          raise Transaction_too_large)
    | Per_block ->
        let committed = ref [] in
        (try
           List.iter
             (fun blkno ->
               commit_block t blkno (Hashtbl.find h.staged blkno);
               committed := blkno :: !committed)
             blocks
         with e ->
           revoke_partial h !committed;
           h.state <- Finished;
           (* The admission check is exact for the states normal
              operation produces, but if replacement still runs out of
              victims mid-commit, surface the one documented exception
              type — the partial commit has been fully rolled back. *)
           (match e with Cache_exhausted -> raise Transaction_too_large | e -> raise e))

  (* §4.4 step 3 for the batched pipeline: one Head persist covering
     every staged slot.  Per_block already published eagerly. *)
  let publish_staged h blocks =
    let t = h.cache in
    match t.cfg.commit_pipeline with
    | Batched ->
        Trace.begin_span ~clock:t.clock "tinca.commit.head";
        flight_note t Flight.Head_advance ~a:(List.length blocks) ~batch:t.flight_cur_batch;
        flight_flush_into_fence t;
        Ring.publish t.ring (List.length blocks);
        Metrics.incr t.metrics "tinca.head_advance" ~by:1;
        Trace.end_span "tinca.commit.head"
    | Per_block -> ()

  (* §4.4 steps 4–5 plus in-DRAM post-commit work, over a whole batch of
     transactions: batched role switch (one fence covering every
     transaction's blocks, strictly before Tail), Tail := Head (the
     durable commit point for them all), previous-version reclamation,
     LRU promotion, stats, and the write-through propagation when
     configured.  A single synchronous commit is the one-element case. *)
  let finish_commit_group pairs =
    match pairs with
    | [] -> ()
    | (h0, _, _) :: _ ->
        let t = h0.cache in
        (* §4.4 step 4: role switches for every block, batched under a
           single fence, which must complete BEFORE the Tail update so a
           crash cannot surface a half-switched committed transaction. *)
        let per_txn =
          List.map
            (fun (h, blocks, n) -> (h, List.map (fun blkno -> Hashtbl.find t.index blkno) blocks, n))
            pairs
        in
        let all_infos = List.concat_map (fun (_, infos, _) -> infos) per_txn in
        Pmem.set_site t.pmem "commit.role_switch";
        Trace.begin_span ~clock:t.clock "tinca.commit.role_switch";
        flight_note t Flight.Role_switch ~a:(List.length all_infos) ~batch:t.flight_cur_batch;
        flight_flush_into_fence t;
        write_entries_batched t
          (List.map
             (fun info ->
               info.role_log <- false;
               info.txn_pinned <- false;
               t.pinned <- t.pinned - 1;
               (info.entry_idx, entry_of_info ~role:Entry.Buffer info))
             all_infos);
        Trace.end_span "tinca.commit.role_switch";
        (* §4.4 step 5: Tail := Head — the durable commit point.  The
           batch's Tail_persist record — the durability evidence the
           crash dossier reconciles against — flushes under this very
           fence, so it is durable exactly when the batch is. *)
        Trace.begin_span ~clock:t.clock "tinca.commit.tail";
        flight_note t Flight.Tail_persist ~a:(List.length pairs) ~batch:t.flight_cur_batch;
        flight_flush_into_fence t;
        Ring.commit_point t.ring;
        Trace.end_span "tinca.commit.tail";
        (* Reclaim previous versions and promote to MRU (§4.6 rule 2b). *)
        List.iter
          (fun info ->
            (match info.prev with
            | Some p ->
                Free_monitor.free t.free_data p;
                info.prev <- None;
                t.cow_pinned <- t.cow_pinned - 1
            | None -> ());
            Lru.touch t.lru (node_exn info))
          all_infos;
        t.committing <- false;
        List.iter
          (fun (h, _, n) ->
            h.state <- Finished;
            Log.debug (fun m ->
                m "committed transaction of %d blocks (ring head %d)" n (Ring.head t.ring));
            Histogram.add t.txn_sizes (float_of_int n);
            Metrics.incr t.metrics "tinca.commits" ~by:1;
            Metrics.incr t.metrics "tinca.commit.blocks" ~by:n)
          per_txn;
        (* Write-through: propagate to disk immediately (kept for the
           ablation study; write-back is the paper's default).  The clean
           marks ride one batched entry update — one fence, not one per
           block. *)
        if t.cfg.mode = Write_through then begin
          Pmem.set_site t.pmem "cache.writeback";
          Trace.begin_span ~clock:t.clock "tinca.commit.writeback";
          write_entries_batched t
            (List.map
               (fun info ->
                 writeback t info;
                 note_dirty t info false;
                 (info.entry_idx, entry_of_info ~role:Entry.Buffer info))
               all_infos)
          ;
          Trace.end_span "tinca.commit.writeback"
        end

  let finish_commit h blocks n = finish_commit_group [ (h, blocks, n) ]

  let commit h =
    if h.state <> Running then invalid_arg "Tinca.Txn.commit: transaction not running";
    let t = h.cache in
    let blocks = List.rev h.order in
    let n = List.length blocks in
    if n = 0 then begin
      h.state <- Finished;
      Metrics.incr t.metrics "tinca.commits" ~by:1
    end
    else begin
      admit h blocks n;
      h.state <- Committing;
      t.committing <- true;
      charge_op t;
      Trace.begin_span ~clock:t.clock "tinca.commit";
      Trace.attr "blocks" (string_of_int n);
      (* A synchronous commit is a drain of a one-transaction batch; its
         drain record rides the stage-A flush burst. *)
      t.flight_cur_batch <- t.flight_batch;
      t.flight_batch <- t.flight_batch + 1;
      flight_note t Flight.Batch_drain ~cause:Flight.Sync ~a:1 ~batch:t.flight_cur_batch;
      (try
         run_stage h blocks;
         publish_staged h blocks
       with e ->
         Trace.end_span "tinca.commit";
         raise e);
      finish_commit h blocks n;
      Trace.end_span "tinca.commit";
      (* Background pre-cleaning runs outside the commit span: it is
         deferred maintenance the commit merely triggers. *)
      maybe_clean t
    end

  (* --- split commit for the sharded scheduler (see Shard) --------------
     [stage] runs admission control plus §4.4 steps 1–2 and slot staging;
     [publish] advances this cache's Head over the staged slots; [finalize]
     performs the role switch, Tail advance and post-commit bookkeeping.
     [commit] ≡ [stage]; [publish]; [finalize] with identical operation,
     fence and latency sequence (modulo trace spans).  Between [stage] and
     [finalize] the sub-commit can be abandoned with [abort], which revokes
     staged blocks whether or not Head has moved. *)

  let stage h =
    if h.state <> Running then invalid_arg "Tinca.Txn.stage: transaction not running";
    let t = h.cache in
    let blocks = List.rev h.order in
    let n = List.length blocks in
    if n = 0 then invalid_arg "Tinca.Txn.stage: empty transaction";
    admit h blocks n;
    h.state <- Committing;
    t.committing <- true;
    charge_op t;
    run_stage h blocks

  let publish h =
    if h.state <> Committing then invalid_arg "Tinca.Txn.publish: transaction not staged";
    publish_staged h (List.rev h.order)

  let finalize h =
    if h.state <> Committing then invalid_arg "Tinca.Txn.finalize: transaction not staged";
    let blocks = List.rev h.order in
    finish_commit h blocks (List.length blocks);
    maybe_clean h.cache

  (* --- group commit across transactions (async commit, ISSUE 8) --------
     [seal] volatilely applies a whole transaction — admission, pass-1
     allocation, COW data + entry stores, ring-slot staging — without a
     single flush or fence: the DRAM index already serves reads from the
     new versions, but nothing is durable and Head excludes the staged
     slots, so a crash at any point rolls the transaction back (surviving
     log-role entry lines are revoked by recovery's entry scan; staged
     slots are invisible to the ring range).  [flush_sealed] then makes a
     whole batch of sealed transactions durable with ONE stage-A
     flush+fence, ONE slot flush+fence and ONE Head persist covering all
     their slots, and [finalize_sealed] retires them with one batched
     role switch and one Tail persist — the per-commit fence bill drops
     from ~5 to ~5/K at batch size K. *)

  let seal_group t h blocks =
    let allocs = alloc_group t blocks in
    h.sealed_mark <- Pmem.Lineset.mark t.sealed;
    h.slot_mark <- Pmem.Lineset.mark t.sealed_slots;
    store_group t t.sealed h.staged allocs;
    Ring.stage_batch t.ring t.sealed_slots blocks;
    h.sealed_slots <- List.length blocks

  let seal h =
    if h.state <> Running then invalid_arg "Tinca.Txn.seal: transaction not running";
    let t = h.cache in
    if t.cfg.commit_pipeline <> Batched then
      invalid_arg "Tinca.Txn.seal: group commit requires the Batched pipeline";
    let blocks = List.rev h.order in
    let n = List.length blocks in
    if n = 0 then invalid_arg "Tinca.Txn.seal: empty transaction";
    admit h blocks n;
    h.state <- Committing;
    t.committing <- true;
    charge_op t;
    Trace.begin_span ~clock:t.clock "tinca.commit.seal";
    (try seal_group t h blocks
     with Cache_exhausted ->
       Trace.end_span "tinca.commit.seal";
       (* Pass-1 rollback left the cache untouched; earlier sealed
          transactions (staged ring slots) keep the commit window open. *)
       if Ring.staged t.ring = 0 then t.committing <- false;
       h.state <- Finished;
       raise Transaction_too_large);
    (* Seal record: volatile like the seal itself — it becomes durable
       with the batch's stage-A flush, naming the ticket, the footprint
       and the first block's payload checksum for the dossier's
       acked-vs-survived probe. *)
    (match blocks with
    | first :: _ ->
        flight_note t Flight.Txn_seal ~a:(h.flight_ticket + 1) ~b:n ~c:first
          ~d:
            (Int32.to_int
               (Tinca_util.Codec.crc32 (Hashtbl.find h.staged first) ~pos:0
                  ~len:(Bytes.length (Hashtbl.find h.staged first)))
            land 0xFFFF_FFFF)
          ~batch:t.flight_batch
    | [] -> ());
    Trace.end_span "tinca.commit.seal"

  (* Drop a sealed-but-unflushed transaction: revoke its blocks (all in
     log role, with exact pre-images in DRAM) and un-stage its ring
     slots.  Only valid while the transaction's slots are the newest
     staged ones on this cache — the sharded scheduler unwinds a
     partially sealed multi-shard transaction immediately, before any
     later seal. *)
  let unseal h =
    if h.state <> Committing then invalid_arg "Tinca.Txn.unseal: transaction not sealed";
    let t = h.cache in
    List.iter (fun blkno -> revoke_block t blkno) (List.rev h.order);
    Ring.unstage t.ring h.sealed_slots;
    (* Its lines are the newest in both sets, as its slots are on the ring. *)
    Pmem.Lineset.truncate t.sealed h.sealed_mark;
    Pmem.Lineset.truncate t.sealed_slots h.slot_mark;
    h.sealed_slots <- 0;
    if Ring.staged t.ring = 0 && Ring.in_flight t.ring = 0 then t.committing <- false;
    h.state <- Finished;
    Metrics.incr t.metrics "tinca.aborts" ~by:1

  (* Stages A–B + Head advance for a whole batch of sealed transactions
     on one cache.  All-or-nothing under crash: until the single Head
     persist lands, every transaction of the batch rolls back; after it,
     the batch is named by the ring range in its entirety (and committed
     by the Tail persist of [finalize_sealed], or revoked as one unit by
     recovery if the crash lands in between). *)
  let flush_sealed ?(cause = Flight.Barrier) handles =
    match handles with
    | [] -> ()
    | h0 :: _ ->
        let t = h0.cache in
        List.iter
          (fun h ->
            if h.state <> Committing then
              invalid_arg "Tinca.Txn.flush_sealed: transaction not sealed";
            if h.cache != t then invalid_arg "Tinca.Txn.flush_sealed: mixed caches")
          handles;
        let slots = List.fold_left (fun acc h -> acc + h.sealed_slots) 0 handles in
        (* The sets hold exactly the sealed transactions' lines, so
           flushing them is flushing the batch's only when the batch is
           every sealed transaction of the cache. *)
        if slots <> Ring.staged t.ring then
          invalid_arg "Tinca.Txn.flush_sealed: batch is not every sealed transaction of its cache";
        (* Drain record: this cache's next batch id, the drain cause and
           the batch population, flushed under the stage-A fence together
           with any pending seal records. *)
        t.flight_cur_batch <- t.flight_batch;
        t.flight_batch <- t.flight_batch + 1;
        flight_note t Flight.Batch_drain ~cause ~a:(List.length handles)
          ~batch:t.flight_cur_batch;
        Trace.begin_span ~clock:t.clock "tinca.commit.stage_a";
        Pmem.set_site t.pmem "commit.flush";
        Pmem.Lineset.iter_rev (Pmem.Lineset.add t.sealed) t.lines;
        Pmem.Lineset.clear t.lines;
        Pmem.flush_lines t.pmem t.sealed;
        Pmem.sfence t.pmem;
        Trace.end_span "tinca.commit.stage_a";
        Trace.begin_span ~clock:t.clock "tinca.commit.stage_b";
        Pmem.set_site t.pmem "ring.record";
        Pmem.flush_lines t.pmem t.sealed_slots;
        Pmem.sfence t.pmem;
        Trace.end_span "tinca.commit.stage_b";
        Trace.begin_span ~clock:t.clock "tinca.commit.head";
        flight_note t Flight.Head_advance ~a:slots ~batch:t.flight_cur_batch;
        flight_flush_into_fence t;
        Ring.publish t.ring slots;
        Metrics.incr t.metrics "tinca.head_advance" ~by:1;
        Trace.end_span "tinca.commit.head"

  (* Steps 4–5 for the whole batch: one batched role switch, one Tail
     persist, then per-transaction post-commit bookkeeping. *)
  let finalize_sealed handles =
    match handles with
    | [] -> ()
    | h0 :: _ ->
        finish_commit_group
          (List.map
             (fun h ->
               let blocks = List.rev h.order in
               (h, blocks, List.length blocks))
             handles);
        List.iter (fun h -> h.sealed_slots <- 0) handles;
        maybe_clean h0.cache

  (* Failure injection for tests and the crash-space checker: run the
     commit protocol for the first [k] staged blocks and stop, as an
     injected mid-commit failure would.  [abort] then exercises the
     production revocation path. *)
  let commit_prefix h k =
    if h.state <> Running then invalid_arg "Tinca.Txn.commit_prefix: transaction not running";
    let t = h.cache in
    let blocks = List.rev h.order in
    if k < 0 || k > List.length blocks then invalid_arg "Tinca.Txn.commit_prefix: bad prefix";
    h.state <- Committing;
    t.committing <- true;
    let prefix = List.filteri (fun i _ -> i < k) blocks in
    match t.cfg.commit_pipeline with
    | Batched ->
        stage_group t h.staged prefix;
        if prefix <> [] then begin
          Ring.publish t.ring (List.length prefix);
          Metrics.incr t.metrics "tinca.head_advance" ~by:1
        end
    | Per_block ->
        List.iter (fun blkno -> commit_block t blkno (Hashtbl.find h.staged blkno)) prefix

  let abort h =
    let t = h.cache in
    match h.state with
    | Finished -> invalid_arg "Tinca.Txn.abort: transaction already finished"
    | Running ->
        h.state <- Finished;
        Metrics.incr t.metrics "tinca.aborts" ~by:1
    | Committing ->
        (* Mid-commit abort: revoke what the ring has recorded, plus any
           staged-but-unpublished blocks (a [stage]d sub-commit whose Head
           has not moved — its slots are invisible to [pending_blknos]).
           [revoke_block] is role-guarded, so blocks already revoked via
           the ring pass (or never staged) are untouched. *)
        let pending = Ring.pending_blknos t.ring in
        List.iter (fun blkno -> revoke_block t blkno) pending;
        List.iter (fun blkno -> revoke_block t blkno) (List.rev h.order);
        Ring.rewind_head t.ring;
        t.committing <- false;
        h.state <- Finished;
        Metrics.incr t.metrics "tinca.aborts" ~by:1
end

let write_direct t blkno data =
  let h = Txn.init t in
  Txn.add h blkno data;
  Txn.commit h

(* --- maintenance -------------------------------------------------------- *)

let flush_all t =
  Pmem.set_site t.pmem "cache.writeback";
  (* All clean marks under one batched entry update (one fence), instead
     of a flush + fence per dirty block. *)
  let updates =
    Hashtbl.fold
      (fun _ info acc ->
        if info.dirty && not info.role_log then begin
          writeback t info;
          note_dirty t info false;
          (info.entry_idx, entry_of_info ~role:Entry.Buffer info) :: acc
        end
        else acc)
      t.index []
  in
  write_entries_batched t updates

let cached_blocks t = Hashtbl.length t.index
let free_blocks t = Free_monitor.free_count t.free_data
let contains t blkno = Hashtbl.mem t.index blkno

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)
let write_hit_rate t = ratio t.write_hits t.write_misses
let read_hit_rate t = ratio t.read_hits t.read_misses
let txn_size_histogram t = t.txn_sizes
let peak_cow_blocks t = t.peak_cow

let peek t blkno =
  match Hashtbl.find_opt t.index blkno with
  | Some info -> Some (read_data_block t info.cur)
  | None -> None

(* --- /proc-style stats snapshot ---------------------------------------- *)

type stats = {
  capacity_blocks : int;
  cached : int;
  free_data : int;
  free_entries : int;
  dirty : int;
  dirty_ratio : float;
  pinned : int;
  cow_pinned : int;
  peak_cow : int;
  read_hits : int;
  read_misses : int;
  read_hit_ratio : float;
  write_hits : int;
  write_misses : int;
  write_hit_ratio : float;
  commits : int;
  aborts : int;
  revoked : int;
  recoveries : int;
  ring_slots : int;
  ring_in_flight : int;
  ring_high_water : int;
  wear_max : int;
  wear_mean : float;
}

let stats t =
  let nblocks = t.layout.Layout.nblocks in
  let nlines = Pmem.size t.pmem / Pmem.line_size in
  {
    capacity_blocks = nblocks;
    cached = Hashtbl.length t.index;
    free_data = Free_monitor.free_count t.free_data;
    free_entries = Free_monitor.free_count t.free_entries;
    dirty = t.dirty_count;
    dirty_ratio =
      (if nblocks = 0 then 0.0 else float_of_int t.dirty_count /. float_of_int nblocks);
    pinned = t.pinned;
    cow_pinned = t.cow_pinned;
    peak_cow = t.peak_cow;
    read_hits = t.read_hits;
    read_misses = t.read_misses;
    read_hit_ratio = ratio t.read_hits t.read_misses;
    write_hits = t.write_hits;
    write_misses = t.write_misses;
    write_hit_ratio = ratio t.write_hits t.write_misses;
    commits = Metrics.get t.metrics "tinca.commits";
    aborts = Metrics.get t.metrics "tinca.aborts";
    revoked = Metrics.get t.metrics "tinca.revoked";
    recoveries = Metrics.get t.metrics "tinca.recoveries";
    ring_slots = Ring.slots t.ring;
    ring_in_flight = Ring.in_flight t.ring;
    ring_high_water = Ring.high_water t.ring;
    wear_max = Pmem.wear_max t.pmem;
    wear_mean =
      (if nlines = 0 then 0.0
       else float_of_int (Pmem.wear_total t.pmem) /. float_of_int nlines);
  }

let stats_kv s =
  let i = string_of_int and f = Printf.sprintf "%.3f" in
  [
    ("capacity_blocks", i s.capacity_blocks);
    ("cached_blocks", i s.cached);
    ("free_data_blocks", i s.free_data);
    ("free_entry_slots", i s.free_entries);
    ("dirty_blocks", i s.dirty);
    ("dirty_ratio", f s.dirty_ratio);
    ("pinned_entries", i s.pinned);
    ("cow_pinned_blocks", i s.cow_pinned);
    ("peak_cow_blocks", i s.peak_cow);
    ("read_hits", i s.read_hits);
    ("read_misses", i s.read_misses);
    ("read_hit_ratio", f s.read_hit_ratio);
    ("write_hits", i s.write_hits);
    ("write_misses", i s.write_misses);
    ("write_hit_ratio", f s.write_hit_ratio);
    ("commits", i s.commits);
    ("aborts", i s.aborts);
    ("revoked_blocks", i s.revoked);
    ("recoveries", i s.recoveries);
    ("ring_slots", i s.ring_slots);
    ("ring_in_flight", i s.ring_in_flight);
    ("ring_high_water", i s.ring_high_water);
    ("nvm_wear_max", i s.wear_max);
    ("nvm_wear_mean", f s.wear_mean);
  ]

(* Region-attributed wear: (region, total write-backs, max per line),
   regions in layout order.  Pointer lines are reported separately from
   the superblock — they are the hot lines wear-leveling cares about. *)
let region_wear t =
  let l = t.layout in
  let span name off len =
    if len <= 0 then (name, 0, 0)
    else (name, Pmem.wear_sum_in t.pmem ~off ~len, Pmem.wear_max_in t.pmem ~off ~len)
  in
  [
    span "super" l.Layout.super_off (l.Layout.head_off - l.Layout.super_off);
    span "head" l.Layout.head_off (l.Layout.tail_off - l.Layout.head_off);
    span "tail" l.Layout.tail_off (l.Layout.ring_off - l.Layout.tail_off);
    span "ring" l.Layout.ring_off (l.Layout.flight_off - l.Layout.ring_off);
    span "flight" l.Layout.flight_off (l.Layout.entries_off - l.Layout.flight_off);
    span "entries" l.Layout.entries_off (l.Layout.data_off - l.Layout.entries_off);
    span "data" l.Layout.data_off (l.Layout.total_bytes - l.Layout.data_off);
  ]

(* --- invariant audit ----------------------------------------------------- *)

let check_invariants t =
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Invariant_violation m)) ("Tinca.Cache invariant: " ^^ fmt)
  in
  if Lru.length t.lru <> Hashtbl.length t.index then
    fail "LRU length %d <> index size %d" (Lru.length t.lru) (Hashtbl.length t.index);
  if (not t.committing) && Ring.head t.ring <> Ring.tail t.ring then
    fail "ring not quiescent outside commit (head=%d tail=%d)" (Ring.head t.ring)
      (Ring.tail t.ring);
  let data_refs = Hashtbl.create 64 in
  let claim blk who =
    if blk < 0 || blk >= t.layout.Layout.nblocks then fail "NVM block %d out of range" blk;
    (match Hashtbl.find_opt data_refs blk with
    | Some other -> fail "NVM block %d referenced by both %s and %s" blk other who
    | None -> ());
    Hashtbl.replace data_refs blk who;
    if Free_monitor.is_free t.free_data blk then fail "NVM block %d both free and referenced" blk
  in
  let pinned = ref 0 in
  Hashtbl.iter
    (fun blkno info ->
      if info.disk_blkno <> blkno then fail "index key %d <> info disk_blkno %d" blkno info.disk_blkno;
      claim info.cur (Printf.sprintf "cur of %d" blkno);
      (match info.prev with
      | Some p ->
          if not info.role_log then fail "block %d has prev but buffer role" blkno;
          claim p (Printf.sprintf "prev of %d" blkno)
      | None -> ());
      if info.role_log then incr pinned;
      if Free_monitor.is_free t.free_entries info.entry_idx then
        fail "entry slot %d of block %d marked free" info.entry_idx blkno;
      let e = entry_at t info.entry_idx in
      (* Buffer-role media entries legitimately keep a stale prev field
         after the role switch (it is only dead weight until the next COW
         update overwrites it), so normalize prev before comparing. *)
      let e = if e.Entry.role = Entry.Buffer then { e with Entry.prev = info.prev } else e in
      if not (Entry.equal e (entry_of_info ~role:(if info.role_log then Entry.Log else Entry.Buffer) info))
      then
        fail "media entry %s disagrees with DRAM info for block %d"
          (Format.asprintf "%a" Entry.pp e)
          blkno)
    t.index;
  if !pinned <> t.pinned then fail "pinned count %d <> recomputed %d" t.pinned !pinned;
  let used_data = t.layout.Layout.nblocks - Free_monitor.free_count t.free_data in
  if used_data <> Hashtbl.length data_refs then
    fail "free monitor says %d used data blocks, references say %d" used_data
      (Hashtbl.length data_refs)
