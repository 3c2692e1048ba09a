(* Paging commit scheme (ISSUE 10): the "other side" of the logging vs.
   paging ablation (Dulong et al., PAPERS.md).

   Where the logging scheme (Cache/Ring) commits by appending slots to a
   persistent ring and switching entry roles, the paging scheme commits
   by REMAPPING whole NVM pages through a persistent indirection table:

   - every transactional write is COWed into a free NVM page frame;
   - each touched page gets ONE 16 B atomic swing of its indirection-
     table entry, staged under the shard's next epoch;
   - the commit point is a single 8 B atomic swing of the shard's
     persistent epoch word — no ring, no role switch, no Tail;
   - multi-page atomicity comes for free from the epoch word (staged
     entries carry epoch E+1 and stay invisible until the word says
     E+1); multi-shard commits are sealed by the same cross-shard
     mask<<32|epoch seal word the striped logging scheduler uses;
   - recovery = rebuild the volatile index from the table: entries at or
     below the durable epoch are live on their new side, entries above
     it roll back to their old side (or vanish, for misses).

   Per-shard media layout (all offsets relative to the shard base):

     [ superblock | epoch word | flight ring | indirection table | page pool ]
         64 B          64 B      slots*64 B       slots*16 B        n*block

   The table only ever holds DIRTY pages (content differing from disk):
   clean cached blocks live purely in the volatile index, never touch
   the table, and cost no fences to cache or drop.  A dirty page's old
   frame is durable by construction (it was committed), so it is a safe
   rollback target; a staged miss has no old side and rolls back to
   "not cached" (the disk copy).

   Commit cost: 2 sfences for any single-shard transaction of any size
   (stage fence + epoch persist), 4 for a multi-shard one (stage, seal,
   epoch bumps, seal clear) — against the logging pipeline's 5. *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Lru = Tinca_cachelib.Lru
module Free_monitor = Tinca_cachelib.Free_monitor
module Codec = Tinca_util.Codec
module Flight = Tinca_obs.Flight

type config = {
  block_size : int;  (** page size; positive multiple of 64 *)
  flight_slots : int;  (** 64 B flight records per shard; 0 disables *)
  headroom : int;
      (** free frames the admission pass keeps in reserve beyond the
          transaction's own need, so replacement never runs the pool
          fully dry; >= 0 *)
}

let default_config = { block_size = 4096; flight_slots = 0; headroom = 0 }

(* One-shard media magic ("TINCAPG1") and the multi-shard directory
   magic ("TINCAPGD"), both distinct from the logging superblock and
   shard-directory magics so recovery can discriminate the scheme from
   the first 8 bytes of the medium. *)
let super_magic = 0x3147_5041_434E_4954L
let dir_magic = 0x4447_5041_434E_4954L

(* Shard directory geometry shared with the logging scheme: a 128 B
   header (magic line + seal line at +64) in front of equal spans. *)
let dir_seal_off = 64
let header_bytes = 128

let entry_size = 16

(* --- per-shard geometry -------------------------------------------------- *)

type geom = {
  base : int;
  block_size : int;
  nframes : int;  (** page frames in the pool (= table slots) *)
  flight_slots : int;
  epoch_off : int;
  flight_off : int;
  table_off : int;
  pool_off : int;
  span : int;  (** bytes of the shard region *)
}

(* Largest pool that fits the span: each frame costs one page plus one
   16 B table entry next to the fixed superblock + epoch + flight lines. *)
let compute_geom ~base ~span ~block_size ~flight_slots =
  if block_size <= 0 || block_size mod 64 <> 0 then
    invalid_arg "Paging: block_size must be a positive multiple of 64";
  if flight_slots < 0 then invalid_arg "Paging: flight_slots must be non-negative";
  let fixed = 64 + 64 + (flight_slots * Flight.record_size) in
  let per_frame = block_size + entry_size in
  let nframes = (span - fixed - 63) / per_frame in
  (* The table is padded to whole lines so the pool starts line-aligned. *)
  if nframes < 2 then invalid_arg "Paging: region too small for a page pool (need >= 2 frames)";
  let table_off = fixed in
  let table_bytes = (nframes * entry_size + 63) / 64 * 64 in
  let pool_off = table_off + table_bytes in
  if pool_off + (nframes * block_size) > span then
    invalid_arg "Paging: region too small for a page pool";
  {
    base;
    block_size;
    nframes;
    flight_slots;
    epoch_off = 64;
    flight_off = 128;
    table_off;
    pool_off;
    span;
  }

let entry_off g slot = g.base + g.table_off + (slot * entry_size)
let frame_off g frame = g.base + g.pool_off + (frame * g.block_size)
let flight_slot_off g i = g.base + g.flight_off + (i * Flight.record_size)

(* psan's region classifier consumes this — the paging analogue of
   {!Layout.t}, with the new Epoch / Table / Pool region classes. *)
type region_layout = {
  r_base : int;
  r_epoch_off : int;  (** absolute offset of the epoch line *)
  r_flight_off : int;
  r_flight_bytes : int;
  r_table_off : int;
  r_table_bytes : int;
  r_pool_off : int;
  r_pool_bytes : int;
  r_total : int;
}

let region_layout_of_geom g =
  {
    r_base = g.base;
    r_epoch_off = g.base + g.epoch_off;
    r_flight_off = g.base + g.flight_off;
    r_flight_bytes = g.flight_slots * Flight.record_size;
    r_table_off = g.base + g.table_off;
    r_table_bytes = g.nframes * entry_size;
    r_pool_off = g.base + g.pool_off;
    r_pool_bytes = g.nframes * g.block_size;
    r_total = g.span;
  }

(* --- the indirection-table entry (16 B, one atomic swing) --------------- *)

(* byte 0      flags: bit0 valid, bit1 has_old
   bytes 1-3   frame_a (u24) — the durable OLD frame, iff has_old
   bytes 4-6   frame_b (u24) — the NEW frame of the entry's last swing
   byte 7      reserved, must be 0 (torn-swing detector)
   bytes 8-11  disk_blkno (u32)
   bytes 12-15 epoch (u32) — live on side B iff epoch <= the shard's
               durable epoch word, else staged (side A, or nothing) *)

type pentry = {
  e_valid : bool;
  e_has_old : bool;
  e_frame_a : int;
  e_frame_b : int;
  e_blkno : int;
  e_epoch : int;
}

let get_u24 b pos = Codec.get_u16 b pos lor (Codec.get_u8 b (pos + 2) lsl 16)

let set_u24 b pos v =
  Codec.set_u16 b pos (v land 0xFFFF);
  Codec.set_u8 b (pos + 2) ((v lsr 16) land 0xFF)

let encode_entry e =
  let b = Bytes.make entry_size '\000' in
  Codec.set_u8 b 0 ((if e.e_valid then 1 else 0) lor if e.e_has_old then 2 else 0);
  set_u24 b 1 e.e_frame_a;
  set_u24 b 4 e.e_frame_b;
  Codec.set_u32 b 8 e.e_blkno;
  Codec.set_u32 b 12 e.e_epoch;
  b

let decode_entry b =
  let flags = Codec.get_u8 b 0 in
  {
    e_valid = flags land 1 <> 0;
    e_has_old = flags land 2 <> 0;
    e_frame_a = get_u24 b 1;
    e_frame_b = get_u24 b 4;
    e_blkno = Codec.get_u32 b 8;
    e_epoch = Codec.get_u32 b 12;
  }

let entry_is_zero b =
  let rec go i = i >= entry_size || (Bytes.get b i = '\000' && go (i + 1)) in
  go 0

(* The committed normal form: no old side, the live frame on side B, at
   or below the shard's durable epoch. *)
let committed_entry ~blkno ~frame ~epoch =
  { e_valid = true; e_has_old = false; e_frame_a = 0; e_frame_b = frame; e_blkno = blkno; e_epoch = epoch }

(* --- volatile state ------------------------------------------------------ *)

(* DRAM bookkeeping for one cached disk block.  [p_slot >= 0] iff the
   block is dirty (has a table entry); clean cached blocks are volatile
   only. *)
type pinfo = {
  p_blkno : int;
  mutable p_frame : int;
  mutable p_slot : int;
  mutable p_pinned : bool;  (* staged in the in-flight publish *)
  mutable p_node : pinfo Lru.node option;
}

type shard_state = {
  geom : geom;
  mutable epoch : int;  (* DRAM mirror of the durable epoch word *)
  index : (int, pinfo) Hashtbl.t;
  lru : pinfo Lru.t;
  free_frames : Free_monitor.t;
  free_slots : Free_monitor.t;
  flight : Flight.cursor option;
  mutable flight_scan : ((int * Flight.event) list * int) option;
  mutable swings : int;  (* table-entry atomic swings *)
  mutable epoch_bumps : int;
  mutable dirty_count : int;
}

type t = {
  cfg : config;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  metrics : Metrics.t;
  nshards : int;
  shards : shard_state array;
  (* The flush batch of every commit, unstage, recovery and format
     stage, reused; flight records wait here for the next stage flush. *)
  lines : Pmem.Lineset.t;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable multi_commits : int;
  mutable seals : int;
  mutable roll_forwards : int;
  mutable committing : bool;
}

exception Corrupt = Cache.Corrupt
exception Transaction_too_large = Cache.Transaction_too_large
exception Invariant_violation = Cache.Invariant_violation

let nshards t = t.nshards
let block_size t = t.cfg.block_size
let stripe = Shard.stripe
let shard_of t blkno = stripe ~nshards:t.nshards blkno
let region_layouts t = Array.to_list (Array.map (fun s -> region_layout_of_geom s.geom) t.shards)

(* Test-only fault injection: [`Torn_swing] replaces the one 16 B atomic
   table swing with two 8 B halves and makes the first half durable on
   its own — exactly the torn-swing bug class the crash checker and
   psan must detect, not trust.  Always reset to [None]. *)
let fault : [ `Torn_swing ] option ref = ref None
let set_fault f = fault := f

(* --- flight recorder ----------------------------------------------------- *)

(* Same contract as the logging scheme's recorder: a record is a
   volatile 64 B store whose line waits in the flush batch [t.lines] for
   the commit path's next existing flush+fence — zero added fences. *)
let flight_note t s ?(batch = -1) ?(cause = Flight.Sync) ?(a = 0) ?(b = 0) ?(c = 0) ?(d = 0) kind =
  match s.flight with
  | None -> ()
  | Some cur ->
      let site = Pmem.site t.pmem in
      Pmem.set_site t.pmem "flight.record";
      let shard_id =
        let rec find i = if t.shards.(i) == s then i else find (i + 1) in
        find 0
      in
      let ev =
        { Flight.kind; shard = shard_id; cause; a; b; c; d; batch;
          t_ns = int_of_float (Clock.now_ns t.clock) }
      in
      let off = flight_slot_off s.geom (Flight.slot_of cur) in
      Pmem.write t.pmem ~off (Flight.encode ~seq:cur.Flight.seq ev);
      cur.Flight.seq <- cur.Flight.seq + 1;
      Pmem.Lineset.add t.lines (off / Pmem.line_size);
      Metrics.incr t.metrics "tinca.flight.records" ~by:1;
      Pmem.set_site t.pmem site
[@@pmem.defer
  "a flight record is deliberately left unflushed: the dirtied line waits in the flush batch \
   until the paging commit path flushes it with its next existing flush+fence (zero added \
   fences); a record torn by a crash fails its CRC and is dropped by Flight.scan"]

let flight_scans t =
  Array.map (fun s -> match s.flight_scan with Some r -> r | None -> ([], 0)) t.shards

(* --- formatting ---------------------------------------------------------- *)

let write_super t g =
  let b = Bytes.make 64 '\000' in
  Codec.set_u64 b 0 super_magic;
  Codec.set_u32 b 8 g.block_size;
  Codec.set_u32 b 12 g.nframes;
  Codec.set_u32 b 16 g.flight_slots;
  Pmem.set_site t.pmem "paging.format";
  Pmem.write t.pmem ~off:g.base b
[@@pmem.defer
  "format-time superblock store: format folds every shard's superblock, epoch, flight and \
   table lines into ONE flush_lines + sfence before returning the handle, so the media is \
   fully durable before any commit can run"]

let mk_shard_state (cfg : config) (g : geom) =
  {
    geom = g;
    epoch = 0;
    index = Hashtbl.create 256;
    lru = Lru.create ();
    free_frames = Free_monitor.create ~n:g.nframes ();
    free_slots = Free_monitor.create ~n:g.nframes ();
    flight = (if cfg.flight_slots > 0 then Some (Flight.cursor ~slots:cfg.flight_slots) else None);
    flight_scan = None;
    swings = 0;
    epoch_bumps = 0;
    dirty_count = 0;
  }

let mk_t ~cfg ~pmem ~disk ~clock ~metrics ~nshards shards =
  {
    cfg;
    pmem;
    disk;
    clock;
    metrics;
    nshards;
    shards;
    lines = Pmem.Lineset.create ();
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
    evictions = 0;
    writebacks = 0;
    multi_commits = 0;
    seals = 0;
    roll_forwards = 0;
    committing = false;
  }

let shard_geoms ~nshards ~pmem_bytes ~block_size ~flight_slots =
  if nshards < 1 || nshards > Shard.max_shards then
    invalid_arg (Printf.sprintf "Paging: nshards %d not in [1, %d]" nshards Shard.max_shards);
  if nshards = 1 then
    [| compute_geom ~base:0 ~span:pmem_bytes ~block_size ~flight_slots |]
  else begin
    let span = (pmem_bytes - header_bytes) / nshards / 64 * 64 in
    Array.init nshards (fun i ->
        compute_geom ~base:(header_bytes + (i * span)) ~span ~block_size ~flight_slots)
  end

let check_geometry ~nshards ~pmem_bytes ~block_size ~flight_slots =
  match shard_geoms ~nshards ~pmem_bytes ~block_size ~flight_slots with
  | _ -> Ok ()
  | exception Invalid_argument m -> Error m

let format ~nshards ~config:cfg ~pmem ~disk ~clock ~metrics =
  if cfg.headroom < 0 then invalid_arg "Paging: headroom must be non-negative";
  let geoms =
    shard_geoms ~nshards ~pmem_bytes:(Pmem.size pmem) ~block_size:cfg.block_size
      ~flight_slots:cfg.flight_slots
  in
  let shards = Array.map (mk_shard_state cfg) geoms in
  let t = mk_t ~cfg ~pmem ~disk ~clock ~metrics ~nshards shards in
  Pmem.set_site pmem "paging.format";
  if nshards > 1 then begin
    let hdr = Bytes.make header_bytes '\000' in
    Codec.set_u64 hdr 0 dir_magic;
    Codec.set_u32 hdr 8 nshards;
    Pmem.write pmem ~off:0 hdr;
    Pmem.Lineset.add_range t.lines ~off:0 ~len:header_bytes
  end;
  Array.iter
    (fun s ->
      let g = s.geom in
      write_super t g;
      Pmem.atomic_write8 pmem ~off:(g.base + g.epoch_off) 0L;
      (* The table (and flight ring) must be durably zero: a stale
         nonzero slot would decode as a live mapping after recovery. *)
      let zero_len = g.pool_off - g.flight_off in
      Pmem.fill pmem ~off:(g.base + g.flight_off) ~len:zero_len '\000';
      Pmem.Lineset.add_range t.lines ~off:g.base ~len:64;
      Pmem.Lineset.add_range t.lines ~off:(g.base + g.epoch_off) ~len:8;
      Pmem.Lineset.add_range t.lines ~off:(g.base + g.flight_off) ~len:zero_len)
    shards;
  Pmem.flush_lines pmem t.lines;
  Pmem.sfence pmem;
  t

(* --- replacement --------------------------------------------------------- *)

let remove_pinfo s p =
  (match p.p_node with Some n -> Lru.remove s.lru n | None -> ());
  p.p_node <- None;
  Hashtbl.remove s.index p.p_blkno

(* Durably drop a dirty block's table entry (one atomic zero swing +
   persist), then free its slot and frame.  The write-back itself went
   to disk first, so a crash on either side of the swing is consistent:
   entry present = the (now clean) NVM copy still wins, entry absent =
   reads fall through to the identical disk copy. *)
let drop_entry t s p =
  Pmem.set_site t.pmem "paging.evict";
  Pmem.atomic_write16 t.pmem ~off:(entry_off s.geom p.p_slot) (Bytes.make entry_size '\000');
  s.swings <- s.swings + 1;
  Pmem.persist t.pmem ~off:(entry_off s.geom p.p_slot) ~len:entry_size;
  Free_monitor.free s.free_slots p.p_slot;
  s.dirty_count <- s.dirty_count - 1;
  p.p_slot <- -1

let writeback t s p =
  let data = Pmem.read t.pmem ~off:(frame_off s.geom p.p_frame) ~len:s.geom.block_size in
  Disk.write_block t.disk p.p_blkno data;
  t.writebacks <- t.writebacks + 1;
  drop_entry t s p

(* Evict one unpinned block; clean victims are free (purely volatile),
   dirty ones are written back and their entry dropped.  Returns false
   when every cached block is pinned. *)
let evict_one t s =
  match Lru.find_from_lru s.lru ~f:(fun p -> not p.p_pinned) with
  | None -> false
  | Some node ->
      let p = Lru.value node in
      if p.p_slot >= 0 then writeback t s p;
      Free_monitor.free s.free_frames p.p_frame;
      remove_pinfo s p;
      t.evictions <- t.evictions + 1;
      true

(* Make [n] frames (plus the configured headroom) and [nslots] table
   slots available, evicting as needed.  Returns false if the demand
   cannot be met (everything else pinned, or the pool is too small). *)
let make_room t s ~frames ~slots =
  let need_frames = frames + t.cfg.headroom in
  let ok = ref true in
  while !ok && Free_monitor.free_count s.free_frames < need_frames do
    ok := evict_one t s
  done;
  while !ok && Free_monitor.free_count s.free_slots < slots do
    (* Only dirty victims return slots; evict until one does. *)
    ok := evict_one t s
  done;
  !ok && Free_monitor.free_count s.free_frames >= need_frames
  && Free_monitor.free_count s.free_slots >= slots

(* --- reads --------------------------------------------------------------- *)

let read_frame t s p = Pmem.read t.pmem ~off:(frame_off s.geom p.p_frame) ~len:s.geom.block_size

let read t blkno =
  let s = t.shards.(shard_of t blkno) in
  match Hashtbl.find_opt s.index blkno with
  | Some p ->
      t.read_hits <- t.read_hits + 1;
      (match p.p_node with Some n -> Lru.touch s.lru n | None -> ());
      read_frame t s p
  | None ->
      t.read_misses <- t.read_misses + 1;
      let data = Disk.read_block t.disk blkno in
      (* Clean fill: volatile only — no table entry, no flush, no fence.
         The frame's content is not durable; a crash simply un-caches the
         block (recovery rebuilds from the table, which never saw it). *)
      if make_room t s ~frames:1 ~slots:0 then begin
        match Free_monitor.alloc s.free_frames with
        | None -> ()
        | Some frame ->
            Pmem.set_site t.pmem "paging.fill";
            Pmem.write t.pmem ~off:(frame_off s.geom frame) data;
            let p = { p_blkno = blkno; p_frame = frame; p_slot = -1; p_pinned = false; p_node = None } in
            p.p_node <- Some (Lru.push_mru s.lru p);
            Hashtbl.replace s.index blkno p
      end;
      data
[@@pmem.defer
  "read-miss fill of a clean page: no table entry is written, so the frame's durable home \
   stays the disk — a crash simply un-caches the block (recovery rebuilds from the table, \
   which never saw it); flushing the fill would buy nothing"]

let peek t blkno =
  let s = t.shards.(shard_of t blkno) in
  match Hashtbl.find_opt s.index blkno with
  | Some p -> Some (read_frame t s p)
  | None -> None

let contains t blkno = Hashtbl.mem t.shards.(shard_of t blkno).index blkno

(* --- the commit protocol ------------------------------------------------- *)

type staged = {
  st_shard : int;
  st_blkno : int;
  st_slot : int;
  st_frame : int;  (* the new (B-side) frame *)
  st_old : pinfo option;  (* existing cached version, pinned during publish *)
}

(* Write one staged table entry.  The production path is a single 16 B
   atomic swing; the planted [`Torn_swing] fault splits it into two 8 B
   halves and makes the first durable on its own, opening the exact
   window the checkers must catch. *)
let write_entry t s ~slot e =
  let b = encode_entry e in
  let off = entry_off s.geom slot in
  (match !fault with
  | None -> Pmem.atomic_write16 t.pmem ~off b
  | Some `Torn_swing ->
      Pmem.atomic_write8 t.pmem ~off (Codec.get_u64 b 0);
      Pmem.persist t.pmem ~off ~len:8;
      Pmem.atomic_write8 t.pmem ~off:(off + 8) (Codec.get_u64 b 8));
  s.swings <- s.swings + 1
[@@pmem.defer
  "one 16 B atomic entry swing: every caller folds the entry's lines into its own existing \
   flush+fence (the commit's stage fence, unstage's and recovery's guarded fences), and the \
   swing is atomic so an unfenced entry is whole-or-absent, never torn"]

(* Roll a failed or aborted staging back: return frames and fresh slots,
   restore pinned old versions.  Entries already swung to epoch E+1 are
   re-swung to their committed form (or zeroed) — dead media either way
   since the epoch word never moved, but fenced here anyway so no table
   line is left volatile across a later commit point. *)
let unstage t staged =
  List.iter
    (fun st ->
      let s = t.shards.(st.st_shard) in
      Free_monitor.free s.free_frames st.st_frame;
      (match st.st_old with
      | Some p when p.p_slot >= 0 ->
          write_entry t s ~slot:p.p_slot
            (committed_entry ~blkno:p.p_blkno ~frame:p.p_frame ~epoch:s.epoch);
          Pmem.Lineset.add_range t.lines ~off:(entry_off s.geom p.p_slot) ~len:entry_size
      | Some _ -> ()
      | None ->
          Pmem.atomic_write16 t.pmem ~off:(entry_off s.geom st.st_slot)
            (Bytes.make entry_size '\000');
          s.swings <- s.swings + 1;
          Free_monitor.free s.free_slots st.st_slot;
          Pmem.Lineset.add_range t.lines ~off:(entry_off s.geom st.st_slot) ~len:entry_size);
      match st.st_old with Some p -> p.p_pinned <- false | None -> ())
    staged;
  if not (Pmem.Lineset.is_empty t.lines) then (
    Pmem.flush_lines t.pmem t.lines;
    Pmem.sfence t.pmem)
[@@pmem.defer
  "every rewritten entry line is fenced by the guarded flush_lines + sfence: the guard \
   `not (Lineset.is_empty t.lines)` is true exactly when an entry was rewritten, which the \
   syntactic dataflow cannot correlate"]

(* Publish a write-set: COW every page into a free frame, swing every
   table entry under epoch E+1, fence once, then swing the epoch word(s).
   [writes] is (blkno, data) with distinct blknos.  Raises
   [Transaction_too_large] (after full rollback) when the pool cannot
   host the transaction. *)
let publish t writes ~cause =
  match writes with
  | [] -> ()
  | writes ->
      t.committing <- true;
      Fun.protect ~finally:(fun () -> t.committing <- false) @@ fun () ->
      let by_shard = Hashtbl.create 8 in
      List.iter
        (fun (blkno, data) ->
          let sh = shard_of t blkno in
          Hashtbl.replace by_shard sh ((blkno, data) :: (Option.value ~default:[] (Hashtbl.find_opt by_shard sh))))
        writes;
      let shard_ids = Hashtbl.fold (fun k _ acc -> k :: acc) by_shard [] |> List.sort compare in
      (* Pin existing versions first so admission cannot evict a block
         the transaction itself is about to remap. *)
      List.iter
        (fun (blkno, _) ->
          let s = t.shards.(shard_of t blkno) in
          match Hashtbl.find_opt s.index blkno with
          | Some p -> p.p_pinned <- true
          | None -> ())
        writes;
      let unpin () =
        List.iter
          (fun (blkno, _) ->
            let s = t.shards.(shard_of t blkno) in
            match Hashtbl.find_opt s.index blkno with
            | Some p -> p.p_pinned <- false
            | None -> ())
          writes
      in
      (* Admission: every shard must be able to host its sub-set. *)
      let admitted =
        List.for_all
          (fun sh ->
            let sub = Hashtbl.find by_shard sh in
            let s = t.shards.(sh) in
            let slots_needed =
              List.length
                (List.filter
                   (fun (blkno, _) ->
                     match Hashtbl.find_opt s.index blkno with
                     | Some p -> p.p_slot < 0
                     | None -> true)
                   sub)
            in
            make_room t s ~frames:(List.length sub) ~slots:slots_needed)
          shard_ids
      in
      if not admitted then begin
        unpin ();
        raise Transaction_too_large
      end;
      (* Stage: COW data into fresh frames, swing entries under E+1. *)
      let staged = ref [] in
      let mark = Pmem.Lineset.mark t.lines in
      (try
         List.iter
           (fun (blkno, data) ->
             let sh = shard_of t blkno in
             let s = t.shards.(sh) in
             let frame =
               match Free_monitor.alloc s.free_frames with
               | Some f -> f
               | None -> raise Transaction_too_large
             in
             let old = Hashtbl.find_opt s.index blkno in
             let slot =
               match old with
               | Some p when p.p_slot >= 0 -> p.p_slot
               | _ -> (
                   match Free_monitor.alloc s.free_slots with
                   | Some sl -> sl
                   | None ->
                       Free_monitor.free s.free_frames frame;
                       raise Transaction_too_large)
             in
             Pmem.set_site t.pmem "paging.cow";
             Pmem.write t.pmem ~off:(frame_off s.geom frame) data;
             Pmem.Lineset.add_range t.lines ~off:(frame_off s.geom frame) ~len:s.geom.block_size;
             let has_old = match old with Some p when p.p_slot >= 0 -> true | _ -> false in
             let frame_a = match old with Some p when p.p_slot >= 0 -> p.p_frame | _ -> 0 in
             Pmem.set_site t.pmem "paging.swing";
             write_entry t s ~slot
               {
                 e_valid = true;
                 e_has_old = has_old;
                 e_frame_a = frame_a;
                 e_frame_b = frame;
                 e_blkno = blkno;
                 e_epoch = s.epoch + 1;
               };
             Pmem.Lineset.add_range t.lines ~off:(entry_off s.geom slot) ~len:entry_size;
             staged := { st_shard = sh; st_blkno = blkno; st_slot = slot; st_frame = frame; st_old = old } :: !staged)
           writes
       with Transaction_too_large ->
         (* The partial stage's lines are dead: unstage flushes only the
            entries it rewrites. *)
         Pmem.Lineset.truncate t.lines mark;
         unstage t !staged;
         unpin ();
         raise Transaction_too_large);
      let staged = !staged in
      let multi = List.length shard_ids > 1 in
      List.iter
        (fun sh ->
          let s = t.shards.(sh) in
          flight_note t s ~cause ~a:(List.length (Hashtbl.find by_shard sh)) Flight.Batch_drain)
        shard_ids;
      (* Stage fence: all COW pages + staged entries durable, still dead
         (every staged entry sits above the durable epoch word). *)
      Pmem.set_site t.pmem "paging.stage_fence";
      Pmem.flush_lines t.pmem t.lines;
      Pmem.sfence t.pmem;
      (* Commit point.  Single shard: ONE atomic swing of the epoch word.
         Multi-shard: seal the union mask first (the existing cross-shard
         epoch mechanism), swing every member epoch, clear the seal. *)
      if multi then begin
        let mask = List.fold_left (fun m sh -> m lor (1 lsl sh)) 0 shard_ids in
        let epoch_global = t.seals + 1 in
        Pmem.set_site t.pmem "paging.seal";
        Pmem.atomic_write8_int t.pmem ~off:dir_seal_off ((mask lsl 32) lor epoch_global);
        Pmem.persist t.pmem ~off:dir_seal_off ~len:8;
        t.seals <- t.seals + 1
      end;
      Pmem.set_site t.pmem "paging.epoch_swing";
      List.iter
        (fun sh ->
          let s = t.shards.(sh) in
          Pmem.atomic_write8_int t.pmem ~off:(s.geom.base + s.geom.epoch_off) (s.epoch + 1);
          s.epoch_bumps <- s.epoch_bumps + 1;
          Pmem.Lineset.add_range t.lines ~off:(s.geom.base + s.geom.epoch_off) ~len:8;
          flight_note t s ~cause ~a:(s.epoch + 1) Flight.Tail_persist)
        shard_ids;
      Pmem.flush_lines t.pmem t.lines;
      Pmem.sfence t.pmem;
      if multi then begin
        Pmem.set_site t.pmem "paging.seal_clear";
        Pmem.atomic_write8 t.pmem ~off:dir_seal_off 0L;
        Pmem.persist t.pmem ~off:dir_seal_off ~len:8;
        t.multi_commits <- t.multi_commits + 1
      end;
      (* Durable: fold the new mapping into the volatile state. *)
      List.iter (fun sh -> (t.shards.(sh)).epoch <- t.shards.(sh).epoch + 1) shard_ids;
      List.iter
        (fun st ->
          let s = t.shards.(st.st_shard) in
          match st.st_old with
          | Some p ->
              if p.p_slot >= 0 then t.write_hits <- t.write_hits + 1
              else begin
                (* A clean cached block turned dirty: it now owns a slot. *)
                t.write_hits <- t.write_hits + 1;
                s.dirty_count <- s.dirty_count + 1
              end;
              Free_monitor.free s.free_frames p.p_frame;
              p.p_frame <- st.st_frame;
              p.p_slot <- st.st_slot;
              p.p_pinned <- false;
              (match p.p_node with Some n -> Lru.touch s.lru n | None -> ())
          | None ->
              t.write_misses <- t.write_misses + 1;
              s.dirty_count <- s.dirty_count + 1;
              let p =
                { p_blkno = st.st_blkno; p_frame = st.st_frame; p_slot = st.st_slot;
                  p_pinned = false; p_node = None }
              in
              p.p_node <- Some (Lru.push_mru s.lru p);
              Hashtbl.replace s.index st.st_blkno p)
        (List.rev staged)

(* --- transactions -------------------------------------------------------- *)

module Txn = struct
  type handle = {
    ht : t;
    writes : (int, bytes) Hashtbl.t;
    mutable order : int list;  (* first-write order, for stable staging *)
    mutable finished : bool;
  }

  let init t = { ht = t; writes = Hashtbl.create 8; order = []; finished = false }

  (* Transactional writes buffer volatilely until publish: the paging
     scheme touches NVM only inside the commit protocol. *)
  let add h blkno data =
    if h.finished then invalid_arg "Paging.Txn.add: transaction finished";
    if Bytes.length data <> h.ht.cfg.block_size then
      invalid_arg "Paging.Txn.add: wrong block size";
    if not (Hashtbl.mem h.writes blkno) then h.order <- blkno :: h.order;
    Hashtbl.replace h.writes blkno (Bytes.copy data)

  let block_count h = Hashtbl.length h.writes

  let shard_count h =
    let shards = Hashtbl.create 4 in
    Hashtbl.iter (fun blkno _ -> Hashtbl.replace shards (shard_of h.ht blkno) ()) h.writes;
    Hashtbl.length shards

  let commit ?(cause = Flight.Sync) h =
    if h.finished then invalid_arg "Paging.Txn.commit: transaction finished";
    h.finished <- true;
    let writes = List.rev_map (fun b -> (b, Hashtbl.find h.writes b)) h.order in
    publish h.ht writes ~cause

  let abort h =
    if h.finished then invalid_arg "Paging.Txn.abort: transaction finished";
    h.finished <- true;
    Hashtbl.reset h.writes;
    h.order <- []
end

let write_direct t blkno data =
  let h = Txn.init t in
  Txn.add h blkno data;
  Txn.commit ~cause:Flight.Barrier h

(* Write every dirty page back to disk and drop its entry
   (decommissioning, like the logging scheme's flush_all). *)
let flush_all t =
  Array.iter
    (fun s ->
      Lru.iter (fun p -> if p.p_slot >= 0 then writeback t s p) s.lru)
    t.shards

(* --- recovery ------------------------------------------------------------ *)

let read_entry t g slot = decode_entry (Pmem.read t.pmem ~off:(entry_off g slot) ~len:entry_size)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let read_super pmem ~base =
  let b = Pmem.read pmem ~off:base ~len:24 in
  if Codec.get_u64 b 0 <> super_magic then corrupt "paging superblock magic missing at %d" base;
  let block_size = Codec.get_u32 b 8 in
  let nframes = Codec.get_u32 b 12 in
  let flight_slots = Codec.get_u32 b 16 in
  (block_size, nframes, flight_slots)

(* Recover one shard region: validate the table against itself (frames
   in range, no duplicate blknos, sane epochs — a torn swing is DETECTED
   here, not trusted), resolve staged entries by [roll_forward], and
   rebuild the volatile index and free monitors from the live sides. *)
let recover_shard t ~shard_id ~roll_forward =
  let s = t.shards.(shard_id) in
  let g = s.geom in
  let epoch = Pmem.read_u64_int t.pmem ~off:(g.base + g.epoch_off) in
  (* Flight scan before recovery writes anything; the cursor resumes
     after the highest surviving sequence number. *)
  (match s.flight with
  | Some cur ->
      let read i = Pmem.read t.pmem ~off:(flight_slot_off g i) ~len:Flight.record_size in
      let records, torn = Flight.scan ~slots:g.flight_slots ~read in
      s.flight_scan <- Some (records, torn);
      cur.Flight.seq <- (match List.rev records with (seq, _) :: _ -> seq + 1 | [] -> 0)
  | None -> ());
  let seen_blkno = Hashtbl.create 64 in
  let staged = ref [] in
  let live = ref [] in
  for slot = 0 to g.nframes - 1 do
    let raw = Pmem.read t.pmem ~off:(entry_off g slot) ~len:entry_size in
    if not (entry_is_zero raw) then begin
      let e = decode_entry raw in
      if not e.e_valid then corrupt "paging: slot %d nonzero but invalid (torn swing?)" slot;
      if Codec.get_u8 raw 7 <> 0 then corrupt "paging: slot %d reserved byte nonzero (torn swing?)" slot;
      if e.e_frame_b >= g.nframes then corrupt "paging: slot %d frame_b %d out of range" slot e.e_frame_b;
      if e.e_has_old && (e.e_frame_a >= g.nframes || e.e_frame_a = e.e_frame_b) then
        corrupt "paging: slot %d frame_a %d invalid" slot e.e_frame_a;
      if e.e_blkno >= Disk.nblocks t.disk then
        corrupt "paging: slot %d blkno %d beyond the device" slot e.e_blkno;
      if t.nshards > 1 && stripe ~nshards:t.nshards e.e_blkno <> shard_id then
        corrupt "paging: slot %d blkno %d striped to the wrong shard" slot e.e_blkno;
      if e.e_epoch > epoch + 1 then
        corrupt "paging: slot %d epoch %d above the durable epoch %d + 1" slot e.e_epoch epoch;
      if Hashtbl.mem seen_blkno e.e_blkno then
        corrupt "paging: blkno %d mapped by two table slots" e.e_blkno;
      Hashtbl.replace seen_blkno e.e_blkno slot;
      if e.e_epoch > epoch then staged := (slot, e) :: !staged else live := (slot, e) :: !live
    end
  done;
  flight_note t s ~a:epoch ~c:(match s.flight_scan with Some (r, _) -> List.length r | None -> 0)
    Flight.Recovery_start;
  (* Resolve the staged generation. *)
  let bumped =
    roll_forward && !staged <> []
  in
  if bumped then begin
    (* The seal directs roll-forward: the staged generation was fenced
       durable before the seal, so adopting it is safe and idempotent. *)
    Pmem.set_site t.pmem "paging.recover";
    Pmem.atomic_write8_int t.pmem ~off:(g.base + g.epoch_off) (epoch + 1);
    Pmem.Lineset.add_range t.lines ~off:(g.base + g.epoch_off) ~len:8;
    live := !staged @ !live;
    List.iter
      (fun (_, e) -> flight_note t s ~a:0 ~b:e.e_blkno Flight.Recovery_decision)
      !staged;
    t.roll_forwards <- t.roll_forwards + List.length !staged
  end
  else
    List.iter
      (fun (slot, e) ->
        (* Roll back: the old side (if any) is the durable committed
           version; a staged miss vanishes. *)
        Pmem.set_site t.pmem "paging.recover";
        (if e.e_has_old then
           write_entry t s ~slot (committed_entry ~blkno:e.e_blkno ~frame:e.e_frame_a ~epoch)
         else begin
           Pmem.atomic_write16 t.pmem ~off:(entry_off g slot) (Bytes.make entry_size '\000');
           s.swings <- s.swings + 1
         end);
        Pmem.Lineset.add_range t.lines ~off:(entry_off g slot) ~len:entry_size;
        flight_note t s ~a:1 ~b:e.e_blkno Flight.Recovery_decision;
        if e.e_has_old then live := (slot, { e with e_has_old = false; e_frame_a = 0; e_frame_b = e.e_frame_a; e_epoch = epoch }) :: !live)
      !staged;
  s.epoch <- (if bumped then epoch + 1 else epoch);
  (* Rebuild the volatile index and free monitors from the live sides. *)
  List.iter
    (fun (slot, e) ->
      let p = { p_blkno = e.e_blkno; p_frame = e.e_frame_b; p_slot = slot; p_pinned = false; p_node = None } in
      p.p_node <- Some (Lru.push_mru s.lru p);
      Hashtbl.replace s.index e.e_blkno p;
      Free_monitor.mark_used s.free_frames e.e_frame_b;
      Free_monitor.mark_used s.free_slots slot;
      s.dirty_count <- s.dirty_count + 1)
    !live;
  if not (Pmem.Lineset.is_empty t.lines) then begin
    Pmem.flush_lines t.pmem t.lines;
    Pmem.sfence t.pmem
  end
[@@pmem.defer
  "every roll-back/roll-forward entry rewrite and flight record is fenced by the guarded \
   flush_lines + sfence: the guard `not (Lineset.is_empty t.lines)` is true exactly when \
   recovery rewrote media, which the syntactic dataflow cannot correlate"]

let recover ~pmem ~disk ~clock ~metrics () =
  let metrics_ = metrics in
  let magic = Codec.get_u64 (Pmem.read pmem ~off:0 ~len:8) 0 in
  if magic = super_magic then begin
    let block_size, nframes, flight_slots = read_super pmem ~base:0 in
    let g = compute_geom ~base:0 ~span:(Pmem.size pmem) ~block_size ~flight_slots in
    if g.nframes <> nframes then corrupt "paging: superblock frame count %d contradicts the geometry %d" nframes g.nframes;
    let cfg = { default_config with block_size; flight_slots } in
    let t = mk_t ~cfg ~pmem ~disk ~clock ~metrics:metrics_ ~nshards:1 [| mk_shard_state cfg g |] in
    recover_shard t ~shard_id:0 ~roll_forward:false;
    t
  end
  else if magic = dir_magic then begin
    let hdr = Pmem.read pmem ~off:0 ~len:16 in
    let nshards = Codec.get_u32 hdr 8 in
    if nshards < 2 || nshards > Shard.max_shards then
      corrupt "paging: directory shard count %d invalid" nshards;
    let seal = Pmem.read_u64_int pmem ~off:dir_seal_off in
    let mask = seal lsr 32 in
    let span = (Pmem.size pmem - header_bytes) / nshards / 64 * 64 in
    let block_size, _, flight_slots = read_super pmem ~base:header_bytes in
    let cfg = { default_config with block_size; flight_slots } in
    let geoms =
      Array.init nshards (fun i ->
          let base = header_bytes + (i * span) in
          let bs, nf, fs = read_super pmem ~base in
          if bs <> block_size || fs <> flight_slots then
            corrupt "paging: shard %d superblock disagrees with shard 0" i;
          let g = compute_geom ~base ~span ~block_size ~flight_slots in
          if g.nframes <> nf then corrupt "paging: shard %d frame count contradicts geometry" i;
          g)
    in
    let t =
      mk_t ~cfg ~pmem ~disk ~clock ~metrics:metrics_ ~nshards
        (Array.map (mk_shard_state cfg) geoms)
    in
    for i = 0 to nshards - 1 do
      recover_shard t ~shard_id:i ~roll_forward:(mask land (1 lsl i) <> 0)
    done;
    if seal <> 0 then begin
      (* The sealed commit is now fully adopted: retire the seal. *)
      Pmem.set_site pmem "paging.recover";
      Pmem.atomic_write8 pmem ~off:dir_seal_off 0L;
      Pmem.persist pmem ~off:dir_seal_off ~len:8
    end;
    t
  end
  else corrupt "no paging media (magic %Lx)" magic

(* --- stats / wear / invariants ------------------------------------------ *)

let clean_cached t =
  Array.fold_left
    (fun acc s ->
      acc + Hashtbl.fold (fun _ p n -> if p.p_slot < 0 then n + 1 else n) s.index 0)
    0 t.shards

let total_frames t = Array.fold_left (fun acc s -> acc + s.geom.nframes) 0 t.shards
let free_frames t = Array.fold_left (fun acc s -> acc + Free_monitor.free_count s.free_frames) 0 t.shards
let dirty_slots t = Array.fold_left (fun acc s -> acc + s.dirty_count) 0 t.shards
let table_swings t = Array.fold_left (fun acc s -> acc + s.swings) 0 t.shards
let epoch_bumps t = Array.fold_left (fun acc s -> acc + s.epoch_bumps) 0 t.shards

let write_hit_rate t =
  let total = t.write_hits + t.write_misses in
  if total = 0 then 0.0 else float_of_int t.write_hits /. float_of_int total

(* Paging-native stats surface.  Deliberately NO ring_high_water, no
   role-switch and no ring rows: those are logging-only concepts and
   their absence (rather than a misleading zero) is pinned by test. *)
let stats_kv t =
  let occupancy =
    let total = total_frames t in
    if total = 0 then 0.0
    else 100.0 *. float_of_int (total - free_frames t) /. float_of_int total
  in
  [
    ("scheme", "paging");
    ("nshards", string_of_int t.nshards);
    ("block_size", string_of_int t.cfg.block_size);
    ("pool_frames", string_of_int (total_frames t));
    ("pool_frames_free", string_of_int (free_frames t));
    ("pool_occupancy_pct", Printf.sprintf "%.1f" occupancy);
    ("table_slots", string_of_int (total_frames t));
    ("table_swings", string_of_int (table_swings t));
    ("epoch_swings", string_of_int (epoch_bumps t));
    ("dirty_pages", string_of_int (dirty_slots t));
    ("clean_cached", string_of_int (clean_cached t));
    ("read_hits", string_of_int t.read_hits);
    ("read_misses", string_of_int t.read_misses);
    ("write_hits", string_of_int t.write_hits);
    ("write_misses", string_of_int t.write_misses);
    ("evictions", string_of_int t.evictions);
    ("writebacks", string_of_int t.writebacks);
    ("multi_shard_commits", string_of_int t.multi_commits);
    ("cross_shard_seals", string_of_int t.seals);
    ("seal_roll_forwards", string_of_int t.roll_forwards);
  ]
  @ List.concat
      (List.mapi
         (fun i s -> if t.nshards = 1 then [] else [ (Printf.sprintf "s%d.epoch" i, string_of_int s.epoch) ])
         (Array.to_list t.shards))

let shard_region_wear t s =
  let g = s.geom in
  let row name ~off ~len =
    (name, Pmem.wear_sum_in t.pmem ~off ~len, Pmem.wear_max_in t.pmem ~off ~len)
  in
  [
    row "super" ~off:g.base ~len:64;
    row "epoch" ~off:(g.base + g.epoch_off) ~len:64;
    row "flight" ~off:(g.base + g.flight_off) ~len:(max 64 (g.flight_slots * Flight.record_size));
    row "table" ~off:(g.base + g.table_off) ~len:(g.pool_off - g.table_off);
    row "pool" ~off:(g.base + g.pool_off) ~len:(g.nframes * g.block_size);
  ]

let region_wear t =
  if t.nshards = 1 then shard_region_wear t t.shards.(0)
  else
    ( "header",
      Pmem.wear_sum_in t.pmem ~off:0 ~len:header_bytes,
      Pmem.wear_max_in t.pmem ~off:0 ~len:header_bytes )
    :: List.concat
         (List.mapi
            (fun i s ->
              List.map (fun (n, a, b) -> (Printf.sprintf "s%d.%s" i n, a, b)) (shard_region_wear t s))
            (Array.to_list t.shards))

let fail_inv fmt = Printf.ksprintf (fun m -> raise (Invariant_violation m)) fmt

let check_invariants t =
  if t.nshards > 1 && not t.committing then begin
    let seal = Pmem.read_u64_int t.pmem ~off:dir_seal_off in
    if seal <> 0 then fail_inv "paging: cross-shard seal %x durable outside a commit" seal
  end;
  Array.iteri
    (fun i s ->
      let g = s.geom in
      let durable_epoch = Pmem.read_u64_int t.pmem ~off:(g.base + g.epoch_off) in
      if durable_epoch <> s.epoch then
        fail_inv "paging shard %d: volatile epoch %d != durable %d" i s.epoch durable_epoch;
      if Lru.length s.lru <> Hashtbl.length s.index then
        fail_inv "paging shard %d: LRU %d != index %d" i (Lru.length s.lru) (Hashtbl.length s.index);
      let dirty = ref 0 in
      Hashtbl.iter
        (fun blkno p ->
          if p.p_blkno <> blkno then fail_inv "paging shard %d: index key %d holds blkno %d" i blkno p.p_blkno;
          if p.p_frame < 0 || p.p_frame >= g.nframes then
            fail_inv "paging shard %d: blkno %d frame %d out of range" i blkno p.p_frame;
          if Free_monitor.is_free s.free_frames p.p_frame then
            fail_inv "paging shard %d: blkno %d frame %d marked free" i blkno p.p_frame;
          if p.p_slot >= 0 then begin
            incr dirty;
            if Free_monitor.is_free s.free_slots p.p_slot then
              fail_inv "paging shard %d: blkno %d slot %d marked free" i blkno p.p_slot;
            let e = read_entry t g p.p_slot in
            if not e.e_valid then fail_inv "paging shard %d: blkno %d slot %d invalid on media" i blkno p.p_slot;
            if e.e_blkno <> blkno then
              fail_inv "paging shard %d: slot %d maps blkno %d, index says %d" i p.p_slot e.e_blkno blkno;
            if e.e_epoch > s.epoch then
              fail_inv "paging shard %d: slot %d staged (epoch %d > %d) outside a commit" i p.p_slot e.e_epoch s.epoch;
            if e.e_frame_b <> p.p_frame then
              fail_inv "paging shard %d: slot %d live frame %d, index says %d" i p.p_slot e.e_frame_b p.p_frame
          end)
        s.index;
      if !dirty <> s.dirty_count then
        fail_inv "paging shard %d: dirty_count %d, counted %d" i s.dirty_count !dirty)
    t.shards
