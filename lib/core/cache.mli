(** Tinca: the transactional NVM disk cache (paper §4).

    A write-back (default) or write-through cache interposed between a
    file system and a {!Tinca_blockdev.Disk}, storing cached blocks in a
    {!Tinca_pmem.Pmem} and exporting the paper's transactional
    primitives: {!Txn.init} ([tinca_init_txn]), {!Txn.commit}
    ([tinca_commit]) and {!Txn.abort} ([tinca_abort]).

    Consistency guarantees (verified by the crash-injection test suite):
    after a crash at any point and any subset of unflushed cache lines
    surviving, {!recover} restores the cache to exactly the state as of
    the last completed commit — committed transactions are atomic and
    durable, in-flight ones roll back completely.

    Two deliberate refinements of the paper's §4.4/§4.5 prose, recorded
    here because the test suite depends on them:
    - all role-switch flushes are fenced {e before} the Tail update, so a
      crash can never leave Tail advanced while role switches were lost
      (which would make recovery keep half a transaction);
    - recovery revokes the {e union} of blocks named in the ring range
      [Tail, Head) and blocks whose entry still carries the log role — a
      ring-only scan would miss a block whose entry was persisted before
      its ring slot (paper step 1 precedes step 2). *)

type t

type mode = Write_back | Write_through

(** Shape of the commit protocol's persistence traffic (same ordering
    guarantees and crash semantics either way; see {!Txn.commit}).

    [Batched] (default) is the staged group commit: all COW data blocks
    and swung entries flushed under a single fence, all ring slots under
    one more, then one Head persist — a constant number of fences per
    commit however many blocks it carries.  [Per_block] is the paper's
    literal per-block protocol (~4 fences per block), kept as the
    baseline of the [fig_commit_batch] ablation. *)
type pipeline = Per_block | Batched

type config = {
  block_size : int;   (** default 4096 *)
  ring_slots : int;   (** default 131072 = 1 MB of 8 B slots *)
  mode : mode;
  clean_threshold : float;
      (** dirty fraction of the cache beyond which a background flusher
          pre-cleans the oldest dirty buffer blocks (elevator-sorted,
          background device time, blocks stay cached and are marked clean
          persistently), so replacement usually finds clean victims.
          Default 0.7; 1.0 disables pre-cleaning. *)
  alloc_policy : Tinca_cachelib.Free_monitor.policy;
      (** NVM data-block allocation order.  [Lifo] (default) reuses the
          most recently freed block; [Fifo] rotates through the whole
          region, spreading write wear evenly — a wear-leveling extension
          for endurance-limited NVM (the paper's §1 PCM concern). *)
  commit_pipeline : pipeline;
      (** How {!Txn.commit} shapes its flushes and fences; default
          [Batched]. *)
  flight_slots : int;
      (** NVM flight-recorder ring capacity in 64 B records; 0 (default)
          disables the recorder and reproduces the historical layout
          byte for byte.  See {!flight_note}. *)
}

val default_config : config

exception Transaction_too_large

(** Raised by replacement when every cached block is pinned by the
    in-flight transaction, i.e. there is no eviction victim.  Inside
    {!Txn.commit} this is mapped to {!Transaction_too_large} after the
    partial commit has been rolled back, so transaction callers only ever
    see one exception type for capacity problems. *)
exception Cache_exhausted

(** Recovery rejected the media: unformatted NVM, corrupt superblock
    geometry, or an entry table that contradicts itself.  Typed (not a
    bare [Failure]) so callers can distinguish "the medium is bad" from
    an arbitrary internal error; the [Tinca] facade maps it to
    [Tinca.Unformatted]. *)
exception Corrupt of string

(** An internal-invariant audit failed ({!check_invariants}, or a
    bookkeeping structure caught mid-corruption): always a programming
    error, never an API or media error.  Typed (not a bare [Failure])
    so the lockstep sweep and the crash checker key on the audit
    outcome rather than on exception payloads. *)
exception Invariant_violation of string

(** [format ~config ~pmem ~disk ~clock ~metrics] initializes the NVM
    layout (superblock, zeroed pointers and entry table) and returns an
    empty cache. *)
val format :
  config:config ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  t

(** [format_region ~base ~mem_bytes ...] is {!format} confined to the
    device region [\[base, mem_bytes)] — how {!Shard} packs one cache
    (superblock included) per shard onto a single pmem. *)
val format_region :
  base:int ->
  mem_bytes:int ->
  config:config ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  t

(** [recover ~pmem ~disk ~clock ~metrics ()] re-attaches after a crash:
    validates the superblock, scans the entry table to rebuild the DRAM
    index / LRU / free monitor, and revokes every block of the in-flight
    transaction (paper §4.5).  Raises {!Corrupt} on unformatted media.

    When the media carries a flight ring, its surviving records are
    scanned {e before} any recovery write (see {!flight_scan_result})
    and recovery appends its own [Recovery_start] / [Recovery_decision]
    records, riding the fences recovery already pays.
    [~flight_replay:false] suppresses the scan result and the
    recovery-time records (the recorder keeps its write cursor): the
    recovered {e cache} state must be bit-identical either way — pinned
    by the flight crash sweep. *)
val recover :
  ?flight_replay:bool ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  t

(** [recover_region ~base ~mem_bytes ... ()] is {!recover} for the cache
    occupying the device region [\[base, mem_bytes)]. *)
val recover_region :
  ?flight_replay:bool ->
  base:int ->
  mem_bytes:int ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  t

val layout : t -> Layout.t
val config : t -> config

(** Read and validate the superblock of the cache occupying
    [\[base, mem_bytes)] without attaching to it; raises [Failure] on
    unformatted or corrupt media.  Used by {!Shard} recovery (to locate
    ring and entries for the cross-shard roll-forward before any cache
    is attached) and by the sanitizer's layout discovery. *)
val read_layout : base:int -> mem_bytes:int -> Tinca_pmem.Pmem.t -> Layout.t

(** {1 Block I/O} *)

(** [read t blkno] returns the newest version of the block, from NVM on a
    hit or from disk (filling the cache) on a miss. *)
val read : t -> int -> bytes

(** [write_direct t blkno data] — single-block atomic write outside any
    caller transaction (implemented as a one-block commit). *)
val write_direct : t -> int -> bytes -> unit

(** {1 Transactions} *)

module Txn : sig
  type handle

  (** [tinca_init_txn]: start a running transaction (DRAM-resident). *)
  val init : t -> handle

  (** Stage a block; staging the same block twice keeps the newest data. *)
  val add : handle -> int -> bytes -> unit

  val block_count : handle -> int

  (** [tinca_commit]: run the commit protocol of §4.4.  On return the
      transaction is durable in NVM.  Raises {!Transaction_too_large} if
      the ring, the NVM data region or the entry table cannot host it —
      either up front (admission control; nothing is written) or, should
      replacement still exhaust mid-commit, after the partial commit has
      been revoked (with the [Batched] pipeline the failure is confined
      to the volatile allocation pass, so nothing was ever written).
      Either way the handle is finished and the cache is exactly as
      before the call.

      With the default [Batched] pipeline the protocol runs as a staged
      group commit with a constant fence count (≤ 6 for any transaction
      size, vs ~4n+2 per-block): (A) all COW data blocks written
      (vectored) and all entries swung atomically, every dirtied line
      flushed once, one fence; (B) all ring slots staged and fenced, then
      Head advanced once with a single persist — entries and slots are
      durable strictly before Head covers them; (C) batched role switch,
      fenced before (D) the Tail persist.  Crash atomicity is unchanged:
      before the Head advance a crash leaves the ring quiescent and
      recovery revokes whatever subset of entries became durable via the
      log-role scan; after it, the ring range covers the whole batch. *)
  val commit : handle -> unit

  (** [tinca_abort]: drop a running transaction, or revoke a partially
      committed one (including a [stage]d sub-commit whose Head has not
      moved) to its pre-transaction state. *)
  val abort : handle -> unit

  (** {2 Split commit (the sharded scheduler's building blocks)}

      [commit h] ≡ [stage h; publish h; finalize h] with an identical
      operation, fence and latency sequence.  {!Shard} uses the split to
      run a multi-shard transaction as a two-phase publish: every
      shard's sub-commit is [stage]d first (nothing in any ring range),
      then every Head advances, then a cross-shard commit record seals
      the transaction, and only then does each shard [finalize]. *)

  (** Admission control plus §4.4 steps 1–2 and ring-slot staging: after
      [stage], data and entries are durable and the slots are staged,
      but Head still excludes them — a crash now rolls the sub-commit
      back.  Raises {!Transaction_too_large} exactly as {!commit} does
      (the handle finished, the cache untouched); [Invalid_argument] on
      an empty transaction. *)
  val stage : handle -> unit

  (** Advance this cache's Head over the staged slots (one persist under
      the [Batched] pipeline; no-op for [Per_block], which publishes
      eagerly).  Call exactly once after {!stage}. *)
  val publish : handle -> unit

  (** §4.4 steps 4–5 and post-commit bookkeeping: batched role switch
      (fenced before Tail), Tail := Head, previous-version reclamation,
      stats, optional write-through propagation, background cleaning. *)
  val finalize : handle -> unit

  (** {2 Group commit across transactions (async commit)}

      The fence bill of a commit is constant but still per-transaction;
      the group-commit path amortizes it over a whole batch.  [seal]
      applies a transaction {e volatilely} — admission control, pass-1
      allocation, all COW data and entry stores, ring-slot staging —
      with no flush and no fence: reads already see the new versions
      (the DRAM index points at them) but nothing is durable and Head
      excludes the staged slots, so a crash rolls the transaction back
      completely (surviving log-role entry lines are revoked by
      recovery's entry scan).  [flush_sealed] then makes a whole batch
      durable with one stage-A flush+fence, one slot flush+fence and a
      single Head persist covering every transaction's slots, and
      [finalize_sealed] retires the batch with one batched role switch
      and one Tail persist — ~5 fences per {e batch} instead of per
      commit.  Crash atomicity is batch-granular: before the Head
      persist the whole batch rolls back, after it the ring range names
      the whole batch.

      Sealed handles must all be flushed together (in seal order) by
      the group committer that owns the cache; {!abort} must not be
      called on one (its Head rewind would drop peer transactions'
      staged slots) — use {!unseal} instead. *)

  (** Tag the handle with the facade's durable-notification ticket id
      before {!seal}, so the flight recorder's [Txn_seal] record (and
      post-crash dossiers) can name the acked ticket.  Purely advisory;
      -1 (the initial value) means "no ticket". *)
  val set_flight_ticket : handle -> int -> unit

  (** Volatilely apply the transaction as described above.  Raises
      {!Transaction_too_large} exactly as {!commit} does (handle
      finished, cache untouched, peer sealed transactions undisturbed);
      [Invalid_argument] on an empty transaction or under the
      [Per_block] pipeline. *)
  val seal : handle -> unit

  (** Drop a sealed-but-unflushed transaction: revoke its blocks and
      un-stage its ring slots.  Only valid while its slots are the
      newest staged ones (the scheduler unwinds a partially sealed
      multi-shard transaction immediately, before any later seal). *)
  val unseal : handle -> unit

  (** One stage-A flush+fence, one slot flush+fence and one Head
      persist covering every sealed handle in the list (seal order).
      The list must hold every transaction sealed on its cache, and
      nothing else ([Invalid_argument] otherwise).  [cause] (default
      [Barrier]) labels this drain in the flight recorder's
      [Batch_drain] record; it has no effect on the commit protocol. *)
  val flush_sealed : ?cause:Tinca_obs.Flight.cause -> handle list -> unit

  (** One batched role switch and one Tail persist retiring the whole
      flushed batch, then per-transaction post-commit bookkeeping and
      background cleaning. *)
  val finalize_sealed : handle list -> unit

  (** {2 Failure injection (tests and the crash-space checker)} *)

  (** [commit_prefix h k] runs the commit protocol (§4.4 steps 1–3) for
      the first [k] staged blocks and then stops, exactly as an injected
      mid-commit failure would, leaving the handle committing and the
      ring non-quiescent (with [k] published slots; under the [Batched]
      pipeline the prefix runs stages A–B for those [k] blocks).  Follow
      with {!abort} to exercise the production revocation path
      deterministically.  Test-only: a handle driven this way must not
      be [commit]ted. *)
  val commit_prefix : handle -> int -> unit
end

(** {1 Maintenance} *)

(** Write every dirty buffer block back to disk (blocks stay cached and
    are marked clean persistently).  Not needed for durability — commits
    are durable in NVM — only for decommissioning the cache. *)
val flush_all : t -> unit

(** Number of blocks currently cached. *)
val cached_blocks : t -> int

(** Number of vacant NVM data blocks. *)
val free_blocks : t -> int

(** [contains t blkno] *)
val contains : t -> int -> bool

(** Write hit rate so far (paper Fig 12c). *)
val write_hit_rate : t -> float

val read_hit_rate : t -> float

(** Histogram of blocks per committed transaction (paper Fig 13 /
    §5.4.3). *)
val txn_size_histogram : t -> Tinca_util.Histogram.t

(** Peak number of NVM blocks simultaneously pinned by COW previous
    versions (paper §5.4.3 spatial overhead). *)
val peak_cow_blocks : t -> int

(** {1 Stats surface}

    One coherent [/proc/tinca]-style snapshot of the cache's health:
    occupancy, dirty/pinned state, hit ratios, commit/abort/recovery
    totals, ring occupancy high-water mark and NVM wear.  Cheap (no
    media scan) and side-effect free. *)

type stats = {
  capacity_blocks : int;
  cached : int;
  free_data : int;
  free_entries : int;
  dirty : int;
  dirty_ratio : float;  (** dirty / capacity *)
  pinned : int;  (** entries in log role (in-flight transaction) *)
  cow_pinned : int;  (** NVM blocks held as COW previous versions *)
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
  ring_high_water : int;  (** peak ring occupancy since attach *)
  wear_max : int;  (** max per-line NVM write-backs *)
  wear_mean : float;
}

val stats : t -> stats

(** Render as ordered [(key, value)] strings, ready for
    {!Tinca_obs.Procfs.render}. *)
val stats_kv : stats -> (string * string) list

(** Per-line NVM wear attributed to Layout regions, in layout order:
    [(region, total write-backs, max write-backs on one line)].  Regions
    are [super]/[head]/[tail]/[ring]/[flight]/[entries]/[data]; a
    zero-byte region (e.g. [flight] with the recorder off) reports
    [(name, 0, 0)]. *)
val region_wear : t -> (string * int * int) list

(** {1 Flight recorder (ISSUE 9)}

    When [config.flight_slots > 0], the cache keeps a crash-surviving
    event ring in its NVM region (between the commit ring and the entry
    table): fixed 64 B records, overwrite-oldest, each self-delimited by
    a sequence word and CRC-32 so a torn tail record is detected rather
    than trusted.  Records are {e volatile} stores whose cache lines are
    flushed together with (or immediately before) fences the commit
    protocol already pays — the recorder never adds an sfence, pinned by
    [test_budget] with the recorder enabled. *)

(** Label this cache's records with a shard index ({!Shard} sets it at
    construction; defaults to 0). *)
val set_flight_shard : t -> int -> unit

(** The batch id the next group drain will take (the drain counter). *)
val flight_next_batch : t -> int

(** Append one record (no-op when the recorder is off).  The commit and
    recovery paths call this at protocol milestones; tests may inject
    extra records.  The record's line is flushed at the next protocol
    fence, not here. *)
val flight_note :
  t ->
  ?batch:int ->
  ?cause:Tinca_obs.Flight.cause ->
  ?a:int ->
  ?b:int ->
  ?c:int ->
  ?d:int ->
  Tinca_obs.Flight.kind ->
  unit

(** The survivor scan {!recover} performed before its first write:
    [(records sorted by sequence, torn count)].  [None] before any
    recovery, or when the ring is absent or [~flight_replay:false]. *)
val flight_scan_result : t -> ((int * Tinca_obs.Flight.event) list * int) option

(** {1 Introspection for tests} *)

(** Decode entry slot [i] from media. *)
val entry_at : t -> int -> Entry.t

(** Newest cached data for [blkno], if cached. *)
val peek : t -> int -> bytes option

(** Full consistency audit of DRAM structures vs NVM media; raises
    {!Invariant_violation} with a description on any violation.  Used by
    tests after every recovery. *)
val check_invariants : t -> unit
