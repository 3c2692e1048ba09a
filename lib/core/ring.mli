(** The fine-grained ring buffer that regulates committing transactions
    (paper §4.4).

    Replaces JBD2's descriptor and commit blocks: each element is one
    8-byte on-disk block number; [Head] and [Tail] are persistent 8-byte
    monotonic counters (slot = counter mod nslots) updated with atomic
    writes followed by clflush + sfence.  [Head = Tail] means no
    transaction is in flight; the half-open range [Tail, Head) lists the
    blocks of the in-flight transaction. *)

type t

(** Attach to (already formatted or zeroed) media. *)
val attach : pmem:Tinca_pmem.Pmem.t -> layout:Layout.t -> t

val slots : t -> int
val head : t -> int
val tail : t -> int

(** Blocks recorded in the in-flight transaction. *)
val in_flight : t -> int

(** Peak {!in_flight} occupancy observed since attach/format — the ring
    sizing signal surfaced by [Cache.stats].  Volatile: resets on
    re-attach. *)
val high_water : t -> int

(** [record t blkno] writes [blkno] at the Head slot (atomic 8 B +
    persist) and then advances Head (atomic 8 B + persist) — steps 2–3 of
    the commit protocol.  Raises [Invalid_argument] if the ring is full. *)
val record : t -> int -> unit

(** [record_batch t blknos] — group-commit variant of {!record}, step 2
    for a whole transaction: stage one slot per block starting at Head
    (atomic 8 B writes), flush each dirtied slot line once, fence.  The
    slots are durable but Head does not cover them yet, so they stay
    invisible to {!pending_blknos} and to recovery until {!publish}.
    Raises [Invalid_argument] if the batch does not fit. *)
val record_batch : t -> int list -> unit

(** [stage_batch t lines blknos] — the volatile half of {!record_batch}
    for the multi-transaction group committer: stage one slot per block
    past Head and any previously staged slots (atomic 8 B writes, {e no}
    flush, {e no} fence) and add the dirtied line indices to [lines].
    The caller folds many transactions' lines into one
    [Pmem.flush_lines] + fence before a single {!publish} covering them
    all.  Staged-but-unpublished slots are volatile batch state:
    {!publish} consumes them, {!rewind_head}/{!reload}/{!format} discard
    them, and the fullness checks account for them.  Raises
    [Invalid_argument] if the batch does not fit, before writing or
    adding anything. *)
val stage_batch : t -> Tinca_pmem.Pmem.Lineset.t -> int list -> unit

(** Slots written by {!stage_batch} but not yet covered by {!publish}. *)
val staged : t -> int

(** [unstage t n] drops the newest [n] staged slots (volatile; the seal
    unwinding path).  Raises [Invalid_argument] when [n] exceeds the
    staged count. *)
val unstage : t -> int -> unit

(** [publish t n] — advance Head over [n] staged slots with a single
    atomic write + persist (step 3 for the whole batch).  Must follow a
    {!record_batch} of at least [n] slots; no-op when [n = 0]. *)
val publish : t -> int -> unit

(** Persistently set Tail := Head (the commit point, step 5). *)
val commit_point : t -> unit

(** Persistently set Head := Tail (after an abort's revocations). *)
val rewind_head : t -> unit

(** Disk block numbers in [Tail, Head), oldest first (recovery scan). *)
val pending_blknos : t -> int list

(** Re-read Head/Tail from media (after a crash). *)
val reload : t -> unit

(** Zero both pointers persistently (formatting). *)
val format : t -> unit
