(** Byte-addressable persistent-memory simulator.

    Models the NVM the paper's prototype runs on (NVDIMM with added
    PCM/STT-RAM delays) together with the volatile CPU cache in front of
    it, because Tinca's correctness argument lives exactly in that gap:

    - regular stores land in a volatile cache-line layer (64 B lines) and
      are NOT durable;
    - [clflush] marks a line for write-back; it only becomes durable at
      the next [sfence] (matching x86 ordering of clflush);
    - at a crash, every line that is dirty or flush-pending independently
      either reaches the medium or is lost — an adversarial model of
      write-back reordering;
    - 8 B and 16 B aligned atomic writes model [mov]/[cmpxchg16b LOCK]:
      they cannot tear (a line either carries the whole value or the
      previous whole value after a crash).

    Reads always observe the newest stores (CPU reads hit its own cache).
    Every operation charges simulated time to the owning {!Tinca_sim.Clock}
    and bumps counters in the owning {!Tinca_sim.Metrics}:
    ["pmem.stores"], ["pmem.store_lines"], ["pmem.clflush"],
    ["pmem.sfence"], ["pmem.lines_persisted"], ["pmem.read_lines"],
    ["pmem.atomic_writes"]. *)

type t

(** Raised when the systematic crash-injection countdown expires; see
    {!set_crash_countdown}. *)
exception Crash_point

(** Cache-line size in bytes (64). *)
val line_size : int

(** [create ~clock ~metrics ~tech ~size ()] — [size] must be a multiple of
    [line_size].  [seed] drives crash-time nondeterminism resolution;
    [flush_instr] selects the modelled cache-line flush instruction
    (default [Clflush], the only one the paper's testbed supports). *)
val create :
  ?seed:int ->
  ?flush_instr:Tinca_sim.Latency.flush_instr ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  tech:Tinca_sim.Latency.nvm_tech ->
  size:int ->
  unit ->
  t

val size : t -> int
val tech : t -> Tinca_sim.Latency.nvm_tech

(** The modelled cache-line flush instruction (fixed at {!create}). *)
val flush_instr : t -> Tinca_sim.Latency.flush_instr

(** {1 Volatile stores} *)

(** [write t ~off src] stores all of [src] at [off]. *)
val write : t -> off:int -> bytes -> unit

(** [write_sub t ~off src ~pos ~len] stores [len] bytes of [src] starting
    at [pos]. *)
val write_sub : t -> off:int -> bytes -> pos:int -> len:int -> unit

(** [writev t chunks] — vectored store: each [(off, src)] chunk as one
    {!write}, in list order.  All ranges are validated before any byte is
    stored, so a bad chunk raises [Invalid_argument] without a partial
    scatter.  One [Store] event per non-empty chunk. *)
val writev : t -> (int * bytes) list -> unit

(** [fill t ~off ~len c] stores [len] copies of [c]. *)
val fill : t -> off:int -> len:int -> char -> unit

(** [atomic_write8 t ~off v] — 8 B aligned atomic store. *)
val atomic_write8 : t -> off:int -> int64 -> unit

(** [atomic_write8_int t ~off v] — non-negative [int] convenience.
    Raises [Invalid_argument] when [v] is negative. *)
val atomic_write8_int : t -> off:int -> int -> unit

(** [atomic_write16 t ~off v] — 16 B aligned atomic store ([cmpxchg16b]
    with LOCK); [v] must be exactly 16 bytes. *)
val atomic_write16 : t -> off:int -> bytes -> unit

(** {1 Reads} *)

val read : t -> off:int -> len:int -> bytes
val read_into : t -> off:int -> buf:bytes -> pos:int -> len:int -> unit
val read_u8 : t -> off:int -> int
val read_u64 : t -> off:int -> int64
val read_u64_int : t -> off:int -> int

(** {1 Persistence primitives} *)

(** [clflush t ~off ~len] issues clflush for every line intersecting the
    range.  Lines become durable at the next {!sfence}.  Every issued
    flush pays the instruction latency; only lines that are actually
    dirty (and not already flush-pending) start a medium write-back and
    pay the medium's write latency — a flush of a clean line is a no-op
    and must not inflate the modelled NVM write traffic.
    ["pmem.clflush"] counts issued flushes per line;
    ["pmem.clflush_writebacks"] counts the write-backs they started.

    One call is charged as one back-to-back flush burst: serializing
    [Clflush] pays the full instruction latency per line, while
    [Clflushopt]/[Clwb] pipeline (first line full, each further line only
    the issue slot — {!Tinca_sim.Latency.flush_batch_ns}). *)
val clflush : t -> off:int -> len:int -> unit

(** A reusable flush batch: the cache-line indices a commit stage has
    dirtied, gathered for one {!flush_lines}.  Lines are appended in any
    order, duplicates allowed.  The storage grows by doubling and is kept
    when the set is emptied, so a warm set takes lines without
    allocating. *)
module Lineset : sig
  type t

  val create : unit -> t

  (** [add s idx] appends line [idx].  Bounds are checked by
      {!flush_lines}, not here. *)
  val add : t -> int -> unit

  (** [add_range s ~off ~len] appends every line intersecting the byte
      range [\[off, off + len)]; nothing when [len <= 0]. *)
  val add_range : t -> off:int -> len:int -> unit

  val clear : t -> unit
  val is_empty : t -> bool

  (** The number of lines added since the set was last emptied: a mark
      to {!truncate} back to. *)
  val mark : t -> int

  (** [truncate s m] drops every line added after [mark s] returned [m].
      Raises [Invalid_argument] when [m] is negative or beyond the set. *)
  val truncate : t -> int -> unit

  (** [iter_rev f s] applies [f] to every added line, newest first,
      duplicates included. *)
  val iter_rev : (int -> unit) -> t -> unit
end

(** [flush_lines t set] — scatter-gather flush: one pipelined burst of
    per-line flushes over [set], sorted and deduplicated in place, in
    ascending line order.  Semantically identical to one [clflush] per
    line — each line is its own instruction, crash-countdown event and
    observer [Clflush] event — but the burst is charged with the batch
    cost, so [Clflushopt]/[Clwb] callers stop paying the serialized
    per-call latency.  Raises [Invalid_argument] on an out-of-bounds
    line index, before issuing anything.  [set] is empty afterwards,
    however the call ends.  Unobserved, a flush allocates the same few
    words (the clock charge) whatever the set's size. *)
val flush_lines : t -> Lineset.t -> unit

(** Ordering + durability point: all flush-pending lines reach the medium. *)
val sfence : t -> unit

(** [persist t ~off ~len] = [clflush]; [sfence] — the paper's write idiom. *)
val persist : t -> off:int -> len:int -> unit

(** {1 Crash injection} *)

(** [crash ?seed ?survival t] simulates power loss: each dirty or
    flush-pending line independently survives (its newest content reaches
    the medium) with probability [survival] (default 0.5) or reverts to
    its last persisted content; then the volatile layer is emptied.
    [seed] overrides the internal RNG for reproducible outcomes: lines
    draw in a fixed order (DESIGN.md §6), so a seed resolves a given
    device state the same way every time. *)
val crash : ?seed:int -> ?survival:float -> t -> unit

(** [set_crash_countdown t (Some k)] raises {!Crash_point} out of the
    [k]-th subsequent mutation/persistence event (store, atomic write,
    clflush or sfence), leaving that event not performed.  [None] disables
    the hook.  Used by systematic crash-sweep tests. *)
val set_crash_countdown : t -> int option -> unit

(** {1 Crash-space exploration (lib/check)}

    Hooks for the exhaustive crash-space model checker: instead of
    sampling one random survival outcome per crash, it enumerates every
    survival subset of the {!torn_lines}, re-entering the same pre-crash
    device state via {!snapshot}/{!restore}. *)

(** The unfenced lines whose volatile content differs from their durable
    backup, ascending: exactly the lines whose survival verdict at a
    crash changes the medium.  Every other unfenced line (never flushed,
    or rewritten with the bytes it already held) leaves the medium the
    same whether it survives or not, so two survival subsets of these
    lines give the same medium only if they are equal. *)
val torn_lines : t -> int array

(** [crash_select t ~survive] resolves a crash with an explicit verdict
    per unfenced line: [survive idx] means the line's newest content
    reached the medium.  Lines are asked in {!crash}'s fixed draw order
    (DESIGN.md §6).  Empties the volatile layer and disarms any crash
    countdown.  Allocates nothing: the draw-order scratch belongs to the
    device. *)
val crash_select : t -> survive:(int -> bool) -> unit

type snapshot

(** Capture the full device state (medium + volatile line layer). *)
val snapshot : t -> snapshot

(** Reinstate a {!snapshot} taken on this device (sizes must match):
    medium, volatile line layer and wear counters return to the
    snapshot's values; the crash countdown is disarmed.  Simulated time
    and metrics are left untouched. *)
val restore : t -> snapshot -> unit

(** Digest of the durable medium, for pinning that two runs left
    identical media. *)
val media_digest : t -> Digest.t

(** {1 Event observation (lib/check's persistence sanitizer)}

    A lightweight hook called after every mutation/persistence operation
    completes, so an external checker can shadow the device's
    flush/fence state without the device knowing about it.  Exactly one
    event is emitted per public operation ([write] = one [Store] for the
    whole range; [persist] = [Clflush] then [Sfence]); zero-length
    stores and flushes emit nothing.  When no observer is attached
    there is no allocation and no behaviour change.

    The same event stream also feeds the span tracer: when
    {!Tinca_obs.Trace} is enabled, every Store/Clflush/Sfence lands as a
    counter on the enclosing span ([pmem.store_lines], [pmem.clflush],
    [pmem.clflush_writebacks], [pmem.sfence]), giving per-span
    fence/write-back attribution without disturbing the observer. *)

type event =
  | Store of { off : int; len : int }  (** non-atomic store: [write]/[write_sub]/[fill] *)
  | Atomic_write of { off : int; len : int }  (** [atomic_write8]/[atomic_write16] *)
  | Clflush of { off : int; len : int }  (** one [clflush] call, whole issued range *)
  | Sfence  (** ordering + durability point *)
  | Crash  (** power loss resolved ([crash] or [crash_select]) *)

(** [set_observer t (Some f)] attaches [f]; [None] detaches.  An
    exception raised by [f] propagates out of the triggering operation
    (strict sanitizer mode relies on this). *)
val set_observer : t -> (event -> unit) option -> unit

(** {2 Call-site labels}

    A free-form label the instrumented client (cache, ring, Flashcache)
    sets before issuing pmem operations, so observers can attribute
    events — e.g. per-call-site redundant-flush counts — without stack
    inspection.  Purely advisory: one mutable field, no effect on
    behaviour or timing. *)

val set_site : t -> string -> unit

(** The most recently set call-site label ([""] initially). *)
val site : t -> string

(** Number of mutation/persistence events so far (for sizing sweeps). *)
val event_count : t -> int

(** Lines currently not durable. *)
val dirty_line_count : t -> int

(** [is_dirty t ~off] — is the line containing [off] not durable? *)
val is_dirty : t -> off:int -> bool

(** {1 Wear accounting} *)

(** Total line write-backs to the medium. *)
val wear_total : t -> int

(** Maximum write-backs over any single line. *)
val wear_max : t -> int

(** [wear_histogram t] folds per-line wear into a histogram. *)
val wear_histogram : t -> Tinca_util.Histogram.t

(** [wear_max_in t ~off ~len] — maximum per-line write-backs within a
    byte range (e.g. just the data region, excluding hot pointer lines). *)
val wear_max_in : t -> off:int -> len:int -> int

(** [wear_sum_in t ~off ~len] — total line write-backs within a byte
    range; with {!wear_max_in} this attributes wear to Layout regions
    (superblock / pointers / ring / flight / entries / data). *)
val wear_sum_in : t -> off:int -> len:int -> int
