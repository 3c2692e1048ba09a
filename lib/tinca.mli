(** The Tinca facade: the paper's public primitives by name —
    [tinca_init_txn] / [tinca_commit] / [tinca_abort] plus block read
    and write — over an abstract cache handle, returning
    [(_, error) result] instead of exceptions.

    This is the single entry point the stacks, the harness and [bin/]
    program against; {!Tinca_core.Cache} keeps its exception-based
    interface underneath (the {!to_exn} bridge maps each [error]
    constructor to exactly one of the old exceptions).  Behind the
    handle sits one commit engine, chosen by [Config.commit_scheme] at
    {!format} and by the media magic at {!recover}: the logging scheme's
    {!Tinca_core.Shard} — one cache for [nshards = 1], the striped
    multi-ring layer otherwise — or the paging scheme's
    {!Tinca_core.Paging} indirection-table engine.  Every primitive
    below works on both; scheme-specific introspection ({!layouts},
    {!page_layouts}, {!peak_cow_blocks}) returns empty data on the
    other scheme, and {!shard} is the one logging-only escape hatch. *)

(** Re-exported from {!Tinca_core.Cache} with a type equation, so both
    APIs share constructors. *)
type write_policy = Tinca_core.Cache.mode = Write_back | Write_through

type pipeline = Tinca_core.Cache.pipeline = Per_block | Batched

module Config : sig
  (** Knobs specific to the paging commit scheme. *)
  type page_cfg = {
    page_headroom : int;
        (** free page frames admission keeps in reserve beyond a
            transaction's own demand; >= 0, default 0 *)
  }

  val default_page_cfg : page_cfg

  (** The one validated commit-scheme choice (ISSUE 10): the logging
      ring pipeline (in its [Per_block] or [Batched] variant), or COW
      paging through a persistent indirection table. *)
  type scheme = Logging of pipeline | Paging of page_cfg

  (** The one labelled configuration record: geometry, commit scheme,
      flush instruction, shard count and write policy.  Replaces the
      positional/ad-hoc config arguments previously scattered across
      [Cache.format] / [Stacks] / [Runner].

      The geometry fields ([nvm_bytes], [flush_instr]) describe the NVM
      device and are consumed by whoever creates it (e.g.
      [Runner.run_local]); the rest shape the cache itself. *)
  type t = {
    nvm_bytes : int;  (** simulated NVM size, default 8 MiB *)
    block_size : int;  (** positive multiple of 64; default 4096 *)
    ring_slots : int;  (** ring slots {e per shard} (logging); default 131072 *)
    nshards : int;  (** 1 (default) .. {!Tinca_core.Shard.max_shards} *)
    commit_scheme : scheme;  (** default [Logging Batched] *)
    flush_instr : Tinca_sim.Latency.flush_instr;  (** default [Clflush] *)
    write_policy : write_policy;  (** default [Write_back]; paging is write-back only *)
    clean_threshold : float;  (** in (0, 1]; default 0.7 *)
    alloc_policy : Tinca_cachelib.Free_monitor.policy;  (** default [Lifo] *)
    group_window_ns : int;
        (** async group-commit window: transactions sealed by
            {!commit_async} within this many simulated ns share ONE
            durability sequence.  [0] (default) = fully synchronous —
            {!commit_async} degenerates to today's {!commit}, byte for
            byte.  Requires the [Batched] logging pipeline when nonzero
            (the paging scheme has no group committer). *)
    group_max_batch : int;
        (** drain the pending batch at this many transactions even if
            the window has not elapsed; >= 1, default 32 *)
    flight_slots : int;
        (** NVM flight-recorder ring capacity {e per shard} in 64 B
            records; 0 (default) disables the recorder and keeps the
            historical media layout byte for byte.  See
            {!last_crash_report}. *)
  }

  val default : t

  val scheme_name : scheme -> string

  (** Full validation, subsuming the ad-hoc geometry checks: block size
      and ring shape, shard count bounds, threshold range, that the
      per-shard span actually hosts a layout, and the scheme-specific
      combination rules (paging rejects a group window and
      write-through).  Returns the config unchanged when it is valid. *)
  val validate : t -> (t, string) result

  (** The per-shard cache configuration this facade config induces
      (logging scheme; the pipeline comes from [Logging p]). *)
  val to_cache_config : t -> Tinca_core.Cache.config

  (** The paging-engine configuration this facade config induces. *)
  val to_page_config : t -> page_cfg -> Tinca_core.Paging.config

  (** CLI spelling of a scheme: ["logging"] (or ["batched"]),
      ["per-block"], ["paging"]. *)
  val scheme_of_string : string -> (scheme, string) result

  (** Central CLI-to-config funnel (ISSUE 10 satellite): every
      tinca_bench / tinca_check subcommand builds its config through
      this one helper, so they all accept the same [--scheme] /
      [--shards] / [--group-window] / [--flight-slots] (and
      [--ring-slots] / NVM-size) vocabulary and reject the same invalid
      combinations.  Unset arguments keep [base]'s values (default
      {!default}); the result is {!validate}d. *)
  val of_args :
    ?base:t ->
    ?scheme:string ->
    ?shards:int ->
    ?group_window:int ->
    ?flight_slots:int ->
    ?ring_slots:int ->
    ?nvm_bytes:int ->
    unit ->
    (t, string) result
end

type t

type error =
  | Transaction_too_large
      (** the cache geometry cannot host the transaction (ring, data
          region or entry table); maps to
          [Cache.Transaction_too_large] *)
  | Txn_not_running
      (** operation on a committed/aborted transaction handle *)
  | Wrong_block_size of { expected : int; got : int }
  | Block_out_of_range of int  (** disk block number outside the device *)
  | Unformatted of string  (** recovery found no (or corrupt) Tinca media *)
  | Invalid_config of string  (** rejected by {!Config.validate} *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

(** I/O-shaped failures crossing the exception bridge: the error is
    environmental (media, geometry pressure), not a misuse of the API,
    so {!to_exn} must not flatten it into [Failure]/[Invalid_argument]
    — callers need to distinguish "the medium is bad" from "your
    arguments are bad" and can recover the original [error] via
    {!of_exn}. *)
exception Io_error of error

(** Map each error to exactly one exception of the retained Cache-level
    interface (pinned by the facade round-trip tests):
    [Transaction_too_large] -> {!Tinca_core.Cache.Transaction_too_large},
    [Unformatted] -> {!Io_error} (it used to flatten into [Failure],
    losing the payload), everything else (API misuse) ->
    [Invalid_argument]. *)
val to_exn : error -> exn

(** Partial inverse of {!to_exn}: recover the [error] from a bridge
    exception.  [of_exn (to_exn e) = Some e] for every I/O-shaped [e]
    ([Transaction_too_large], [Unformatted]); Cache-level
    [Cache_exhausted]-class exceptions also map home
    ({!Tinca_core.Cache.Transaction_too_large} ->
    [Some Transaction_too_large]).  [None] for foreign exceptions. *)
val of_exn : exn -> error option

(** [ok_exn r] unwraps [Ok] or raises {!to_exn} of the error — the
    bridge for exception-based callers (the stack backends). *)
val ok_exn : ('a, error) result -> 'a

(** {1 Construction} *)

(** Validate the config and format the device for the configured commit
    scheme (logging: partition into [config.nshards] shards and format
    each ring; paging: directory + per-shard indirection table and page
    pool). *)
val format :
  config:Config.t ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  (t, error) result

(** Re-attach after a crash.  The commit scheme is read back from the
    media's magic (first 8 bytes), so recovery needs no config: logging
    media runs the shard-directory roll-forward/rollback plus per-shard
    ring recovery; paging media rebuilds the volatile index from the
    indirection table (rolling its staged generation back, or forward
    under a durable seal).  [Error (Unformatted _)] on unformatted or
    corrupt media.  The group-commit policy is volatile (not recorded on
    media), so a recovered handle is synchronous
    ([group_window_ns = 0]). *)
val recover :
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  (t, error) result

(** The post-crash forensic dossier built by the last {!recover} on this
    handle: the flight recorder's surviving records reconstructed into a
    batch ledger, a Chrome-trace timeline and an acked-vs-survived
    reconciliation ({!Tinca_obs.Forensics}).  [None] when the media
    carried no flight ring (or no records survived). *)
val last_crash_report : t -> Tinca_obs.Forensics.t option

(** {1 The paper's primitives} *)

type txn

(** [tinca_init_txn]. *)
val init_txn : t -> txn

(** [tinca_write]: stage one block write into the transaction. *)
val write : txn -> int -> bytes -> (unit, error) result

(** [tinca_commit]: atomically and durably apply the transaction.
    Equal to {!commit_async} followed by {!await} — with
    [group_window_ns = 0] (the default) that is exactly the classic
    synchronous pipeline. *)
val commit : txn -> (unit, error) result

(** {1 Async group commit (ISSUE 8)}

    [commit_async] validates and {e volatilely seals} the transaction
    immediately — subsequent reads see it, no flush or fence is paid —
    and returns a {!ticket}.  A group committer drains every
    transaction sealed within [Config.group_window_ns] (or
    [group_max_batch], whichever comes first) with ONE stage-A
    flush+fence, one slot flush+fence, a single Head advance, one
    batched role switch and one Tail persist per touched shard, so
    sfences-per-commit falls like [1/K] with batch size [K].

    Ack vs durable: a sealed-unacked transaction (ticket returned,
    batch not yet drained) may roll back at a crash; once {!await}
    returns (or {!on_durable} fires) the transaction is durable and
    must survive any later crash.  Batches are atomic: a crash
    recovers either none or all of a batch's transactions.

    Logging-scheme only when the window is nonzero; under paging (or
    with the default zero window) {!commit_async} IS the synchronous
    commit. *)

type ticket

(** Seal now, become durable with the next batch drain.  Returns an
    already-durable ticket when [group_window_ns = 0] (synchronous
    path) and for empty transactions. *)
val commit_async : txn -> (ticket, error) result

(** Block (in simulated time: drain the pending batch) until the
    ticket's transaction is durable. *)
val await : ticket -> (unit, error) result

(** [on_durable tk f] runs [f] once [tk]'s transaction is durable —
    immediately if it already is, else from the batch drain.
    Callbacks run in registration order. *)
val on_durable : ticket -> (unit -> unit) -> unit

val ticket_durable : ticket -> bool

(** The durable-notification ticket id (issued in seal order; this is
    the id the flight recorder's [Txn_seal] records carry, so a crash
    dossier can name exactly which acked tickets died). *)
val ticket_id : ticket -> int

(** Sealed-to-durable latency of a drained ticket in simulated ns
    ([None] while still pending). *)
val ticket_latency_ns : ticket -> float option

(** Transactions sealed but not yet drained (the standing batch). *)
val group_pending : t -> int

(** Drain the standing batch now (also implied by {!await} on a
    pending ticket, {!write_direct}, {!sync}, window expiry, a
    same-block conflict, ring pressure and [group_max_batch]). *)
val group_flush : t -> unit

(** Ack-to-durable latency distribution (ns) across all drained
    tickets — the [fig_group] p50/p99 source. *)
val group_ack_to_durable : t -> Tinca_util.Histogram.t

(** {2 Group-committer runtime stats}

    Batches drained, drains split by cause (deadline / conflict /
    ring-pressure / max-batch / await / sync / barrier — the same cause
    vocabulary the flight recorder stamps on [Batch_drain] records) and
    the standing batch's population high-water mark.  All three also
    appear in {!stats_kv} as [group_*] keys (logging scheme). *)

val group_batches : t -> int
val group_drains_by_cause : t -> (string * int) list
val group_pending_high_water : t -> int

(** [tinca_abort]. *)
val abort : txn -> (unit, error) result

(** Read the newest committed (or cached) version of a block. *)
val read : t -> int -> (bytes, error) result

(** Single-block atomic write outside any transaction. *)
val write_direct : t -> int -> bytes -> (unit, error) result

(** Write all dirty blocks back to disk (decommissioning only; commits
    are already durable in NVM). *)
val sync : t -> unit

(** {1 Introspection} *)

val nshards : t -> int
val block_size : t -> int

(** ["logging"] or ["paging"]. *)
val scheme_name : t -> string

(** The cached content of a block without touching the disk or the
    replacement state — the crash checkers' post-recovery probe.
    Scheme-independent. *)
val peek : t -> int -> bytes option

val contains : t -> int -> bool

(** The underlying sharded logging layer — the one typed escape hatch
    below the facade, for the harness, the checkers and the benchmark.
    Raises [Invalid_argument] on a paging handle. *)
val shard : t -> Tinca_core.Shard.t

(** One layout per shard, for the persistence sanitizer's region
    classifier; [[]] on a paging handle (see {!page_layouts}). *)
val layouts : t -> Tinca_core.Layout.t list

(** One region layout per shard of a paging handle, for psan's paging
    region classifier; [[]] on a logging handle. *)
val page_layouts : t -> Tinca_core.Paging.region_layout list

(** Scheme-aware stats (ISSUE 10 satellite): the engine's own rows —
    logging media reports {!Tinca_core.Shard.stats_kv} plus the
    group-committer [group_*] keys; paging media reports the paging
    vocabulary ([table_swings], [pool_occupancy_pct], ...) with the
    logging-only rows (ring high water, role switches, group counters)
    {e absent}, not zero. *)
val stats_kv : t -> (string * string) list

(** Region-attributed NVM wear: [(region, total line write-backs, max
    on one line)].  Region names are scheme-specific (logging:
    superblock/pointers/ring/...; paging: super/epoch/table/pool/...). *)
val region_wear : t -> (string * int * int) list

val write_hit_rate : t -> float

(** Peak COW chain depth — a logging-pipeline concept; [0] under
    paging, which keeps no COW chain. *)
val peak_cow_blocks : t -> int

(** Cross-shard blocks-per-commit distribution (paper Fig 13). *)
val txn_size_histogram : t -> Tinca_util.Histogram.t

val check_invariants : t -> unit
