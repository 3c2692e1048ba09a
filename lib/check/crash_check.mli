(** Exhaustive crash-space model checker for the Tinca commit protocol.

    The crash-torture suite (test/test_crash.ml) sweeps every pmem event
    as a crash point but resolves each crash with randomly sampled
    cache-line survival outcomes.  This checker instead enumerates, at
    every crash point of a deterministic workload, {e all} survival
    subsets of the lines that are both unfenced and torn (volatile
    content differs from the durable backup, {!Tinca_pmem.Pmem.torn_lines})
    — the full set of media images the adversarial crash model can
    produce — and runs recovery plus two oracles on each.  Two subsets of
    torn lines give the same medium exactly when they are equal, so
    repeated images are recognised by comparing survival masks
    ({!Survival}), never by hashing the medium.  The oracles:

    - {!Tinca.check_invariants} on the recovered engine (per-cache audit
      plus the cross-shard seal);
    - prefix consistency: the recovered logical state equals the state
      as of the last acknowledged commit, or that state with the
      in-flight commit fully applied (full 4 KB block compare) — never a
      partial mix.

    With [nshards > 1] the same sweep covers the striped commit
    scheduler: transactions stripe across shards, so crash points fall
    between per-shard Head advances and on either side of the
    cross-shard seal, and the prefix oracle doubles as the all-or-
    nothing check for multi-shard transactions.

    The workload drives the {!Tinca} facade and recovery goes through
    {!Tinca.recover}, which discriminates the commit scheme from the
    media magic — so setting {!config.scheme} to [Paging] sweeps the
    paging engine's indirection-table protocol with the same oracles.

    When the subset count 2^d at a crash point exceeds [mask_cap], the
    checker falls back to a seeded sample (always containing the
    all-lost and all-survive corners) and reports the shortfall both via
    [Logs] and in {!report.capped_points} — coverage loss is never
    silent. *)

type config = {
  seed : int;  (** workload RNG seed *)
  ncommits : int;  (** transactions in the workload *)
  universe : int;  (** disk blocks the workload touches *)
  pmem_bytes : int;  (** NVM size; small enough to force evictions *)
  ring_slots : int;
  mask_cap : int;  (** max survival subsets explored per crash point *)
  sample_seed : int;  (** seed for the capped-sampling fallback *)
  first_event : int;  (** first crash point (1-based), for sub-range sweeps *)
  stride : int;  (** explore every [stride]-th crash point *)
  nshards : int;  (** shards the device is partitioned into *)
  scheme : Tinca.Config.scheme;  (** commit scheme the sweep drives *)
}

(** seed 2024, 6 commits, universe 48, 160 KB NVM, 64 ring slots,
    mask cap 256, full sweep (first_event 1, stride 1), 1 shard,
    logging scheme. *)
val default_config : config

(** The simulated world one sweep iteration lives in; geometry comes
    from {!config} ([pmem_bytes], [universe] disk blocks). *)
type env = {
  pmem : Tinca_pmem.Pmem.t;
  disk : Tinca_blockdev.Disk.t;
  clock : Tinca_sim.Clock.t;
  metrics : Tinca_sim.Metrics.t;
}

(** A pluggable workload + oracle pair.  [fresh env] formats the media
    (so crash points fall inside the workload only) and returns the
    workload thunk together with the judge run on every recovered
    facade (after {!Tinca.check_invariants}).  The judge's [Error]
    message becomes the violation text. *)
type driver = {
  fresh : env -> (unit -> unit) * (Tinca.t -> (unit, string) result);
}

(** The original deterministic fill-byte workload with the
    prefix-consistency oracle. *)
val default_driver : config -> driver

type violation = {
  crash_event : int;  (** the pmem event the crash replaced *)
  surviving : int list;  (** torn lines whose new content reached the medium *)
  lost : int list;  (** torn lines rolled back to their durable content *)
  message : string;
}

type report = {
  span : int;  (** pmem events in the crash-free workload run *)
  crash_points : int;  (** crash points explored *)
  states_checked : int;  (** recovery + invariants + oracle executions *)
  states_deduped : int;
      (** sampled subsets equal to one already explored at their crash
          point (so giving an already-seen medium) *)
  subsets_total : float;  (** sum of 2^d over crash points (the full space) *)
  capped_points : int;  (** crash points where the cap forced sampling *)
  max_torn_lines : int;  (** largest d encountered *)
  violations : violation list;
}

(** [explore cfg] runs the sweep.  [progress crash_at span] is invoked
    before each crash point (for CLI progress display).  [driver]
    (default {!default_driver}) supplies the workload and the oracle —
    {!Lockstep} passes a command-sequence driver whose judge is full
    spec refinement.  Raises only on misconfiguration
    ([Invalid_argument]) or an internal checker error; protocol bugs are
    returned as {!report.violations}. *)
val explore : ?progress:(int -> int -> unit) -> ?driver:driver -> config -> report

val pp_violation : Format.formatter -> violation -> unit

(** Render the report's headline numbers for the experiment harness. *)
val report_table : report -> Tinca_util.Tabular.t
