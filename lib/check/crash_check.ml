(* Exhaustive crash-space model checker for the Tinca commit protocol.

   The torture tests in test/test_crash.ml sweep every pmem event as a
   crash point but resolve each crash with *randomly sampled* cache-line
   survival outcomes, so low-probability torn states go untested.  This
   checker closes that gap: for a deterministic workload it enumerates
   every pmem event as a crash point and, at each crash, walks the
   survival subsets of the unfenced cache lines *exhaustively* — all 2^d
   torn media images — rather than sampling them.

   The subset space is the d lines of [Pmem.torn_lines]: lines whose
   volatile content equals their durable backup are dropped (their
   survival cannot change the medium), which is what keeps d small at
   most crash points given the protocol's own fencing.  Every torn line
   gives a different medium when it survives than when it is lost, and
   the lines are disjoint, so two survival masks give the same medium
   exactly when they are equal.  Deduplication is therefore exact mask
   comparison (Survival), never a digest of the medium: an exhaustive
   enumeration has nothing to deduplicate, and at a sampled point a
   drawn mask that repeats a corner or an earlier draw is counted in
   [states_deduped] and not recovered again.

   When 2^d still exceeds the configured cap (typically inside a torn
   4 KB data-block store, d = 64), the checker falls back to a *seeded
   sample* of the subset space that always includes the all-lost and
   all-survive corners, and reports "explored X of Y" via Logs and the
   final report instead of truncating silently.  A survival subset costs
   only its recovery and judge: it is an [int] (exhaustive points) or a
   slot of one reused byte buffer (sampled points), and resolving it on
   the restored snapshot allocates nothing.

   Every explored state must pass three gates:
   1. Tinca.recover succeeds — the facade discriminates the commit
      scheme (logging ring vs. paging indirection table) from the media
      magic, so the same sweep covers both schemes;
   2. Tinca.check_invariants holds on the recovered engine (per-cache
      audit plus: the cross-shard seal must be clear);
   3. the prefix-consistency oracle: the recovered logical state
      (cache overlaying disk, full block content) equals the state as of
      the last acknowledged commit, or that state with the in-flight
      transaction fully applied — never a partial mix.

   With [nshards > 1] the workload's multi-block transactions stripe
   across shards, so the sweep covers every crash point of the striped
   commit scheduler — in particular the window between one shard's Head
   advance and the next, and either side of the cross-shard seal — and
   gate 3 doubles as the all-or-nothing oracle for multi-shard
   transactions: a recovered state where one shard's sub-commit is
   visible and another's is not matches neither the pre-txn nor the
   post-txn image and is flagged. *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

let log_src = Logs.Src.create "tinca.check" ~doc:"Tinca crash-space model checker"

module Log = (val Logs.src_log log_src : Logs.LOG)

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

let default_config =
  {
    seed = 2024;
    ncommits = 6;
    universe = 48;
    pmem_bytes = 160 * 1024 (* ~30 data blocks: forces evictions *);
    ring_slots = 64;
    mask_cap = 256;
    sample_seed = 1;
    first_event = 1;
    stride = 1;
    nshards = 1;
    scheme = Tinca.Config.Logging Tinca.Batched;
  }

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
  states_deduped : int;  (** sampled subsets equal to one already explored at their point *)
  subsets_total : float;  (** Σ 2^d over crash points (the full space) *)
  capped_points : int;  (** crash points where the cap forced sampling *)
  max_torn_lines : int;  (** largest d encountered *)
  violations : violation list;
}

(* --- deterministic workload -------------------------------------------- *)

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

(* A pluggable workload + oracle.  [fresh env] formats the media and
   returns the workload thunk (run until it finishes or the armed crash
   countdown fires) and the judge applied to every recovered shard.
   The default driver below is the original fill-byte workload with the
   prefix-consistency oracle; Lockstep supplies a command-sequence
   workload whose judge is full spec refinement. *)
type driver = { fresh : env -> (unit -> unit) * (Tinca.t -> (unit, string) result) }

let mk_env cfg =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem =
    Pmem.create ~seed:(cfg.seed + 1) ~clock ~metrics ~tech:Latency.Pcm ~size:cfg.pmem_bytes ()
  in
  let disk =
    Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:cfg.universe ~block_size:4096
  in
  { pmem; disk; clock; metrics }

let tinca_config cfg =
  {
    Tinca.Config.default with
    Tinca.Config.nvm_bytes = cfg.pmem_bytes;
    ring_slots = cfg.ring_slots;
    nshards = cfg.nshards;
    commit_scheme = cfg.scheme;
  }

(* The workload of test_crash.ml: [ncommits] transactions of 1..4 blocks
   with repeated block choices (exercising COW write hits) and occasional
   reads mixed in.  [oracle] maps a disk block to the fill byte of its
   last acknowledged committed write; [pending] holds the in-flight
   transaction's writes (folded into [oracle] only once commit returns,
   i.e. once the transaction is acknowledged). *)
let run_workload cfg tc oracle pending =
  let rng = Tinca_util.Rng.create cfg.seed in
  for _txn = 1 to cfg.ncommits do
    let n = 1 + Tinca_util.Rng.int rng 4 in
    let h = Tinca.init_txn tc in
    Hashtbl.reset pending;
    for _ = 1 to n do
      let blk = Tinca_util.Rng.int rng cfg.universe in
      let v = Char.chr (Tinca_util.Rng.int rng 256) in
      Tinca.ok_exn (Tinca.write h blk (Bytes.make 4096 v));
      Hashtbl.replace pending blk v
    done;
    if Tinca_util.Rng.chance rng 0.3 then
      ignore (Tinca.read tc (Tinca_util.Rng.int rng cfg.universe));
    Tinca.ok_exn (Tinca.commit h);
    Hashtbl.iter (fun blk v -> Hashtbl.replace oracle blk v) pending;
    Hashtbl.reset pending
  done

let mk_tinca cfg env =
  Tinca.ok_exn
    (Tinca.format ~config:(tinca_config cfg) ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
       ~metrics:env.metrics)

(* Events of a crash-free run, so the sweep covers the whole span.
   [fresh] formats the media before we start counting, matching the
   sweep loop (crash points fall inside the workload only). *)
let total_events driver cfg =
  let env = mk_env cfg in
  let workload, _judge = driver.fresh env in
  let before = Pmem.event_count env.pmem in
  workload ();
  Pmem.event_count env.pmem - before

(* --- the prefix-consistency oracle ------------------------------------- *)

(* Logical content of [blk] after recovery: cache version if cached, else
   the disk's.  Full 4 KB compared, so a torn data block that recovery
   wrongly exposes is caught even when its first byte happens to match. *)
let logical_block tc disk blk =
  match Tinca.peek tc blk with Some data -> data | None -> Disk.read_block disk blk

(* Every byte of [data] is [c]: compared a 64-bit word at a time. *)
let all_fill data c =
  let w = Int64.mul 0x0101010101010101L (Int64.of_int (Char.code c)) in
  let n = Bytes.length data in
  let i = ref 0 in
  while !i + 8 <= n && Int64.equal (Bytes.get_int64_le data !i) w do
    i := !i + 8
  done;
  while !i < n && Bytes.get data !i = c do
    incr i
  done;
  !i = n

let fill_of table blk = match Hashtbl.find_opt table blk with Some v -> v | None -> '\000'

(* The default judge: prefix consistency over the fill-byte oracle
   tables the default workload maintains.  One pass reads each block
   once and holds it against both candidate images — the last
   acknowledged commit ([oracle]) and, when a transaction is in flight,
   that commit with [pending] fully applied — stopping once neither can
   match.  The first block that breaks the pre-txn image names the
   violation. *)
let prefix_judge env cfg oracle pending recovered =
  let ok_old = ref true and ok_new = ref (Hashtbl.length pending > 0) in
  let first_bad = ref None in
  let blk = ref 0 in
  while (!ok_old || !ok_new) && !blk < cfg.universe do
    let data = logical_block recovered env.disk !blk in
    let old_v = fill_of oracle !blk in
    if !ok_old && not (all_fill data old_v) then begin
      ok_old := false;
      first_bad := Some (!blk, old_v, data)
    end;
    let new_v = match Hashtbl.find_opt pending !blk with Some v -> v | None -> old_v in
    if !ok_new && not (all_fill data new_v) then ok_new := false;
    incr blk
  done;
  if !ok_old || !ok_new then Ok ()
  else
    Error
      (match !first_bad with
      | Some (blk, expect, data) ->
          Printf.sprintf
            "prefix consistency: block %d is %C (expected %C pre-txn%s) — recovered \
             state matches neither the last acknowledged commit nor the in-flight \
             commit fully applied"
            blk (Bytes.get data 0) expect
            (match Hashtbl.find_opt pending blk with
            | Some v -> Printf.sprintf ", %C post-txn" v
            | None -> "")
      | None -> "prefix consistency: post-txn image is a partial mix")

let default_driver cfg =
  {
    fresh =
      (fun env ->
        let tc = mk_tinca cfg env in
        let oracle = Hashtbl.create 64 and pending = Hashtbl.create 8 in
        ( (fun () -> run_workload cfg tc oracle pending),
          prefix_judge env cfg oracle pending ));
  }

(* Run the three gates on the current (post-crash) medium.  Recovery goes
   through the facade, which sniffs the scheme from the media magic. *)
let check_state env judge =
  match Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics with
  | exception e -> Error (Printf.sprintf "recovery raised %s" (Printexc.to_string e))
  | Error e -> Error (Printf.sprintf "recovery failed: %s" (Tinca.error_message e))
  | Ok recovered -> (
      match Tinca.check_invariants recovered with
      | exception e -> Error (Printf.sprintf "invariant audit raised %s" (Printexc.to_string e))
      | () -> judge recovered)

(* --- the sweep ---------------------------------------------------------- *)

(* At each crash point: all 2^d survival subsets of the d torn lines when
   that fits the cap, as [int] masks 0 .. 2^d - 1; otherwise the all-lost
   and all-survive corners followed by [mask_cap - 2] masks drawn from
   [sample_rng], newest draw first.  A sampled mask equal to one already
   explored at this point gives the same medium, so it is counted as
   deduplicated instead of recovered again. *)
let explore ?(progress = fun (_ : int) (_ : int) -> ()) ?driver cfg =
  if cfg.stride < 1 then invalid_arg "Crash_check.explore: stride must be >= 1";
  if cfg.first_event < 1 then invalid_arg "Crash_check.explore: first_event must be >= 1";
  let driver = match driver with Some d -> d | None -> default_driver cfg in
  let span = total_events driver cfg in
  let sample_rng = Tinca_util.Rng.create cfg.sample_seed in
  let masks = Survival.create () in
  let survive = Survival.survive masks in
  let crash_points = ref 0 in
  let states_checked = ref 0 in
  let states_deduped = ref 0 in
  let subsets_total = ref 0.0 in
  let capped_points = ref 0 in
  let max_torn = ref 0 in
  let violations = ref [] in
  let k = ref cfg.first_event in
  while !k <= span do
    let crash_at = !k in
    progress crash_at span;
    let env = mk_env cfg in
    let workload, judge = driver.fresh env in
    Pmem.set_crash_countdown env.pmem (Some crash_at);
    (match workload () with
    | () ->
        (* [span] counts exactly the workload's events, so every armed
           countdown in [1, span] must fire. *)
        failwith
          (Printf.sprintf "Crash_check: countdown %d did not fire within span %d" crash_at span)
    | exception Pmem.Crash_point ->
        incr crash_points;
        (* Only torn lines span distinct media images; everything else is
           fixed. *)
        let torn = Pmem.torn_lines env.pmem in
        let d = Array.length torn in
        if d > !max_torn then max_torn := d;
        Survival.start masks torn;
        let snap = Pmem.snapshot env.pmem in
        let full = 2.0 ** float_of_int d in
        subsets_total := !subsets_total +. full;
        let exhaustive = d <= 29 && 1 lsl d <= cfg.mask_cap in
        let explored = if exhaustive then 1 lsl d else 2 + max 0 (cfg.mask_cap - 2) in
        if exhaustive then
          Log.debug (fun m ->
              m "crash point %d/%d: %d torn lines; exploring all %d survival subsets" crash_at
                span d explored)
        else begin
          Survival.sample masks sample_rng ~n:(explored - 2) ~newest_first:true;
          incr capped_points;
          Log.info (fun m ->
              m "crash point %d/%d: %d torn lines; exploring %d of %.0f survival subsets \
                 (seeded sample, cap %d)"
                crash_at span d explored full cfg.mask_cap)
        end;
        let run_state () =
          Pmem.restore env.pmem snap;
          Pmem.crash_select env.pmem ~survive;
          incr states_checked;
          match check_state env judge with
          | Ok () -> ()
          | Error message ->
              let surviving, lost = Survival.partition masks in
              violations := { crash_event = crash_at; surviving; lost; message } :: !violations
        in
        for i = 0 to explored - 1 do
          if exhaustive then begin
            Survival.set_bits masks i;
            run_state ()
          end
          else if Survival.seen masks i then incr states_deduped
          else begin
            Survival.set_slot masks i;
            run_state ()
          end
        done);
    k := !k + cfg.stride
  done;
  {
    span;
    crash_points = !crash_points;
    states_checked = !states_checked;
    states_deduped = !states_deduped;
    subsets_total = !subsets_total;
    capped_points = !capped_points;
    max_torn_lines = !max_torn;
    violations = List.rev !violations;
  }

let pp_violation ppf v =
  let lines l = String.concat "," (List.map string_of_int l) in
  Format.fprintf ppf "crash@@event %d survived=[%s] lost=[%s]: %s" v.crash_event
    (lines v.surviving) (lines v.lost) v.message

let report_table r =
  let t = Tinca_util.Tabular.create ~title:"Crash-space exploration" [ "metric"; "value" ] in
  let add k v = Tinca_util.Tabular.add_row t [ k; v ] in
  add "pmem events in workload (span)" (string_of_int r.span);
  add "crash points explored" (string_of_int r.crash_points);
  add "survival-subset space (sum 2^d)" (Printf.sprintf "%.0f" r.subsets_total);
  add "post-crash states checked" (string_of_int r.states_checked);
  add "states deduped (identical media)" (string_of_int r.states_deduped);
  add "crash points capped (sampled)" (string_of_int r.capped_points);
  add "max torn lines at one crash" (string_of_int r.max_torn_lines);
  add "violations" (string_of_int (List.length r.violations));
  t
