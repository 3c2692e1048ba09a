(* Crash sweep for the flight recorder (ISSUE 9).

   Two properties keep the recorder honest, and both are only provable
   by crashing with it on:

   1. Recovery-semantics pin — the recorder must be a pure observer.
      For every crash state, recovering the SAME crashed medium with
      flight replay on and with it off must yield bit-identical logical
      cache state (every block's content as seen through the cache).
      The media themselves legitimately diverge (replay-on recovery
      appends Recovery_start/Recovery_decision records), so the pin is
      on the logical state, not the medium digest.

   2. Dossier-vs-judge agreement — the dossier's acked-vs-survived
      verdict must match an independent oracle that tracked which
      transactions were acknowledged durable before the crash.  With
      the production committer the dossier must be Clean at every crash
      state (the serial-drain inference has no false positives: batch
      B+1's drain record only reaches the medium after batch B's Tail
      fence).  With the planted [`Drop_durable_notify] fault the
      dossier alone — no model checker, no oracle — must name the
      acked tickets that died ([drop_notify_scenario]).

   The sweep borrows crash_check's mechanics: every pmem event of a
   deterministic group-commit workload is a crash point (budgeted by
   [stride]), and each crash is resolved into a handful of survival
   subsets of the torn lines (the two corners plus seeded samples —
   the exhaustive subset walk is crash_check's job; this sweep needs
   breadth across protocol stages, not depth per crash). *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Shard = Tinca_core.Shard
module Forensics = Tinca_obs.Forensics
module Rng = Tinca_util.Rng

type config = {
  seed : int;
  ncommits : int;
  universe : int;  (** disk blocks the workload touches *)
  pmem_bytes : int;
  ring_slots : int;
  flight_slots : int;  (** per shard; must be > 0 for the sweep to mean anything *)
  nshards : int;
  window_ns : int;  (** group-commit window (> 0: async path) *)
  max_batch : int;
  samples : int;  (** survival subsets per crash point beyond the two corners *)
  first_event : int;
  stride : int;  (** explore every [stride]-th crash point *)
}

let default_config =
  {
    seed = 77;
    ncommits = 6;
    universe = 24;
    pmem_bytes = 384 * 1024;
    ring_slots = 64;
    flight_slots = 64;
    nshards = 1;
    window_ns = 1_000_000_000;
    max_batch = 3;
    samples = 2;
    first_event = 1;
    stride = 1;
  }

type report = {
  span : int;
  crash_points : int;
  states_checked : int;
  dossiers_built : int;  (** crash states whose recovery produced a dossier *)
  records_replayed : int;  (** surviving flight records across all dossiers *)
  violations : string list;  (** replay mismatches + verdict disagreements *)
}

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

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
    flight_slots = cfg.flight_slots;
    group_window_ns = cfg.window_ns;
    group_max_batch = cfg.max_batch;
  }

(* The deterministic group-commit workload plus its oracle: [durable]
   maps a block to the fill byte of its last ACKNOWLEDGED-DURABLE write
   (folded in from the on_durable callback, i.e. exactly when the facade
   acks); [sealed] additionally folds writes whose commit_async
   returned; [current] holds the in-flight transaction's writes from
   just before its commit_async until the call returns — a drain
   triggered INSIDE that call (max-batch, ring pressure) seals and
   commits the transaction before the workload can fold it, so a crash
   mid-call may recover its writes.  At any crash the recovered state
   must match [durable] (standing batch lost), [sealed] (standing batch
   committed whole) or [sealed]+[current] (committed including the
   mid-call transaction) — batch atomicity admits no other image. *)
let fresh cfg env =
  let t =
    Tinca.ok_exn
      (Tinca.format ~config:(tinca_config cfg) ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
         ~metrics:env.metrics)
  in
  let durable = Hashtbl.create 64 and sealed = Hashtbl.create 64 in
  let current = ref [] in
  let workload () =
    let rng = Rng.create cfg.seed in
    for _ = 1 to cfg.ncommits do
      let n = 1 + Rng.int rng 3 in
      let txn = Tinca.init_txn t in
      let writes =
        List.init n (fun _ -> (Rng.int rng cfg.universe, Char.chr (1 + Rng.int rng 255)))
      in
      List.iter (fun (b, v) -> Tinca.ok_exn (Tinca.write txn b (Bytes.make 4096 v))) writes;
      current := writes;
      let tk = Tinca.ok_exn (Tinca.commit_async txn) in
      current := [];
      List.iter (fun (b, v) -> Hashtbl.replace sealed b v) writes;
      Tinca.on_durable tk (fun () ->
          List.iter (fun (b, v) -> Hashtbl.replace durable b v) writes)
    done;
    Tinca.group_flush t
  in
  (workload, durable, sealed, current)

(* Span of the crash-free workload (events after format), so armed
   countdowns in [1, span] always fire. *)
let total_events cfg =
  let env = mk_env cfg in
  let workload, _, _, _ = fresh cfg env in
  let before = Pmem.event_count env.pmem in
  workload ();
  Pmem.event_count env.pmem - before

(* --- post-crash evaluation ---------------------------------------------- *)

let logical_block shard disk blk =
  match Shard.peek shard blk with Some data -> data | None -> Disk.read_block disk blk

(* One digest over every block's recovered logical content — the value
   the recorder on/off pin compares. *)
let logical_digest shard env universe =
  let buf = Buffer.create (universe * 4096) in
  for blk = 0 to universe - 1 do
    Buffer.add_bytes buf (logical_block shard env.disk blk)
  done;
  Digest.string (Buffer.contents buf)

(* [] when every block carries its table fill byte, else the mismatches
   as [(blk, expected, got)] — got is the block's first byte ('?' for a
   mixed block, which the fill-byte workload never legitimately makes). *)
let mismatches shard env universe table =
  let out = ref [] in
  for blk = universe - 1 downto 0 do
    let expect = match Hashtbl.find_opt table blk with Some v -> v | None -> '\000' in
    let data = logical_block shard env.disk blk in
    let first = Bytes.get data 0 in
    let uniform = ref true in
    Bytes.iter (fun c -> if c <> first then uniform := false) data;
    if (not !uniform) || first <> expect then
      out := (blk, expect, if !uniform then first else '?') :: !out
  done;
  !out

(* Evaluate one post-crash medium.  Returns (violations, dossier option). *)
let check_state cfg env ~durable ~sealed ~current =
  let snap = Pmem.snapshot env.pmem in
  match
    Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
  with
  | Error e -> ([ Printf.sprintf "recovery (replay on) failed: %s" (Tinca.error_message e) ], None)
  | exception e ->
      ([ Printf.sprintf "recovery (replay on) raised %s" (Printexc.to_string e) ], None)
  | Ok t_on -> (
      let errs = ref [] in
      let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
      (try Shard.check_invariants (Tinca.shard t_on)
       with e -> err "invariant audit (replay on) raised %s" (Printexc.to_string e));
      let d_on = logical_digest (Tinca.shard t_on) env cfg.universe in
      (* Judge: recovered state must be the acked image or the acked
         image plus the whole standing batch. *)
      let m_durable = mismatches (Tinca.shard t_on) env cfg.universe durable in
      let m_sealed = mismatches (Tinca.shard t_on) env cfg.universe sealed in
      (if m_durable <> [] && m_sealed <> [] then
         (* Third candidate: the transaction whose commit_async the
            crash interrupted was sealed AND drained inside the call. *)
         let with_current = Hashtbl.copy sealed in
         List.iter (fun (b, v) -> Hashtbl.replace with_current b v) current;
         let m_current = mismatches (Tinca.shard t_on) env cfg.universe with_current in
         if m_current <> [] then
           let show (b, e, g) =
             Printf.sprintf "blk %d exp %d got %d" b (Char.code e) (Char.code g)
           in
           err
             "recovered state matches no candidate image: vs acked (%s); vs acked+batch (%s); vs \
              acked+batch+in-flight (%s)"
             (String.concat "; " (List.map show m_durable))
             (String.concat "; " (List.map show m_sealed))
             (String.concat "; " (List.map show m_current)));
      let dossier = Tinca.last_crash_report t_on in
      (* No fault planted: the committer never acked without durability,
         so a Dead_acked verdict would be a false conviction — and it
         must agree with the judge, which just checked that every acked
         write survived. *)
      (match dossier with
      | Some d -> (
          match Forensics.verdict d with
          | `Clean -> ()
          | `Dead_acked dead ->
              err "dossier convicted %d ticket(s) on a fault-free run (first: shard %d batch %d)"
                (List.length dead)
                (match dead with (s, _, _) :: _ -> s | [] -> -1)
                (match dead with (_, b, _) :: _ -> b | [] -> -1))
      | None -> ());
      (* The pin: same crashed medium, replay off -> identical logical
         state. *)
      Pmem.restore env.pmem snap;
      match
        Shard.recover ~flight_replay:false ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
          ~metrics:env.metrics ()
      with
      | exception e -> (
          err "recovery (replay off) raised %s" (Printexc.to_string e);
          (List.rev !errs, dossier))
      | shard_off ->
          let d_off = logical_digest shard_off env cfg.universe in
          if d_on <> d_off then
            err "replay on/off recovered DIFFERENT logical states (recorder is not a pure observer)";
          (List.rev !errs, dossier))

(* --- the sweep ----------------------------------------------------------- *)

let sweep ?(progress = fun (_ : int) (_ : int) -> ()) cfg =
  if cfg.stride < 1 then invalid_arg "Flight_check.sweep: stride must be >= 1";
  if cfg.flight_slots <= 0 then invalid_arg "Flight_check.sweep: flight_slots must be > 0";
  let span = total_events cfg in
  let sample_rng = Rng.create (cfg.seed + 17) in
  let masks = Survival.create () in
  let survive = Survival.survive masks in
  let crash_points = ref 0 in
  let states_checked = ref 0 in
  let dossiers_built = ref 0 in
  let records_replayed = ref 0 in
  let violations = ref [] in
  let k = ref cfg.first_event in
  while !k <= span do
    let crash_at = !k in
    progress crash_at span;
    let env = mk_env cfg in
    let workload, durable, sealed, current = fresh cfg env in
    Pmem.set_crash_countdown env.pmem (Some crash_at);
    (match workload () with
    | () ->
        failwith
          (Printf.sprintf "Flight_check: countdown %d did not fire within span %d" crash_at span)
    | exception Pmem.Crash_point ->
        incr crash_points;
        let torn = Pmem.torn_lines env.pmem in
        let d = Array.length torn in
        let snap = Pmem.snapshot env.pmem in
        (* Two corners plus seeded samples; a mask equal to one already
           explored here gives the same medium (Survival), so skip it. *)
        let n = min cfg.samples (max 0 ((1 lsl min d 20) - 2)) in
        Survival.start masks torn;
        Survival.sample masks sample_rng ~n ~newest_first:false;
        for i = 0 to n + 1 do
          if not (Survival.seen masks i) then begin
            Survival.set_slot masks i;
            Pmem.restore env.pmem snap;
            Pmem.crash_select env.pmem ~survive;
            incr states_checked;
            let errs, dossier = check_state cfg env ~durable ~sealed ~current:!current in
            (match dossier with
            | Some d ->
                incr dossiers_built;
                records_replayed := !records_replayed + d.Forensics.record_count
            | None -> ());
            List.iter
              (fun m -> violations := Printf.sprintf "crash@event %d: %s" crash_at m :: !violations)
              errs
          end
        done);
    k := !k + cfg.stride
  done;
  {
    span;
    crash_points = !crash_points;
    states_checked = !states_checked;
    dossiers_built = !dossiers_built;
    records_replayed = !records_replayed;
    violations = List.rev !violations;
  }

(* --- the planted lost-ack scenario --------------------------------------- *)

(* Run >= 2 group drains under [`Drop_durable_notify] (batches publish,
   the facade acks durability, but no batch is ever sealed or
   finalized), crash, recover — and require the DOSSIER ALONE to name
   the acked tickets of every non-final batch.  (The newest batch is
   structurally indistinguishable from a legitimate crash window; the
   inference convicts exactly the batches some later drain proves were
   passed over.)  Every transaction writes one block per shard, so each
   batch drains on every shard and the second batch's drain evidence
   convicts the first on all of them — with fewer shards touched the
   per-shard inference would (correctly) leave untouched shards'
   members unconvicted. *)
let drop_notify_scenario cfg =
  let env = mk_env cfg in
  let t =
    Tinca.ok_exn
      (Tinca.format ~config:(tinca_config cfg) ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
         ~metrics:env.metrics)
  in
  let first_batch = ref [] in
  Shard.set_fault (Some `Drop_durable_notify);
  Fun.protect
    ~finally:(fun () -> Shard.set_fault None)
    (fun () ->
      (* Two full batches of [max_batch] txns on distinct blocks (no
         conflict drains), drained by the max-batch trigger; each txn
         writes [nshards] consecutive blocks so it stripes across every
         shard. *)
      if 2 * cfg.max_batch * cfg.nshards > cfg.universe then
        invalid_arg "Flight_check.drop_notify_scenario: universe too small for the batches";
      for i = 0 to (2 * cfg.max_batch) - 1 do
        let txn = Tinca.init_txn t in
        for s = 0 to cfg.nshards - 1 do
          Tinca.ok_exn
            (Tinca.write txn ((i * cfg.nshards) + s) (Bytes.make 4096 (Char.chr (65 + i))))
        done;
        let tk = Tinca.ok_exn (Tinca.commit_async txn) in
        if i < cfg.max_batch then first_batch := Tinca.ticket_id tk :: !first_batch
      done);
  (* Every ticket was acked durable (the fault's signature), yet nothing
     carries a Tail record.  Crash with full survival: everything the
     faulty committer fenced is on the medium — the best case for the
     bug to hide in. *)
  Pmem.crash_select env.pmem ~survive:(fun _ -> true);
  match Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics with
  | Error e -> Error (Printf.sprintf "recovery failed: %s" (Tinca.error_message e))
  | Ok t2 -> (
      match Tinca.last_crash_report t2 with
      | None -> Error "no dossier: flight ring absent or empty"
      | Some dossier -> (
          match Forensics.verdict dossier with
          | `Clean -> Error "dossier verdict Clean: the planted Drop_durable_notify went uncaught"
          | `Dead_acked dead ->
              let convicted = List.map (fun (_, _, tk) -> tk) dead in
              let missing =
                List.filter (fun tk -> not (List.mem tk convicted)) !first_batch
              in
              if missing <> [] then
                Error
                  (Printf.sprintf "dossier missed acked ticket(s) %s of the first dead batch"
                     (String.concat "," (List.map string_of_int missing)))
              else Ok dossier))

let report_table r =
  let t = Tinca_util.Tabular.create ~title:"Flight-recorder crash sweep" [ "metric"; "value" ] in
  let add k v = Tinca_util.Tabular.add_row t [ k; v ] in
  add "pmem events in workload (span)" (string_of_int r.span);
  add "crash points explored" (string_of_int r.crash_points);
  add "post-crash states checked" (string_of_int r.states_checked);
  add "dossiers built" (string_of_int r.dossiers_built);
  add "flight records replayed" (string_of_int r.records_replayed);
  add "violations" (string_of_int (List.length r.violations));
  t
