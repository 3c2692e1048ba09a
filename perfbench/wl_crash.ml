module CC = Tinca_checker.Crash_check
module Clock = Tinca_sim.Clock
module Metrics = Tinca_sim.Metrics
module Latency = Tinca_sim.Latency
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Rng = Tinca_util.Rng

type params = {
  sweeps : int;
  ncommits : int;
  mask_cap : int;
  stride : int;
  ref_commits : int;
  plant_corruption : bool;
}

let default = { sweeps = 6; ncommits = 2; mask_cap = 4; stride = 5; ref_commits = 3000; plant_corruption = false }
let small = { sweeps = 1; ncommits = 1; mask_cap = 4; stride = 25; ref_commits = 200; plant_corruption = false }

(* The fill-byte workload's shape under [seed]: per transaction, its
   block count and whether a read rides along — the default driver's
   RNG draws, replayed without a device. *)
let shape ~seed ~ncommits ~universe =
  let rng = Rng.create seed in
  List.init ncommits (fun _ ->
      let n = 1 + Rng.int rng 4 in
      for _ = 1 to n do
        ignore (Rng.int rng universe);
        ignore (Rng.int rng 256)
      done;
      let read = Rng.chance rng 0.3 in
      if read then ignore (Rng.int rng universe);
      (n, read))

(* Swept workloads all have one shape — transactions of 2, 3, 2, 3, ...
   blocks and no reads — so seeds vary block choice and fill bytes, not
   the amount of work per crash point.  Candidate workload seeds are
   [seed * 100_000 + j], taken in order.  The first [candidates] are
   always examined (only a rare seed needs more), so the set-up's work
   does not depend on where the matches fall. *)
let candidates = 2048

let inputs p ~seed =
  let base = CC.default_config in
  let target = List.init p.ncommits (fun i -> ((if i mod 2 = 0 then 2 else 3), false)) in
  let rec pick j acc =
    if List.length acc >= p.sweeps && j >= candidates then List.filteri (fun i _ -> i < p.sweeps) (List.rev acc)
    else begin
      let s = (seed * 100_000) + j in
      let acc = if shape ~seed:s ~ncommits:p.ncommits ~universe:base.CC.universe = target then s :: acc else acc in
      pick (j + 1) acc
    end
  in
  List.mapi
    (fun i s ->
      {
        base with
        CC.seed = s;
        ncommits = p.ncommits;
        mask_cap = p.mask_cap;
        stride = p.stride;
        sample_seed = seed + i;
        nshards = 1;
        scheme = Tinca.Config.Logging Tinca.Batched;
      })
    (pick 0 [])

(* The checker's own environment and engine geometry for [cfg]. *)
let mk_env (cfg : CC.config) =
  let clock = Clock.create () and metrics = Metrics.create () in
  let pmem = Pmem.create ~seed:(cfg.CC.seed + 1) ~clock ~metrics ~tech:Latency.Pcm ~size:cfg.CC.pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:cfg.CC.universe ~block_size:4096 in
  { CC.pmem; disk; clock; metrics }

let tinca_config (cfg : CC.config) =
  { Tinca.Config.default with
    Tinca.Config.nvm_bytes = cfg.CC.pmem_bytes;
    ring_slots = cfg.CC.ring_slots;
    nshards = cfg.CC.nshards;
    commit_scheme = cfg.CC.scheme }

(* The default driver's fill-byte workload, step for step (same RNG
   draws in the same order), with sim timers around each commit and
   read.  [fill] is the oracle: the fill byte of each block's last
   acknowledged write. *)
let replay (cfg : CC.config) (env : CC.env) tc ~fill ~commit_sim ~read_sim ~on_read =
  let rng = Rng.create cfg.CC.seed in
  let user_bytes = ref 0 in
  for _ = 1 to cfg.CC.ncommits do
    let n = 1 + Rng.int rng 4 in
    let h = Tinca.init_txn tc in
    let pending = ref [] in
    for _ = 1 to n do
      let blk = Rng.int rng cfg.CC.universe in
      let v = Char.chr (Rng.int rng 256) in
      Tinca.ok_exn (Tinca.write h blk (Bytes.make 4096 v));
      pending := (blk, v) :: !pending
    done;
    if Rng.chance rng 0.3 then begin
      let blk = Rng.int rng cfg.CC.universe in
      let s0 = Clock.now_ns env.CC.clock in
      let r = Tinca.read tc blk in
      Samples.add read_sim (Clock.now_ns env.CC.clock -. s0);
      on_read blk r
    end;
    let s0 = Clock.now_ns env.CC.clock in
    Tinca.ok_exn (Tinca.commit h);
    Samples.add commit_sim (Clock.now_ns env.CC.clock -. s0);
    List.iter (fun (blk, v) -> fill.(blk) <- v) (List.rev !pending);
    user_bytes := !user_bytes + (4096 * n)
  done;
  !user_bytes

let fill_matches fill blk = function
  | Ok data -> Bytes.for_all (fun c -> c = fill.(blk)) data
  | Error _ -> false

let round ?(params = default) ~seed layer =
  let p = params in
  let h0 = Hclock.now_ns () in
  let cfgs = inputs p ~seed in
  let ref_cfg = { (List.hd cfgs) with CC.ncommits = p.ref_commits } in
  let h1 = Hclock.now_ns () in
  (* The reference replay's device, formatted before the sweeps. *)
  let env = mk_env ref_cfg in
  let tc =
    Tinca.ok_exn
      (Tinca.format ~config:(tinca_config ref_cfg) ~pmem:env.CC.pmem ~disk:env.CC.disk ~clock:env.CC.clock
         ~metrics:env.CC.metrics)
  in
  let h2 = Hclock.now_ns () in
  let op_host = Samples.create () in
  let sim_ns = ref 0.0 and wear_max = ref 0 in
  let counters = Hashtbl.create 32 in
  let fold_env (env : CC.env) =
    sim_ns := !sim_ns +. Clock.now_ns env.CC.clock;
    wear_max := max !wear_max (Pmem.wear_max env.CC.pmem);
    List.iter
      (fun (k, v) -> Hashtbl.replace counters k (v + Option.value ~default:0 (Hashtbl.find_opt counters k)))
      (Metrics.to_list env.CC.metrics)
  in
  let current = ref None in
  let retire () = Option.iter fold_env !current; current := None in
  let driver (cfg : CC.config) =
    let inner = CC.default_driver cfg in
    {
      CC.fresh =
        (fun env ->
          retire ();
          current := Some env;
          Layer.attach layer env.CC.pmem;
          let work, judge = inner.CC.fresh env in
          (work, fun tc -> Layer.time layer "check.judge" (fun () -> judge tc)));
    }
  in
  let last = ref nan in
  let progress _ _ =
    let now = Hclock.now_ns () in
    if not (Float.is_nan !last) then Samples.add op_host (now -. !last);
    last := now
  in
  (* Collect set-up garbage first: the measured phase pays for its own. *)
  Gc.full_major ();
  Layer.start layer;
  let w0 = Gc.minor_words () in
  let m0 = Hclock.now_ns () in
  let reports =
    List.map
      (fun cfg ->
        last := nan;
        let r = CC.explore ~progress ~driver:(driver cfg) cfg in
        Samples.add op_host (Hclock.now_ns () -. !last);
        retire ();
        r)
      cfgs
  in
  let host_ns = Hclock.now_ns () -. m0 in
  let minor_words = Gc.minor_words () -. w0 in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let points = sum (fun r -> r.CC.crash_points) in
  let states = sum (fun r -> r.CC.states_checked) in
  let capped = sum (fun r -> r.CC.capped_points) in
  let spans = Layer.stop layer ~ops:points ~sim_ns:!sim_ns in
  let layer_rows =
    if not (Layer.traced layer) then []
    else begin
      let f = float_of_int in
      let delta k = Option.value ~default:0 (Hashtbl.find_opt counters k) in
      spans
      @ Layer.counter_metrics ~delta ~ops:points ~commits:(delta "tinca.commits") ~wear_max:!wear_max
      @ [
          ("check.states_per_point", f states /. f (max 1 points));
          ("check.states_per_s", f states /. (host_ns /. 1e9));
          ("check.capped_points", f capped);
          ("check.states_deduped", f (sum (fun r -> r.CC.states_deduped)));
          ("check.max_torn_lines", f (List.fold_left (fun acc r -> max acc r.CC.max_torn_lines) 0 reports));
          ("check.exhaustive_frac", f (points - capped) /. f (max 1 points));
          ("shard.lane_imbalance", 1.0);
        ]
    end
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun r ->
      List.iter (fun v -> problem "crash-space violation: %s" (Format.asprintf "%a" CC.pp_violation v)) r.CC.violations)
    reports;
  (* The reference replay: sim per-call timers, then crash, recover and
     read every block back.  It must leave the medium and clock exactly
     as the default driver's own workload does. *)
  let golden = mk_env ref_cfg in
  let work, _judge = (CC.default_driver ref_cfg).CC.fresh golden in
  work ();
  let fill = Array.make ref_cfg.CC.universe '\000' in
  let commit_sim = Samples.create ~capacity:p.ref_commits () and read_sim = Samples.create () in
  let stale = ref 0 in
  let wb0 = Metrics.get env.CC.metrics "pmem.clflush_writebacks" in
  let user_bytes =
    replay ref_cfg env tc ~fill ~commit_sim ~read_sim ~on_read:(fun blk r ->
        if not (fill_matches fill blk r) then incr stale)
  in
  let writebacks = Metrics.get env.CC.metrics "pmem.clflush_writebacks" - wb0 in
  if !stale > 0 then problem "%d replay reads returned stale or wrong data" !stale;
  if Pmem.media_digest env.CC.pmem <> Pmem.media_digest golden.CC.pmem
     || Clock.now_ns env.CC.clock <> Clock.now_ns golden.CC.clock
  then problem "the reference replay diverged from the default driver's workload";
  if p.plant_corruption then fill.(0) <- Char.chr (Char.code fill.(0) lxor 0xff);
  let read_back label tc =
    let bad = ref 0 in
    for blk = 0 to ref_cfg.CC.universe - 1 do
      if not (fill_matches fill blk (Tinca.read tc blk)) then incr bad
    done;
    if !bad > 0 then problem "%s: %d of %d blocks differ from the oracle" label !bad ref_cfg.CC.universe
  in
  (* A last fill-byte transaction with a crash armed at a seed-chosen
     pmem event inside it (or, for late draws, just after it). *)
  let cut_short () =
    let rng = Rng.create (seed + 17) in
    let blocks = List.sort_uniq compare (List.init 3 (fun _ -> Rng.int rng ref_cfg.CC.universe)) in
    let v = Char.chr (Rng.int rng 256) in
    Pmem.set_crash_countdown env.CC.pmem (Some (1 + Rng.int rng 96));
    let committed =
      try
        let h = Tinca.init_txn tc in
        List.iter (fun b -> Tinca.ok_exn (Tinca.write h b (Bytes.make 4096 v))) blocks;
        Tinca.ok_exn (Tinca.commit h);
        true
      with Pmem.Crash_point -> false
    in
    Pmem.set_crash_countdown env.CC.pmem None;
    (blocks, v, committed)
  in
  let recover_sim_ns =
    try
      Tinca.check_invariants tc;
      read_back "read-back" tc;
      let blocks, v, committed = cut_short () in
      Pmem.crash ~seed env.CC.pmem;
      let s0 = Clock.now_ns env.CC.clock in
      let r = Tinca.recover ~pmem:env.CC.pmem ~disk:env.CC.disk ~clock:env.CC.clock ~metrics:env.CC.metrics in
      let ns = Clock.now_ns env.CC.clock -. s0 in
      (match r with
      | Error e -> problem "recovery failed: %s" (Tinca.error_message e)
      | Ok tc ->
          Tinca.check_invariants tc;
          let all f = List.for_all (fun b -> f b (Tinca.read tc b)) blocks in
          let post = all (fun _ r -> match r with Ok d -> Bytes.for_all (( = ) v) d | Error _ -> false) in
          if post then List.iter (fun b -> fill.(b) <- v) blocks
          else if committed then problem "an acknowledged transaction was lost in the crash"
          else if not (all (fill_matches fill)) then
            problem "the transaction cut short by the crash was applied in part";
          read_back "post-crash read-back" tc);
      ns
    with e ->
      problem "verification raised %s" (Printexc.to_string e);
      0.0
  in
  {
    Round.setup_s = (h2 -. h0) /. 1e9;
    gen_ms = (h1 -. h0) /. 1e6;
    prealloc_ms = (h2 -. h1) /. 1e6;
    ops = points;
    failed = 0;
    host_s = host_ns /. 1e9;
    op_host;
    commit_sim;
    read_sim;
    sim_ns = !sim_ns;
    minor_words;
    recover_sim_ns;
    write_amp = float_of_int (writebacks * Pmem.line_size) /. float_of_int (max 1 user_bytes);
    problems = List.rev !problems;
    fingerprint =
      [ ("sweep_sim_ns", Printf.sprintf "%.0f" !sim_ns);
        ("sweep_states", string_of_int states);
        ("sweep_points", string_of_int points) ]
      @ Round.fingerprint ~clock:env.CC.clock ~pmem:env.CC.pmem ~metrics:env.CC.metrics;
    layer = layer_rows;
  }
