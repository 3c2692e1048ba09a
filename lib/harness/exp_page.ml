(* fig_log_vs_page: the commit-scheme ablation quantified (ISSUE 10).

   The same facade workload — Exp_commit's mixed-size commit stream —
   runs against the logging ring pipeline (both variants) and the COW
   paging engine, and the figure reports the three axes the two designs
   trade against each other:

   - ns/commit and sfences/commit by transaction size: the paging
     scheme's fence budget is a size-independent constant (stage fence,
     epoch swing, table unstage) where the per-block pipeline pays ~4n+2
     and the batched pipeline a larger constant;
   - NVM write amplification (media line write-backs per committed
     byte, attributed via {!Tinca.region_wear}): paging rewrites a full
     page per dirtied block plus a 16 B table entry, logging pays ring
     entries plus Head/Tail pointer churn on top of the data;
   - recovery time: paging rebuilds the volatile index with one table
     scan, logging replays the ring.

   The crossover by write size — the smallest transaction at which
   paging's constant fence budget beats batched logging's — is computed
   from the sweep and reported in both the table and the JSON block.

   `tinca_bench check-page` gates CI on four properties of the scheme
   contract: paging's fence budget is flat in transaction size, a
   budgeted crash-space sweep is clean for paging at N=1 and N=4, the
   lockstep spec holds for paging at N=1/4 (and logging at N=4), and a
   psan-observed paging run is violation-free. *)

module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Tabular = Tinca_util.Tabular
module Psan = Tinca_checker.Psan
module Check = Tinca_checker.Crash_check
module Lockstep = Tinca_checker.Lockstep
open Tinca_sim

let nvm_bytes = 8 * 1024 * 1024

type sample = {
  scheme : string;
  txn_blocks : int;
  commits : int;
  ns_per_commit : float;
  sfences_per_commit : float;
  nvm_write_amp : float;  (** media line write-backs x 64 / committed bytes *)
  recovery_ns : float;
}

let txn_sizes = [ 1; 2; 4; 8; 16 ]

let schemes =
  [
    ("log/per-block", Tinca.Config.Logging Tinca.Per_block);
    ("log/batched", Tinca.Config.Logging Tinca.Batched);
    ("paging", Tinca.Config.Paging Tinca.Config.default_page_cfg);
  ]

(* One fresh world per point, like Exp_commit's micro: 4 warm-up commits
   walk the universe so measured commits overwrite live pages (the
   paging engine's unstage path and the logging engine's COW chains are
   both on), then 32 measured commits of Exp_commit.measured_size mixed
   sizes.  Wear is snapshotted around the measured phase only, so the
   amplification excludes format and warm-up traffic. *)
let run_point ~label ~scheme ~n =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:nvm_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
  let config =
    { Tinca.Config.default with Tinca.Config.nvm_bytes; ring_slots = 4096; commit_scheme = scheme }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  let universe = 256 in
  let payload = Bytes.make 4096 'p' in
  let next = ref 0 in
  let commit size =
    let h = Tinca.init_txn tc in
    for _ = 1 to size do
      Tinca.ok_exn (Tinca.write h (!next mod universe) payload);
      incr next
    done;
    Tinca.ok_exn (Tinca.commit h)
  in
  let warmup = 4 and measured = 32 in
  for _ = 1 to warmup do
    commit n
  done;
  let wear_lines () =
    List.fold_left (fun acc (_, total, _) -> acc + total) 0 (Tinca.region_wear tc)
  in
  let t0 = Clock.now_ns clock in
  let sf0 = Metrics.get metrics "pmem.sfence" in
  let w0 = wear_lines () in
  let blocks = ref 0 in
  for c = 0 to measured - 1 do
    let sz = Exp_commit.measured_size ~n c in
    blocks := !blocks + sz;
    commit sz
  done;
  let elapsed = Clock.now_ns clock -. t0 in
  let sfences = Metrics.get metrics "pmem.sfence" - sf0 in
  let worn = wear_lines () - w0 in
  let r0 = Clock.now_ns clock in
  (match Tinca.recover ~pmem ~disk ~clock ~metrics with
  | Ok recovered -> Tinca.check_invariants recovered
  | Error e -> failwith (Tinca.error_message e));
  {
    scheme = label;
    txn_blocks = n;
    commits = measured;
    ns_per_commit = elapsed /. float_of_int measured;
    sfences_per_commit = float_of_int sfences /. float_of_int measured;
    nvm_write_amp = float_of_int (worn * Pmem.line_size) /. float_of_int (!blocks * 4096);
    recovery_ns = Clock.now_ns clock -. r0;
  }

let sweep () =
  List.concat_map
    (fun n -> List.map (fun (label, scheme) -> run_point ~label ~scheme ~n) schemes)
    txn_sizes

(* The smallest transaction size at which paging's simulated commit cost
   matches or beats batched logging — [None] if logging keeps winning
   across the sweep. *)
let crossover samples =
  let at label n = List.find_opt (fun s -> s.scheme = label && s.txn_blocks = n) samples in
  List.find_opt
    (fun n ->
      match (at "paging" n, at "log/batched" n) with
      | Some p, Some l -> p.ns_per_commit <= l.ns_per_commit
      | _ -> false)
    txn_sizes

let table samples =
  let t =
    Tabular.create
      ~title:"fig_log_vs_page: logging ring vs COW paging, end to end (ISSUE 10)"
      [
        "scheme"; "txn blocks"; "commits"; "ns/commit"; "sfences/commit"; "NVM write amp";
        "recovery ns";
      ]
  in
  List.iter
    (fun s ->
      Tabular.add_row t
        [
          s.scheme;
          Tabular.cell_i s.txn_blocks;
          Tabular.cell_i s.commits;
          Tabular.cell_f ~decimals:0 s.ns_per_commit;
          Tabular.cell_f ~decimals:2 s.sfences_per_commit;
          Tabular.cell_f ~decimals:3 s.nvm_write_amp;
          Tabular.cell_f ~decimals:0 s.recovery_ns;
        ])
    samples;
  Tabular.add_row t
    [
      "crossover";
      (match crossover samples with Some n -> Printf.sprintf "%d blocks" n | None -> "none");
      "paging <= log/batched (ns/commit)"; ""; ""; ""; "";
    ];
  t

let fig_log_vs_page () = [ table (sweep ()) ]

(* --- the CI gate (tinca_bench check-page) -------------------------------- *)

(* A paging workload observed end to end by psan (with the paging region
   classes attached): commits, overwrites, then recovery — zero
   violations expected. *)
let psan_paging_clean () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(1024 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes = 1024 * 1024;
      commit_scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg;
      nshards = 2;
    }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  let san = Psan.attach ~page_layouts:(Tinca.page_layouts tc) pmem in
  let payload = Bytes.make 4096 'q' in
  for c = 0 to 23 do
    Psan.txn_begin san;
    let h = Tinca.init_txn tc in
    for i = 0 to 2 do
      Tinca.ok_exn (Tinca.write h ((c + (i * 17)) mod 48) payload)
    done;
    Tinca.ok_exn (Tinca.commit h);
    Psan.txn_end san
  done;
  (match Tinca.recover ~pmem ~disk ~clock ~metrics with
  | Ok recovered -> Tinca.check_invariants recovered
  | Error e -> failwith (Tinca.error_message e));
  Psan.detach san;
  Psan.violation_count san

let paging_geom n =
  {
    Lockstep.default_geometry with
    Lockstep.nshards = n;
    scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg;
  }

let check () =
  let samples = sweep () in
  let paging = List.filter (fun s -> s.scheme = "paging") samples in
  let fences = List.map (fun s -> s.sfences_per_commit) paging in
  let fmax = List.fold_left max neg_infinity fences in
  let fmin = List.fold_left min infinity fences in
  let flat_ok = paging <> [] && fmax -. fmin <= 0.10 && fmax <= 4.0 in
  (* Budgeted crash-space sweep of the paging protocol: every stride-th
     crash point, capped survival subsets, at N=1 and N=4. *)
  let crash_report n stride =
    Check.explore
      {
        Check.default_config with
        Check.nshards = n;
        scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg;
        pmem_bytes = 512 * 1024;
        ncommits = 4;
        mask_cap = 32;
        stride;
      }
  in
  let r1 = crash_report 1 3 and r4 = crash_report 4 5 in
  let crash_ok = r1.Check.violations = [] && r4.Check.violations = [] in
  (* Lockstep spec refinement (no crash injection here — the sweep above
     covers crashes): both schemes, N=1 and N=4, a pinned seed each. *)
  let lockstep_ok g =
    let cmds = Lockstep.gen ~seed:11 ~len:64 ~universe:g.Lockstep.universe in
    match Lockstep.run g cmds with Ok _ -> true | Error _ -> false
  in
  let refine_ok =
    lockstep_ok (paging_geom 1) && lockstep_ok (paging_geom 4)
    && lockstep_ok { Lockstep.default_geometry with Lockstep.nshards = 4 }
  in
  let psan_violations = psan_paging_clean () in
  let psan_ok = psan_violations = 0 in
  let verdict = Tabular.create ~title:"check-page verdict" [ "property"; "value"; "ok" ] in
  Tabular.add_row verdict
    [
      "paging fence budget flat in txn size";
      Printf.sprintf "sfences/commit in [%.2f, %.2f] over %s blocks" fmin fmax
        (String.concat "," (List.map string_of_int txn_sizes));
      (if flat_ok then "ok" else "FAIL");
    ];
  Tabular.add_row verdict
    [
      "paging crash-space sweep clean (N=1, N=4)";
      Printf.sprintf "%d + %d states checked" r1.Check.states_checked r4.Check.states_checked;
      (if crash_ok then "ok" else "FAIL");
    ];
  Tabular.add_row verdict
    [
      "lockstep refinement (paging N=1/4, logging N=4)";
      "seed 11, 64 commands";
      (if refine_ok then "ok" else "FAIL");
    ];
  Tabular.add_row verdict
    [
      "psan clean on paging workload (N=2 + recovery)";
      Printf.sprintf "%d violations" psan_violations;
      (if psan_ok then "ok" else "FAIL");
    ];
  ( [ table samples; verdict ],
    flat_ok && crash_ok && refine_ok && psan_ok )

(* --- machine-readable dump (the log_vs_page block of BENCH_commit.json) -- *)

let json_block () =
  let samples = sweep () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "  \"log_vs_page\": {\n    \"samples\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"scheme\": \"%s\", \"txn_blocks\": %d, \"commits\": %d, \
            \"sim_ns_per_commit\": %.1f, \"sfences_per_commit\": %.2f, \
            \"nvm_write_amp\": %.4f, \"recovery_ns\": %.1f}"
           s.scheme s.txn_blocks s.commits s.ns_per_commit s.sfences_per_commit s.nvm_write_amp
           s.recovery_ns))
    samples;
  Buffer.add_string buf "\n    ],\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"crossover_txn_blocks\": %s\n  }"
       (match crossover samples with Some n -> string_of_int n | None -> "null"));
  Buffer.contents buf
