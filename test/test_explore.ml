(* A reference crash explorer, kept as the model of [Crash_check.explore]
   the way [Ref_pmem] in test_pmem.ml models the line layer.

   It is the straightforward form of the sweep: survival subsets as
   hashtables of surviving bit positions (or an all-survive marker),
   every post-crash medium hashed with MD5 and deduplicated by digest,
   and the prefix judge run as separate passes over the blocks — against
   the last acknowledged image, then against a copied table with the
   in-flight transaction applied, then once more to name the first bad
   block.  [Pmem.torn_lines] is pinned against [Ref_pmem] in
   test_pmem.ml, so the model takes the torn set from it.

   The real explorer keeps masks as ints or slots of one byte buffer,
   deduplicates by exact mask comparison and judges each state in one
   pass; everything it reports must equal the model's: every report
   field and every violation (event, surviving and lost lines, message),
   in order.  The configurations cover both commit schemes at 1 and 4
   shards, strides 1 and 5, a cap of 3 (where sampled points repeat a
   mask, so [states_deduped] is exercised) and of 64, and the planted
   [`Skip_seal] and [`Torn_swing] faults, whose violations at sampled
   points make the order of exploration visible. *)

module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Check = Tinca_checker.Crash_check
module Rng = Tinca_util.Rng
open Tinca_sim

let mk_env (cfg : Check.config) =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem =
    Pmem.create ~seed:(cfg.Check.seed + 1) ~clock ~metrics ~tech:Latency.Pcm ~size:cfg.Check.pmem_bytes ()
  in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:cfg.Check.universe ~block_size:4096 in
  { Check.pmem; disk; clock; metrics }

(* --- the fill-byte workload and the multi-pass prefix judge ------------- *)

let run_workload (cfg : Check.config) tc oracle pending =
  let rng = Rng.create cfg.Check.seed in
  for _txn = 1 to cfg.Check.ncommits do
    let n = 1 + Rng.int rng 4 in
    let h = Tinca.init_txn tc in
    Hashtbl.reset pending;
    for _ = 1 to n do
      let blk = Rng.int rng cfg.Check.universe in
      let v = Char.chr (Rng.int rng 256) in
      Tinca.ok_exn (Tinca.write h blk (Bytes.make 4096 v));
      Hashtbl.replace pending blk v
    done;
    if Rng.chance rng 0.3 then ignore (Tinca.read tc (Rng.int rng cfg.Check.universe));
    Tinca.ok_exn (Tinca.commit h);
    Hashtbl.iter (fun blk v -> Hashtbl.replace oracle blk v) pending;
    Hashtbl.reset pending
  done

let logical_block tc disk blk =
  match Tinca.peek tc blk with Some data -> data | None -> Disk.read_block disk blk

let first_mismatch tc disk universe expect_of_blk =
  let bad = ref None in
  let blk = ref 0 in
  while !bad = None && !blk < universe do
    let expect = expect_of_blk !blk in
    let data = logical_block tc disk !blk in
    (try Bytes.iter (fun c -> if c <> expect then raise Exit) data with Exit -> bad := Some (!blk, expect, data));
    incr blk
  done;
  !bad

let fill_of table blk = match Hashtbl.find_opt table blk with Some v -> v | None -> '\000'
let matches tc disk universe table = first_mismatch tc disk universe (fill_of table) = None

let prefix_judge (env : Check.env) (cfg : Check.config) oracle pending recovered =
  let universe = cfg.Check.universe in
  let ok_old = matches recovered env.Check.disk universe oracle in
  let ok_new =
    Hashtbl.length pending > 0
    &&
    let o = Hashtbl.copy oracle in
    Hashtbl.iter (fun blk v -> Hashtbl.replace o blk v) pending;
    matches recovered env.Check.disk universe o
  in
  if ok_old || ok_new then Ok ()
  else
    Error
      (match first_mismatch recovered env.Check.disk universe (fill_of oracle) with
      | Some (blk, expect, data) ->
          Printf.sprintf
            "prefix consistency: block %d is %C (expected %C pre-txn%s) — recovered state matches \
             neither the last acknowledged commit nor the in-flight commit fully applied"
            blk (Bytes.get data 0) expect
            (match Hashtbl.find_opt pending blk with Some v -> Printf.sprintf ", %C post-txn" v | None -> "")
      | None -> "prefix consistency: post-txn image is a partial mix")

let ref_driver (cfg : Check.config) =
  {
    Check.fresh =
      (fun env ->
        let config =
          {
            Tinca.Config.default with
            Tinca.Config.nvm_bytes = cfg.Check.pmem_bytes;
            ring_slots = cfg.Check.ring_slots;
            nshards = cfg.Check.nshards;
            commit_scheme = cfg.Check.scheme;
          }
        in
        let tc =
          Tinca.ok_exn
            (Tinca.format ~config ~pmem:env.Check.pmem ~disk:env.Check.disk ~clock:env.Check.clock
               ~metrics:env.Check.metrics)
        in
        let oracle = Hashtbl.create 64 and pending = Hashtbl.create 8 in
        ((fun () -> run_workload cfg tc oracle pending), prefix_judge env cfg oracle pending));
  }

(* --- the reference sweep --------------------------------------------------- *)

let check_state (env : Check.env) judge =
  match
    Tinca.recover ~pmem:env.Check.pmem ~disk:env.Check.disk ~clock:env.Check.clock
      ~metrics:env.Check.metrics
  with
  | exception e -> Error (Printf.sprintf "recovery raised %s" (Printexc.to_string e))
  | Error e -> Error (Printf.sprintf "recovery failed: %s" (Tinca.error_message e))
  | Ok recovered -> (
      match Tinca.check_invariants recovered with
      | exception e -> Error (Printf.sprintf "invariant audit raised %s" (Printexc.to_string e))
      | () -> judge recovered)

(* All 2^d masks when that fits the cap, else the two corners followed by
   [cap - 2] seeded samples, newest draw first. *)
let subset_masks ~d ~cap ~rng =
  if d <= 29 && 1 lsl d <= cap then (false, List.init (1 lsl d) (fun m -> `Bits m))
  else begin
    let masks = ref [] in
    for _ = 1 to max 0 (cap - 2) do
      let tbl = Hashtbl.create 16 in
      for j = 0 to d - 1 do
        if Rng.bool rng then Hashtbl.replace tbl j ()
      done;
      masks := `Table tbl :: !masks
    done;
    (true, `Bits 0 :: `All :: !masks)
  end

let mask_mem mask j =
  match mask with `Bits m -> m land (1 lsl j) <> 0 | `All -> true | `Table tbl -> Hashtbl.mem tbl j

let ref_explore (cfg : Check.config) =
  let driver = ref_driver cfg in
  let span =
    let env = mk_env cfg in
    let workload, _ = driver.Check.fresh env in
    let before = Pmem.event_count env.Check.pmem in
    workload ();
    Pmem.event_count env.Check.pmem - before
  in
  let sample_rng = Rng.create cfg.Check.sample_seed in
  let crash_points = ref 0 and states_checked = ref 0 and states_deduped = ref 0 in
  let subsets_total = ref 0.0 and capped_points = ref 0 and max_torn = ref 0 in
  let violations = ref [] in
  let k = ref cfg.Check.first_event in
  while !k <= span do
    let crash_at = !k in
    let env = mk_env cfg in
    let workload, judge = driver.Check.fresh env in
    Pmem.set_crash_countdown env.Check.pmem (Some crash_at);
    (match workload () with
    | () -> Alcotest.failf "countdown %d did not fire within span %d" crash_at span
    | exception Pmem.Crash_point ->
        incr crash_points;
        let torn = Pmem.torn_lines env.Check.pmem in
        let d = Array.length torn in
        max_torn := max !max_torn d;
        let torn_bit = Hashtbl.create 16 in
        Array.iteri (fun j idx -> Hashtbl.replace torn_bit idx j) torn;
        let snap = Pmem.snapshot env.Check.pmem in
        let sampled, masks = subset_masks ~d ~cap:cfg.Check.mask_cap ~rng:sample_rng in
        subsets_total := !subsets_total +. (2.0 ** float_of_int d);
        if sampled then incr capped_points;
        let seen = Hashtbl.create 64 in
        List.iter
          (fun mask ->
            Pmem.restore env.Check.pmem snap;
            Pmem.crash_select env.Check.pmem ~survive:(fun idx ->
                match Hashtbl.find_opt torn_bit idx with Some j -> mask_mem mask j | None -> true);
            let digest = Pmem.media_digest env.Check.pmem in
            if Hashtbl.mem seen digest then incr states_deduped
            else begin
              Hashtbl.add seen digest ();
              incr states_checked;
              match check_state env judge with
              | Ok () -> ()
              | Error message ->
                  let surviving = List.filteri (fun j _ -> mask_mem mask j) (Array.to_list torn) in
                  let lost = List.filteri (fun j _ -> not (mask_mem mask j)) (Array.to_list torn) in
                  violations := { Check.crash_event = crash_at; surviving; lost; message } :: !violations
            end)
          masks);
    k := !k + cfg.Check.stride
  done;
  {
    Check.span;
    crash_points = !crash_points;
    states_checked = !states_checked;
    states_deduped = !states_deduped;
    subsets_total = !subsets_total;
    capped_points = !capped_points;
    max_torn_lines = !max_torn;
    violations = List.rev !violations;
  }

(* --- the comparison ---------------------------------------------------------- *)

let with_fault fault f =
  match fault with
  | None -> f ()
  | Some `Skip_seal ->
      Tinca_core.Shard.set_fault (Some `Skip_seal);
      Fun.protect ~finally:(fun () -> Tinca_core.Shard.set_fault None) f
  | Some `Torn_swing ->
      Tinca_core.Paging.set_fault (Some `Torn_swing);
      Fun.protect ~finally:(fun () -> Tinca_core.Paging.set_fault None) f

let violation = Alcotest.testable Check.pp_violation ( = )

let same_report ?fault ~what cfg =
  let want = with_fault fault (fun () -> ref_explore cfg) in
  let got = with_fault fault (fun () -> Check.explore cfg) in
  let field name f = Alcotest.(check int) (what ^ ": " ^ name) (f want) (f got) in
  field "span" (fun r -> r.Check.span);
  field "crash points" (fun r -> r.Check.crash_points);
  field "states checked" (fun r -> r.Check.states_checked);
  field "states deduped" (fun r -> r.Check.states_deduped);
  field "capped points" (fun r -> r.Check.capped_points);
  field "max torn lines" (fun r -> r.Check.max_torn_lines);
  Alcotest.(check (float 0.0)) (what ^ ": subset space") want.Check.subsets_total got.Check.subsets_total;
  Alcotest.(check (list violation)) (what ^ ": violations") want.Check.violations got.Check.violations;
  got

let logging = Tinca.Config.Logging Tinca.Batched
let paging = Tinca.Config.Paging Tinca.Config.default_page_cfg

let base ?(ncommits = 1) ~scheme ~nshards ~stride ~cap () =
  {
    Check.default_config with
    Check.ncommits;
    universe = 12;
    pmem_bytes = 96 * 1024;
    scheme;
    nshards;
    stride;
    mask_cap = cap;
  }

let name cfg =
  Printf.sprintf "%s N=%d stride %d cap %d" (Tinca.Config.scheme_name cfg.Check.scheme) cfg.Check.nshards
    cfg.Check.stride cfg.Check.mask_cap

(* Cap 3: a point with d >= 2 torn lines explores both corners and one
   draw, which repeats a corner whenever it draws all-lost or
   all-survive — the dedupe path runs and must agree. *)
let test_cap3 () =
  let deduped = ref 0 in
  List.iter
    (fun cfg ->
      let r = same_report ~what:(name cfg) cfg in
      Alcotest.(check (list violation)) (name cfg ^ ": clean") [] r.Check.violations;
      deduped := !deduped + r.Check.states_deduped)
    [
      base ~scheme:logging ~nshards:1 ~stride:1 ~cap:3 ();
      base ~ncommits:2 ~scheme:logging ~nshards:4 ~stride:5 ~cap:3 ();
      base ~ncommits:2 ~scheme:paging ~nshards:1 ~stride:5 ~cap:3 ();
      base ~scheme:paging ~nshards:4 ~stride:1 ~cap:3 ();
    ];
  Alcotest.(check bool) (Printf.sprintf "%d states deduped" !deduped) true (!deduped > 0)

let test_cap64 () =
  List.iter
    (fun cfg ->
      let r = same_report ~what:(name cfg) cfg in
      Alcotest.(check (list violation)) (name cfg ^ ": clean") [] r.Check.violations)
    [ base ~scheme:logging ~nshards:1 ~stride:5 ~cap:64 (); base ~scheme:paging ~nshards:4 ~stride:5 ~cap:64 () ]

(* Under a planted fault the violations come in exploration order, so a
   sampled point explored in any other order than the model's fails. *)
let test_planted_faults () =
  List.iter
    (fun (fault, cfg, what) ->
      let r = same_report ~fault ~what cfg in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d violations" what (List.length r.Check.violations))
        true
        (List.length r.Check.violations > 1))
    [
      (`Skip_seal, base ~scheme:logging ~nshards:4 ~stride:5 ~cap:64 (), "Skip_seal");
      (`Torn_swing, base ~scheme:paging ~nshards:1 ~stride:5 ~cap:64 (), "Torn_swing");
    ]

let suite =
  [
    ( "check.explorer",
      [
        Alcotest.test_case "matches the model at cap 3" `Slow test_cap3;
        Alcotest.test_case "matches the model at cap 64" `Slow test_cap64;
        Alcotest.test_case "matches it under planted faults" `Slow test_planted_faults;
      ] );
  ]
