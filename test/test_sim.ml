(* Tests for the simulated clock, latency tables and metrics registry. *)
open Tinca_sim

let test_clock_monotonic () =
  let c = Clock.create () in
  Clock.advance c 10.0;
  Clock.advance c 5.0;
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Clock.now_ns c);
  Clock.advance_to c 12.0;
  Alcotest.(check (float 1e-9)) "advance_to is monotone" 15.0 (Clock.now_ns c);
  Clock.advance_to c 20.0;
  Alcotest.(check (float 1e-9)) "advance_to moves forward" 20.0 (Clock.now_ns c);
  Alcotest.(check (float 1e-12)) "seconds" 2e-8 (Clock.seconds c);
  Clock.reset c;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Clock.now_ns c)

let test_clock_rejects_negative () =
  let c = Clock.create () in
  Alcotest.(check bool) "assert fires" true
    (try
       Clock.advance c (-1.0);
       false
     with Assert_failure _ -> true)

let test_latency_orderings () =
  let open Latency in
  let nvdimm = nvm_of_tech Nvdimm and pcm = nvm_of_tech Pcm and stt = nvm_of_tech Stt_ram in
  Alcotest.(check bool) "pcm write slowest" true (pcm.write_ns > stt.write_ns);
  Alcotest.(check bool) "stt slower than dram" true (stt.write_ns > nvdimm.write_ns);
  Alcotest.(check bool) "read delays equal for pcm/stt" true (pcm.read_ns = stt.read_ns);
  let ssd = disk_of_kind Ssd and hdd = disk_of_kind Hdd in
  Alcotest.(check bool) "hdd seek dominates" true (hdd.seek_ns > ssd.write_block_ns)

let test_transfer_ns () =
  let open Latency in
  let net = default_network in
  let t = transfer_ns net 1_250_000 in
  (* 1.25 MB at 1.25 GB/s = 1 ms + 10 us rtt. *)
  Alcotest.(check (float 1.0)) "1.25MB" 1_010_000.0 t

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table1_renders () =
  let tbl = Latency.table1 () in
  let s = Tinca_util.Tabular.render tbl in
  Alcotest.(check bool) "mentions PCM" true (contains_substring s "PCM")

let test_metrics_incr_get () =
  let m = Metrics.create () in
  Metrics.incr m "a" ~by:2;
  Metrics.incr m "a" ~by:3;
  Alcotest.(check int) "accumulates" 5 (Metrics.get m "a");
  Alcotest.(check int) "missing is 0" 0 (Metrics.get m "nope");
  (* A first zero increment still registers the counter. *)
  Metrics.incr m "z" ~by:0;
  Alcotest.(check (list (pair string int))) "zero bump creates the key"
    [ ("a", 5); ("z", 0) ] (Metrics.to_list m)

let test_metrics_snapshot_diff () =
  let m = Metrics.create () in
  Metrics.incr m "x" ~by:10;
  let snap = Metrics.snapshot m in
  Metrics.incr m "x" ~by:5;
  Metrics.incr m "y" ~by:7;
  Alcotest.(check int) "since x" 5 (Metrics.since m snap "x");
  Alcotest.(check int) "since y" 7 (Metrics.since m snap "y");
  let d = Metrics.diff m snap in
  Alcotest.(check (list (pair string int))) "diff" [ ("x", 5); ("y", 7) ] d

let test_metrics_reset () =
  let m = Metrics.create () in
  Metrics.incr m "x" ~by:1;
  Metrics.reset m;
  Alcotest.(check int) "cleared" 0 (Metrics.get m "x")

let test_metrics_diff_after_reset () =
  let m = Metrics.create () in
  Metrics.incr m "x" ~by:10;
  let snap = Metrics.snapshot m in
  Metrics.reset m;
  (* A reset drops the counters; a stale snapshot must not report
     phantom negative increments for counters that no longer exist. *)
  Alcotest.(check (list (pair string int))) "diff after reset is empty" [] (Metrics.diff m snap);
  Metrics.incr m "x" ~by:2;
  Alcotest.(check int) "since sees the reborn counter" (2 - 10) (Metrics.since m snap "x");
  Metrics.observe m "lat.x" 5.0;
  Metrics.reset m;
  Alcotest.(check bool) "histograms cleared too" true (Metrics.hists m = [])

let test_metrics_pp () =
  let m = Metrics.create () in
  Metrics.incr m "pmem.sfence" ~by:3;
  Metrics.observe m "lat.commit" 100.0;
  let s = Format.asprintf "%a" Metrics.pp m in
  Alcotest.(check bool) "pp names the counter" true (contains_substring s "pmem.sfence");
  Alcotest.(check bool) "pp shows the count" true (contains_substring s "3");
  Alcotest.(check bool) "pp names the histogram" true (contains_substring s "lat.commit")

let test_metrics_observe_hist () =
  let m = Metrics.create () in
  Alcotest.(check bool) "missing hist" true (Metrics.hist m "lat.z" = None);
  Metrics.observe m "lat.z" 10.0;
  Metrics.observe m "lat.z" 20.0;
  (match Metrics.hist m "lat.z" with
  | None -> Alcotest.fail "histogram not created"
  | Some h ->
      Alcotest.(check int) "count" 2 (Hist.count h);
      Alcotest.(check (float 1.0)) "mean" 15.0 (Hist.mean h));
  Alcotest.(check (list string)) "hists sorted by name" [ "lat.z" ]
    (List.map fst (Metrics.hists m))

(* The snapshot is hashtable-backed: since/diff over a 10k-counter
   registry must be far from the old O(n*m) assoc-list scan.  50 full
   diffs + 10k sinces over 10k counters in well under a second. *)
let test_metrics_snapshot_scale () =
  let m = Metrics.create () in
  for i = 0 to 9_999 do
    Metrics.incr m (Printf.sprintf "scale.c%04d" i) ~by:i
  done;
  let snap = Metrics.snapshot m in
  for i = 0 to 9_999 do
    Metrics.incr m (Printf.sprintf "scale.c%04d" i) ~by:1
  done;
  let t0 = Sys.time () in
  for _ = 1 to 50 do
    let d = Metrics.diff m snap in
    assert (List.length d = 10_000)
  done;
  for i = 0 to 9_999 do
    assert (Metrics.since m snap (Printf.sprintf "scale.c%04d" i) = 1)
  done;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "50 diffs + 10k sinces over 10k counters in %.2fs < 1s" elapsed)
    true (elapsed < 1.0)

(* --- Hist ---------------------------------------------------------------- *)

let test_hist_percentiles () =
  let h = Hist.create () in
  for v = 1 to 1000 do
    Hist.add h (float_of_int v)
  done;
  Alcotest.(check int) "count" 1000 (Hist.count h);
  let within pct expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "p%g: %.1f within ~6%% of %.1f" pct actual expected)
      true
      (Float.abs (actual -. expected) /. expected < 0.07)
  in
  within 50.0 500.0 (Hist.percentile h 50.0);
  within 90.0 900.0 (Hist.percentile h 90.0);
  within 99.0 990.0 (Hist.percentile h 99.0);
  let s = Hist.summary h in
  within 99.9 999.0 s.Hist.p999;
  Alcotest.(check (float 1e-9)) "max exact" 1000.0 s.Hist.max;
  Alcotest.(check (float 1.0)) "mean" 500.5 s.Hist.mean;
  Alcotest.(check bool) "ladder monotone" true
    (s.Hist.p50 <= s.Hist.p90 && s.Hist.p90 <= s.Hist.p99 && s.Hist.p99 <= s.Hist.p999
   && s.Hist.p999 <= s.Hist.max)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  for v = 1 to 500 do
    Hist.add a (float_of_int v)
  done;
  for v = 501 to 1000 do
    Hist.add b (float_of_int v)
  done;
  Hist.merge ~dst:a ~src:b;
  Alcotest.(check int) "merged count" 1000 (Hist.count a);
  Alcotest.(check (float 1e-9)) "merged max" 1000.0 (Hist.max_value a);
  let p50 = Hist.percentile a 50.0 in
  Alcotest.(check bool) (Printf.sprintf "merged p50 %.1f ~ 500" p50) true
    (Float.abs (p50 -. 500.0) /. 500.0 < 0.07)

let test_hist_empty_and_reset () =
  let h = Hist.create () in
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0 (Hist.percentile h 99.0);
  Hist.add h 42.0;
  Hist.add h (-5.0) (* clamped to 0 *);
  Alcotest.(check (float 1e-9)) "negative clamps to 0" 0.0 (Hist.min_value h);
  Hist.reset h;
  Alcotest.(check int) "reset clears" 0 (Hist.count h)

let suite =
  [
    ( "sim.clock",
      [
        Alcotest.test_case "monotonic accounting" `Quick test_clock_monotonic;
        Alcotest.test_case "negative rejected" `Quick test_clock_rejects_negative;
      ] );
    ( "sim.latency",
      [
        Alcotest.test_case "technology orderings" `Quick test_latency_orderings;
        Alcotest.test_case "network transfer" `Quick test_transfer_ns;
        Alcotest.test_case "table 1 renders" `Quick test_table1_renders;
      ] );
    ( "sim.metrics",
      [
        Alcotest.test_case "incr/get" `Quick test_metrics_incr_get;
        Alcotest.test_case "snapshot/diff" `Quick test_metrics_snapshot_diff;
        Alcotest.test_case "reset" `Quick test_metrics_reset;
        Alcotest.test_case "diff after reset" `Quick test_metrics_diff_after_reset;
        Alcotest.test_case "pp renders counters + hists" `Quick test_metrics_pp;
        Alcotest.test_case "observe/hist" `Quick test_metrics_observe_hist;
        Alcotest.test_case "snapshot scales to 10k counters" `Quick test_metrics_snapshot_scale;
      ] );
    ( "sim.hist",
      [
        Alcotest.test_case "percentile ladder accuracy" `Quick test_hist_percentiles;
        Alcotest.test_case "merge" `Quick test_hist_merge;
        Alcotest.test_case "empty / clamp / reset" `Quick test_hist_empty_and_reset;
      ] );
  ]

let test_flush_instr_ordering () =
  let open Latency in
  Alcotest.(check bool) "clwb cheapest" true
    (flush_instr_ns Clwb < flush_instr_ns Clflushopt
    && flush_instr_ns Clflushopt < flush_instr_ns Clflush);
  (* Persisting through a pmem with clwb must cost less simulated time. *)
  let cost instr =
    let clock = Clock.create () in
    let metrics = Metrics.create () in
    let pmem = Tinca_pmem.Pmem.create ~flush_instr:instr ~clock ~metrics ~tech:Pcm ~size:4096 () in
    Tinca_pmem.Pmem.write pmem ~off:0 (Bytes.make 4096 'x');
    Tinca_pmem.Pmem.persist pmem ~off:0 ~len:4096;
    Clock.now_ns clock
  in
  Alcotest.(check bool) "clwb persists cheaper" true (cost Clwb < cost Clflush)

let flush_instr_suite =
  [
    ( "sim.flush_instr",
      [ Alcotest.test_case "instruction cost ordering" `Quick test_flush_instr_ordering ] );
  ]
