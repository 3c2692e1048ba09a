(* Tests of the persistent-memory simulator: store/flush/fence semantics,
   crash resolution, atomicity, counters, wear. *)
open Tinca_sim
module Pmem = Tinca_pmem.Pmem

let mk ?(tech = Latency.Pcm) ?(size = 8192) ?(seed = 1) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let p = Pmem.create ~seed ~clock ~metrics ~tech ~size () in
  (p, clock, metrics)

let bytes_of s = Bytes.of_string s

let test_read_back () =
  let p, _, _ = mk () in
  Pmem.write p ~off:100 (bytes_of "hello");
  Alcotest.(check string) "newest visible" "hello" (Bytes.to_string (Pmem.read p ~off:100 ~len:5))

let test_persist_survives_crash () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "durable!");
  Pmem.persist p ~off:0 ~len:8;
  (* Crash with survival = 0: every non-durable line is lost. *)
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "persisted data survives" "durable!"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_unflushed_lost_when_survival_zero () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "volatile");
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "unflushed store lost" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_unflushed_survives_when_survival_one () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "volatile");
  Pmem.crash ~seed:9 ~survival:1.0 p;
  Alcotest.(check string) "line evicted before crash" "volatile"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_clflush_without_fence_not_durable () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "pending!");
  Pmem.clflush p ~off:0 ~len:8;
  (* Still flush-pending: a crash with survival 0 loses it. *)
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "clflush alone is not durability" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_fence_makes_pending_durable () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "pending!");
  Pmem.clflush p ~off:0 ~len:8;
  Pmem.sfence p;
  Alcotest.(check int) "no dirty lines" 0 (Pmem.dirty_line_count p);
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "fenced line durable" "pending!"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_crash_reverts_to_last_persisted () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "version1");
  Pmem.persist p ~off:0 ~len:8;
  Pmem.write p ~off:0 (bytes_of "version2");
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "reverted to last persisted" "version1"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_crash_subset_is_per_line () =
  (* Two distinct lines dirty; with 50 % survival and many seeds we should
     observe all four outcomes, demonstrating per-line independence. *)
  let outcomes = Hashtbl.create 4 in
  for seed = 0 to 63 do
    let p, _, _ = mk () in
    Pmem.write p ~off:0 (bytes_of "AAAAAAAA");
    Pmem.write p ~off:64 (bytes_of "BBBBBBBB");
    Pmem.crash ~seed ~survival:0.5 p;
    let a = Bytes.get (Pmem.read p ~off:0 ~len:1) 0 = 'A' in
    let b = Bytes.get (Pmem.read p ~off:64 ~len:1) 0 = 'B' in
    Hashtbl.replace outcomes (a, b) ()
  done;
  Alcotest.(check int) "all four survival combinations seen" 4 (Hashtbl.length outcomes)

let test_atomic8_alignment_enforced () =
  let p, _, _ = mk () in
  Alcotest.check_raises "misaligned" (Invalid_argument "Pmem.atomic_write8: misaligned")
    (fun () -> Pmem.atomic_write8 p ~off:4 1L)

let test_atomic16_alignment_enforced () =
  let p, _, _ = mk () in
  Alcotest.check_raises "misaligned" (Invalid_argument "Pmem.atomic_write16: misaligned")
    (fun () -> Pmem.atomic_write16 p ~off:8 (Bytes.make 16 'x'))

let test_atomic8_roundtrip () =
  let p, _, _ = mk () in
  Pmem.atomic_write8 p ~off:16 0x1122334455667788L;
  Alcotest.(check int64) "roundtrip" 0x1122334455667788L (Pmem.read_u64 p ~off:16)

let test_atomic8_never_tears () =
  (* An 8 B atomic store within one line either fully survives a crash or
     fully reverts — never a byte mixture. *)
  for seed = 0 to 31 do
    let p, _, _ = mk () in
    Pmem.atomic_write8 p ~off:0 0x5555555555555555L;
    Pmem.persist p ~off:0 ~len:8;
    Pmem.atomic_write8 p ~off:0 0xAAAAAAAAAAAAAAAAL;
    Pmem.crash ~seed ~survival:0.5 p;
    let v = Pmem.read_u64 p ~off:0 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: no torn value" seed)
      true
      (Int64.equal v 0x5555555555555555L || Int64.equal v 0xAAAAAAAAAAAAAAAAL)
  done

let test_out_of_bounds_rejected () =
  let p, _, _ = mk ~size:128 () in
  Alcotest.(check bool) "raises" true
    (try
       Pmem.write p ~off:120 (bytes_of "too-long!");
       false
     with Invalid_argument _ -> true)

let test_counters () =
  let p, _, m = mk () in
  Pmem.write p ~off:0 (Bytes.make 256 'x');
  (* 256 B = 4 lines *)
  Alcotest.(check int) "store lines" 4 (Metrics.get m "pmem.store_lines");
  Pmem.clflush p ~off:0 ~len:256;
  Alcotest.(check int) "clflush count" 4 (Metrics.get m "pmem.clflush");
  Pmem.sfence p;
  Alcotest.(check int) "sfence count" 1 (Metrics.get m "pmem.sfence");
  Alcotest.(check int) "lines persisted" 4 (Metrics.get m "pmem.lines_persisted")

let test_clock_charges () =
  let p, clock, _ = mk ~tech:Latency.Pcm () in
  let t0 = Clock.now_ns clock in
  Pmem.write p ~off:0 (Bytes.make 64 'x');
  Pmem.persist p ~off:0 ~len:64;
  let dt = Clock.now_ns clock -. t0 in
  (* One line: store 10 + clflush 100 + write 195 + sfence 20 = 325 ns. *)
  Alcotest.(check (float 1.0)) "pcm line persist cost" 325.0 dt

let test_tech_affects_cost () =
  let cost tech =
    let p, clock, _ = mk ~tech () in
    Pmem.write p ~off:0 (Bytes.make 4096 'x');
    Pmem.persist p ~off:0 ~len:4096;
    Clock.now_ns clock
  in
  Alcotest.(check bool) "PCM slower than NVDIMM" true (cost Latency.Pcm > cost Latency.Nvdimm);
  Alcotest.(check bool) "STT-RAM between" true
    (cost Latency.Stt_ram > cost Latency.Nvdimm && cost Latency.Stt_ram < cost Latency.Pcm)

let test_crash_countdown () =
  let p, _, _ = mk () in
  Pmem.set_crash_countdown p (Some 3);
  Pmem.write p ~off:0 (bytes_of "a");
  (* event 1 *)
  Pmem.clflush p ~off:0 ~len:1;
  (* event 2 *)
  Alcotest.check_raises "third event crashes" Pmem.Crash_point (fun () -> Pmem.sfence p);
  (* After the raise the hook stays armed until crash is called. *)
  Pmem.crash ~seed:1 ~survival:0.0 p;
  (* Disabled after crash: no raise. *)
  Pmem.write p ~off:0 (bytes_of "b")

let test_wear_accounting () =
  let p, _, _ = mk () in
  for _ = 1 to 10 do
    Pmem.write p ~off:0 (Bytes.make 64 'x');
    Pmem.persist p ~off:0 ~len:64
  done;
  Alcotest.(check int) "total wear" 10 (Pmem.wear_total p);
  Alcotest.(check int) "max wear" 10 (Pmem.wear_max p)

let test_dirty_tracking () =
  let p, _, _ = mk () in
  Alcotest.(check bool) "clean initially" false (Pmem.is_dirty p ~off:0);
  Pmem.write p ~off:0 (bytes_of "x");
  Alcotest.(check bool) "dirty after store" true (Pmem.is_dirty p ~off:0);
  Pmem.persist p ~off:0 ~len:1;
  Alcotest.(check bool) "clean after persist" false (Pmem.is_dirty p ~off:0)

(* --- crash-space exploration hooks (lib/check's model checker) ----------- *)

let torn p = Array.to_list (Pmem.torn_lines p)

let test_torn_lines_ordering () =
  let p, _, _ = mk ~size:4096 () in
  Alcotest.(check (list int)) "clean device" [] (torn p);
  (* Dirty lines 5, 1 and 3 in that order: the listing is ascending. *)
  Pmem.write p ~off:(5 * 64) (bytes_of "e");
  Pmem.write p ~off:(1 * 64) (bytes_of "a");
  Pmem.write p ~off:(3 * 64) (bytes_of "c");
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5 ] (torn p);
  (* A flush-pending line is still unfenced. *)
  Pmem.clflush p ~off:(3 * 64) ~len:64;
  Alcotest.(check (list int)) "pending still listed" [ 1; 3; 5 ] (torn p);
  Pmem.sfence p;
  (* The fence persisted line 3 only; 1 and 5 were never flushed. *)
  Alcotest.(check (list int)) "fence clears pending only" [ 1; 5 ] (torn p)

let test_torn_lines_untorn () =
  let p, _, _ = mk ~size:4096 () in
  Pmem.write p ~off:0 (bytes_of "version1");
  Pmem.persist p ~off:0 ~len:8;
  (* Rewriting the identical bytes dirties the line without changing it:
     losing vs. keeping it is indistinguishable, so it is not torn. *)
  Pmem.write p ~off:0 (bytes_of "version1");
  Alcotest.(check int) "line is unfenced" 1 (Pmem.dirty_line_count p);
  Alcotest.(check (list int)) "identical rewrite is not torn" [] (torn p);
  (* A genuine change is torn. *)
  Pmem.write p ~off:0 (bytes_of "version2");
  Alcotest.(check (list int)) "changed line is torn" [ 0 ] (torn p)

let test_crash_select_verdicts () =
  let p, _, _ = mk ~size:4096 () in
  Pmem.write p ~off:0 (bytes_of "AAAAAAAA");
  Pmem.write p ~off:64 (bytes_of "BBBBBBBB");
  (* Line 0 survives, line 1 is lost — deterministically. *)
  Pmem.crash_select p ~survive:(fun idx -> idx = 0);
  Alcotest.(check string) "survivor kept" "AAAAAAAA" (Bytes.to_string (Pmem.read p ~off:0 ~len:8));
  Alcotest.(check string) "loser reverted" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:64 ~len:8));
  Alcotest.(check int) "volatile layer emptied" 0 (Pmem.dirty_line_count p)

let test_snapshot_restore_roundtrip () =
  let p, _, _ = mk ~size:4096 () in
  (* Build mixed state: a persisted line (wear), a flush-pending line and
     a dirty line. *)
  Pmem.write p ~off:0 (bytes_of "durable!");
  Pmem.persist p ~off:0 ~len:8;
  Pmem.write p ~off:64 (bytes_of "pending!");
  Pmem.clflush p ~off:64 ~len:8;
  Pmem.write p ~off:128 (bytes_of "volatile");
  let snap = Pmem.snapshot p in
  let digest0 = Pmem.media_digest p in
  let dirty0 = Pmem.dirty_line_count p in
  let torn0 = torn p in
  let wear0 = Pmem.wear_total p in
  (* Diverge: lose everything volatile, then overwrite the durable line. *)
  Pmem.crash ~seed:3 ~survival:0.0 p;
  Pmem.write p ~off:0 (bytes_of "other!!!");
  Pmem.persist p ~off:0 ~len:8;
  Alcotest.(check bool) "diverged" false (Digest.equal digest0 (Pmem.media_digest p));
  (* Restore: medium, volatile layer and wear all return. *)
  Pmem.restore p snap;
  Alcotest.(check bool) "media digest restored" true (Digest.equal digest0 (Pmem.media_digest p));
  Alcotest.(check int) "dirty lines restored" dirty0 (Pmem.dirty_line_count p);
  Alcotest.(check (list int)) "torn set restored" torn0 (torn p);
  Alcotest.(check int) "wear restored" wear0 (Pmem.wear_total p);
  Alcotest.(check string) "newest store visible again" "volatile"
    (Bytes.to_string (Pmem.read p ~off:128 ~len:8));
  (* The pending flag survived the round-trip: a fence persists line 1,
     after which survival-0 crash keeps it but loses line 2. *)
  Pmem.sfence p;
  Pmem.crash ~seed:4 ~survival:0.0 p;
  Alcotest.(check string) "restored pending line fenced durable" "pending!"
    (Bytes.to_string (Pmem.read p ~off:64 ~len:8));
  Alcotest.(check string) "restored dirty line lost" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:128 ~len:8))

let test_wear_max_in_ranges () =
  let p, _, _ = mk ~size:4096 () in
  (* Line 0: 5 write-backs; line 2: 2 write-backs. *)
  for _ = 1 to 5 do
    Pmem.write p ~off:0 (Bytes.make 64 'x');
    Pmem.persist p ~off:0 ~len:64
  done;
  for _ = 1 to 2 do
    Pmem.write p ~off:128 (Bytes.make 64 'y');
    Pmem.persist p ~off:128 ~len:64
  done;
  Alcotest.(check int) "whole device" 5 (Pmem.wear_max_in p ~off:0 ~len:4096);
  Alcotest.(check int) "hot line only" 5 (Pmem.wear_max_in p ~off:0 ~len:64);
  Alcotest.(check int) "excluding the hot line" 2 (Pmem.wear_max_in p ~off:64 ~len:(4096 - 64));
  Alcotest.(check int) "untouched range" 0 (Pmem.wear_max_in p ~off:1024 ~len:1024);
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Pmem.wear_max_in p ~off:4032 ~len:128);
       false
     with Invalid_argument _ -> true)

(* --- event observation (lib/check's persistence sanitizer) --------------- *)

let test_observer_event_sequence () =
  let p, _, _ = mk ~size:4096 () in
  let seen = ref [] in
  Pmem.set_observer p (Some (fun ev -> seen := ev :: !seen));
  Pmem.write p ~off:0 (bytes_of "hello");
  Pmem.persist p ~off:0 ~len:5;
  Pmem.atomic_write8 p ~off:64 1L;
  Pmem.write p ~off:0 Bytes.empty;
  (* zero-length: no event *)
  Pmem.set_observer p None;
  Pmem.write p ~off:0 (bytes_of "unobserved");
  Alcotest.(check bool) "exactly one event per op, none after detach" true
    (List.rev !seen
    = [
        Pmem.Store { off = 0; len = 5 };
        Pmem.Clflush { off = 0; len = 5 };
        Pmem.Sfence;
        Pmem.Atomic_write { off = 64; len = 8 };
      ])

let test_atomic8_int_rejects_negative () =
  let p, _, _ = mk () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Pmem.atomic_write8_int: negative value") (fun () ->
      Pmem.atomic_write8_int p ~off:0 (-1))

(* Property: any prefix of (write; persist) operations followed by a crash
   preserves every persisted write. *)
let prop_persisted_prefix_survives =
  QCheck.Test.make ~name:"persisted writes survive any crash" ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 20) (pair (int_bound 63) (int_bound 255))))
    (fun (seed, writes) ->
      let p, _, _ = mk ~size:4096 () in
      List.iter
        (fun (line, v) ->
          let b = Bytes.make 64 (Char.chr v) in
          Pmem.write p ~off:(line * 64) b;
          Pmem.persist p ~off:(line * 64) ~len:64)
        writes;
      Pmem.crash ~seed ~survival:0.0 p;
      (* The LAST persisted value for each line must be present. *)
      let expect = Hashtbl.create 16 in
      List.iter (fun (line, v) -> Hashtbl.replace expect line v) writes;
      Hashtbl.fold
        (fun line v acc ->
          acc && Bytes.get (Pmem.read p ~off:(line * 64) ~len:1) 0 = Char.chr v)
        expect true)

(* Property: a crash never invents data — every line is either its newest
   store or its last persisted content. *)
let prop_crash_no_invention =
  QCheck.Test.make ~name:"crash yields old or new content per line" ~count:100
    QCheck.(triple small_nat (int_bound 63) (pair (int_bound 255) (int_bound 255)))
    (fun (seed, line, (v1, v2)) ->
      let p, _, _ = mk ~size:4096 () in
      Pmem.write p ~off:(line * 64) (Bytes.make 64 (Char.chr v1));
      Pmem.persist p ~off:(line * 64) ~len:64;
      Pmem.write p ~off:(line * 64) (Bytes.make 64 (Char.chr v2));
      Pmem.crash ~seed ~survival:0.5 p;
      let c = Bytes.get (Pmem.read p ~off:(line * 64) ~len:1) 0 in
      c = Char.chr v1 || c = Char.chr v2)

(* --- differential test against the hashtable line layer ---------------- *)

(* Reference model of the line layer as first written: an
   [(int, line) Hashtbl.t] of the non-durable lines, each with its
   rollback copy.  [Pmem] must stay indistinguishable from it — media,
   wear, clock and counters, and also the order [crash] draws survival
   in, which is this table's [fold] order. *)
module Ref_pmem = struct
  type line = { backup : Bytes.t; mutable pending : bool }

  type t = {
    media : Bytes.t;
    lines : (int, line) Hashtbl.t;
    wear : int array;
    clock : Clock.t;
    metrics : Metrics.t;
    lat : Latency.nvm;
    rng : Tinca_util.Rng.t;
    mutable countdown : int option;
  }

  let create ~seed ~size =
    {
      media = Bytes.make size '\000';
      lines = Hashtbl.create 4096;
      wear = Array.make (size / 64) 0;
      clock = Clock.create ();
      metrics = Metrics.create ();
      lat = Latency.nvm_of_tech ~flush_instr:Latency.Clflush Latency.Pcm;
      rng = Tinca_util.Rng.create seed;
      countdown = None;
    }

  let event t =
    match t.countdown with
    | None -> ()
    | Some k -> if k <= 1 then raise Pmem.Crash_point else t.countdown <- Some (k - 1)

  (* One store of [len] bytes at [off]; [blit] then changes the medium. *)
  let store ?(atomic = false) t ~off ~len blit =
    event t;
    if len > 0 then begin
      let first = off / 64 and last = (off + len - 1) / 64 in
      for idx = first to last do
        match Hashtbl.find_opt t.lines idx with
        | Some l ->
            if l.pending then begin
              if Tinca_util.Rng.bool t.rng then Bytes.blit t.media (idx * 64) l.backup 0 64;
              l.pending <- false
            end
        | None -> Hashtbl.add t.lines idx { backup = Bytes.sub t.media (idx * 64) 64; pending = false }
      done;
      Clock.advance t.clock (t.lat.store_ns *. float_of_int (last - first + 1));
      Metrics.incr t.metrics "pmem.stores" ~by:1;
      Metrics.incr t.metrics "pmem.store_lines" ~by:(last - first + 1)
    end;
    if atomic then Metrics.incr t.metrics "pmem.atomic_writes" ~by:1;
    blit t.media

  let mark t dirtied idx =
    match Hashtbl.find_opt t.lines idx with
    | Some l when not l.pending ->
        l.pending <- true;
        incr dirtied
    | _ -> ()

  let charge t ~issued ~dirtied =
    Metrics.incr t.metrics "pmem.clflush" ~by:issued;
    Metrics.incr t.metrics "pmem.clflush_writebacks" ~by:dirtied;
    Clock.advance t.clock
      (Latency.flush_batch_ns Latency.Clflush issued +. (t.lat.write_ns *. float_of_int dirtied))

  let clflush t ~off ~len =
    event t;
    if len > 0 then begin
      let first = off / 64 and last = (off + len - 1) / 64 and dirtied = ref 0 in
      for idx = first to last do
        mark t dirtied idx
      done;
      charge t ~issued:(last - first + 1) ~dirtied:!dirtied
    end

  let flush_lines t lines =
    let lines = List.sort_uniq compare lines and dirtied = ref 0 in
    List.iter
      (fun idx ->
        event t;
        mark t dirtied idx)
      lines;
    if lines <> [] then charge t ~issued:(List.length lines) ~dirtied:!dirtied

  let sfence t =
    event t;
    Metrics.incr t.metrics "pmem.sfence" ~by:1;
    Clock.advance t.clock t.lat.sfence_ns;
    Hashtbl.fold (fun idx l acc -> if l.pending then idx :: acc else acc) t.lines []
    |> List.iter (fun idx ->
           Hashtbl.remove t.lines idx;
           t.wear.(idx) <- t.wear.(idx) + 1;
           Metrics.incr t.metrics "pmem.lines_persisted" ~by:1)

  let crash_select t ~survive =
    Hashtbl.fold (fun idx l acc -> (idx, l) :: acc) t.lines []
    |> List.iter (fun (idx, l) ->
           if survive idx then t.wear.(idx) <- t.wear.(idx) + 1
           else Bytes.blit l.backup 0 t.media (idx * 64) 64);
    Hashtbl.reset t.lines;
    t.countdown <- None

  let crash ?seed t =
    let rng = match seed with Some s -> Tinca_util.Rng.create s | None -> t.rng in
    crash_select t ~survive:(fun _ -> Tinca_util.Rng.chance rng 0.5)

  let snapshot t =
    ( Bytes.copy t.media,
      Hashtbl.fold (fun idx l acc -> (idx, Bytes.copy l.backup, l.pending) :: acc) t.lines [],
      Array.copy t.wear )

  let restore t (media, lines, wear) =
    Bytes.blit media 0 t.media 0 (Bytes.length media);
    Hashtbl.reset t.lines;
    List.iter (fun (idx, b, pending) -> Hashtbl.add t.lines idx { backup = Bytes.copy b; pending }) lines;
    Array.blit wear 0 t.wear 0 (Array.length wear);
    t.countdown <- None

  let unfenced t = List.sort compare (Hashtbl.fold (fun idx _ acc -> idx :: acc) t.lines [])

  let torn t idx =
    match Hashtbl.find_opt t.lines idx with
    | None -> false
    | Some l -> not (Bytes.equal l.backup (Bytes.sub t.media (idx * 64) 64))
end

(* Run one operation on both sides; they must agree on whether the armed
   crash countdown fired. *)
let both what f_ref f_real =
  let fired f = try f (); false with Pmem.Crash_point -> true in
  let r = fired f_ref in
  Alcotest.(check bool) (what ^ ": same crash point") r (fired f_real)

let check_same what (m : Ref_pmem.t) p clock metrics =
  let lines = Bytes.length m.media / 64 in
  let unfenced = Ref_pmem.unfenced m in
  Alcotest.(check bool) (what ^ ": media") true (Digest.equal (Digest.bytes m.media) (Pmem.media_digest p));
  Alcotest.(check (array int)) (what ^ ": wear") m.wear
    (Array.init lines (fun i -> Pmem.wear_sum_in p ~off:(i * 64) ~len:64));
  Alcotest.(check (list int)) (what ^ ": torn_lines") (List.filter (Ref_pmem.torn m) unfenced) (torn p);
  Alcotest.(check int) (what ^ ": dirty_line_count") (Hashtbl.length m.lines) (Pmem.dirty_line_count p);
  Alcotest.(check bool) (what ^ ": sim clock") true
    (Float.equal (Clock.now_ns m.clock) (Clock.now_ns clock));
  Alcotest.(check (list (pair string int))) (what ^ ": metrics") (Metrics.to_list m.metrics)
    (Metrics.to_list metrics)

(* Resolve a crash on both sides with the same verdicts, recording the
   order each side asks for them in. *)
let crash_select_both m p ~survive =
  let asked_ref = ref [] and asked = ref [] in
  Ref_pmem.crash_select m ~survive:(fun idx -> asked_ref := idx :: !asked_ref; survive idx);
  Pmem.crash_select p ~survive:(fun idx -> asked := idx :: !asked; survive idx);
  Alcotest.(check (list int)) "crash_select draw order" (List.rev !asked_ref) (List.rev !asked)

let random_step g (m : Ref_pmem.t) p set snaps =
  let int n = Tinca_util.Rng.int g n in
  let size = Bytes.length m.media and lines = Bytes.length m.media / 64 in
  let range max_len =
    let len = int (max_len + 1) in
    let off = int (size - len + 1) in
    (off, len)
  in
  (* Three letters only, so rewrites often leave a line's content as it was. *)
  let data len = Bytes.init len (fun _ -> Char.chr (97 + int 3)) in
  match int 100 with
  | r when r < 25 ->
      let off, len = range 200 in
      let b = data len in
      both "write" (fun () -> Ref_pmem.store m ~off ~len (fun d -> Bytes.blit b 0 d off len))
        (fun () -> Pmem.write p ~off b)
  | r when r < 30 ->
      let off, len = range 100 in
      let b = data (len + 7) in
      both "write_sub" (fun () -> Ref_pmem.store m ~off ~len (fun d -> Bytes.blit b 7 d off len))
        (fun () -> Pmem.write_sub p ~off b ~pos:7 ~len)
  | r when r < 35 ->
      let off, len = range 300 in
      both "fill" (fun () -> Ref_pmem.store m ~off ~len (fun d -> Bytes.fill d off len 'b'))
        (fun () -> Pmem.fill p ~off ~len 'b')
  | r when r < 40 ->
      (* Store back what is there: dirty, but not torn. *)
      let off, len = range 200 in
      let b = Bytes.sub m.media off len in
      both "rewrite" (fun () -> Ref_pmem.store m ~off ~len (fun d -> Bytes.blit b 0 d off len))
        (fun () -> Pmem.write p ~off b)
  | r when r < 45 ->
      let off = 8 * int (size / 8) and v = Int64.of_int (int 4) in
      both "atomic_write8"
        (fun () -> Ref_pmem.store ~atomic:true m ~off ~len:8 (fun d -> Bytes.set_int64_le d off v))
        (fun () -> Pmem.atomic_write8 p ~off v)
  | r when r < 48 ->
      let off = 16 * int (size / 16) and b = data 16 in
      both "atomic_write16"
        (fun () -> Ref_pmem.store ~atomic:true m ~off ~len:16 (fun d -> Bytes.blit b 0 d off 16))
        (fun () -> Pmem.atomic_write16 p ~off b)
  | r when r < 58 ->
      let off, len = range 300 in
      both "clflush" (fun () -> Ref_pmem.clflush m ~off ~len) (fun () -> Pmem.clflush p ~off ~len)
  | r when r < 66 ->
      (* Unsorted, with duplicates. *)
      let l = List.init (int 13) (fun _ -> int lines) in
      let l = l @ List.filteri (fun i _ -> i mod 2 = 0) l in
      both "flush_lines" (fun () -> Ref_pmem.flush_lines m l) (fun () ->
          List.iter (Pmem.Lineset.add set) l;
          Pmem.flush_lines p set);
      Alcotest.(check bool) "flush_lines empties the set" true (Pmem.Lineset.is_empty set)
  | r when r < 78 -> both "sfence" (fun () -> Ref_pmem.sfence m) (fun () -> Pmem.sfence p)
  | r when r < 81 ->
      let seed = int 1000 in
      Ref_pmem.crash ~seed m;
      Pmem.crash ~seed p
  | 81 ->
      Ref_pmem.crash m;
      Pmem.crash p
  | r when r < 86 ->
      let k = 1 + int 3 in
      crash_select_both m p ~survive:(fun idx -> idx mod k = 0)
  | r when r < 89 -> snaps := Some (Ref_pmem.snapshot m, Pmem.snapshot p)
  | r when r < 92 -> (
      match !snaps with
      | Some (sm, sp) ->
          Ref_pmem.restore m sm;
          Pmem.restore p sp
      | None -> ())
  | r when r < 96 ->
      let k = 1 + int 6 in
      m.countdown <- Some k;
      Pmem.set_crash_countdown p (Some k)
  | _ ->
      m.countdown <- None;
      Pmem.set_crash_countdown p None

let test_differential_random () =
  List.iter
    (fun seed ->
      let p, clock, metrics = mk ~size:(96 * 64) ~seed () in
      let m = Ref_pmem.create ~seed ~size:(96 * 64) in
      let g = Tinca_util.Rng.create (1000 + seed) and snaps = ref None in
      let set = Pmem.Lineset.create () in
      for step = 1 to 600 do
        random_step g m p set snaps;
        check_same (Printf.sprintf "seed %d step %d" seed step) m p clock metrics
      done)
    [ 1; 2; 3; 4; 5 ]

(* More than 8192 lines dirty at once: the hashtable grew its bucket array
   twice, which reorders its fold, so seeded crashes, snapshots and
   restores must follow the grown order — and the shrunk one after a
   crash or restore resets the table. *)
let test_differential_large () =
  let nlines = 20_000 in
  let size = nlines * 64 in
  let p, clock, metrics = mk ~size ~seed:7 () in
  let m = Ref_pmem.create ~seed:7 ~size in
  let check what = check_same what m p clock metrics in
  let store off b =
    Ref_pmem.store m ~off ~len:(Bytes.length b) (fun d -> Bytes.blit b 0 d off (Bytes.length b));
    Pmem.write p ~off b
  in
  let g = Tinca_util.Rng.create 99 in
  let order = Array.init nlines Fun.id in
  Tinca_util.Rng.shuffle g order;
  (* Dirty 17,000 lines one at a time in a scrambled order, then persist
     a scattered third of them so the rest keep the grown table. *)
  Array.iteri (fun i idx -> if i < 17_000 then store (idx * 64) (Bytes.make 8 (Char.chr (97 + (i mod 26))))) order;
  check "17000 dirty";
  let third = List.filteri (fun i _ -> i mod 3 = 0) (Array.to_list (Array.sub order 0 17_000)) in
  Ref_pmem.flush_lines m third;
  (let set = Pmem.Lineset.create () in
   List.iter (Pmem.Lineset.add set) third;
   Pmem.flush_lines p set);
  Ref_pmem.sfence m;
  Pmem.sfence p;
  store 0 (Bytes.make 4096 'z');
  check "after partial fence";
  let snap_ref = Ref_pmem.snapshot m and snap = Pmem.snapshot p in
  Ref_pmem.crash ~seed:11 m;
  Pmem.crash ~seed:11 p;
  check "seeded crash over the grown table";
  Ref_pmem.restore m snap_ref;
  Pmem.restore p snap;
  check "restore";
  crash_select_both m p ~survive:(fun idx -> idx mod 2 = 0);
  check "crash_select after restore";
  Ref_pmem.restore m snap_ref;
  Pmem.restore p snap;
  Ref_pmem.crash m;
  Pmem.crash p;
  check "unseeded crash after restore"

(* --- flush batches ------------------------------------------------------- *)

let test_lineset_marks () =
  let set = Pmem.Lineset.create () in
  let contents () =
    let acc = ref [] in
    Pmem.Lineset.iter_rev (fun l -> acc := l :: !acc) set;
    !acc
  in
  Alcotest.(check bool) "fresh set is empty" true (Pmem.Lineset.is_empty set);
  Pmem.Lineset.add set 3;
  Pmem.Lineset.add set 1;
  Pmem.Lineset.add set 1;
  let mark = Pmem.Lineset.mark set in
  Alcotest.(check int) "mark counts every add" 3 mark;
  (* Bytes [130, 200) touch lines 2 and 3; an empty range touches none. *)
  Pmem.Lineset.add_range set ~off:130 ~len:70;
  Pmem.Lineset.add_range set ~off:640 ~len:0;
  Alcotest.(check (list int)) "insertion order, duplicates kept" [ 3; 1; 1; 2; 3 ] (contents ());
  Alcotest.check_raises "truncate beyond the set"
    (Invalid_argument "Pmem.Lineset.truncate: mark beyond the set") (fun () ->
      Pmem.Lineset.truncate set 6);
  Pmem.Lineset.truncate set mark;
  Alcotest.(check (list int)) "truncated back to the mark" [ 3; 1; 1 ] (contents ());
  (* Past the initial capacity: growth keeps every line. *)
  for l = 0 to 199 do
    Pmem.Lineset.add set l
  done;
  Alcotest.(check int) "grown" 203 (Pmem.Lineset.mark set);
  Alcotest.(check (list int)) "grown contents" ([ 3; 1; 1 ] @ List.init 200 Fun.id) (contents ());
  Pmem.Lineset.clear set;
  Alcotest.(check bool) "cleared" true (Pmem.Lineset.is_empty set);
  Alcotest.(check int) "mark after clear" 0 (Pmem.Lineset.mark set)

(* Batches built the way the commit paths build them — single lines in no
   order, duplicates, overlapping byte ranges, a mark and a truncate back
   to it — flush exactly like the reference model's flush of the sorted,
   deduplicated line list: media, wear, clock and counters, and one
   observer event per distinct line in ascending order.  One set serves
   every flush and is empty after each. *)
let test_lineset_differential () =
  let nlines = 96 in
  let size = nlines * 64 in
  let p, clock, metrics = mk ~size ~seed:3 () in
  let m = Ref_pmem.create ~seed:3 ~size in
  let g = Tinca_util.Rng.create 77 in
  let int n = Tinca_util.Rng.int g n in
  let issued = ref [] in
  Pmem.set_observer p
    (Some (function Pmem.Clflush { off; _ } -> issued := (off / 64) :: !issued | _ -> ()));
  let set = Pmem.Lineset.create () in
  for round = 1 to 300 do
    for _ = 0 to int 4 do
      let len = 1 + int 300 in
      let off = int (size - len + 1) in
      let b = Bytes.make len (Char.chr (97 + int 3)) in
      Ref_pmem.store m ~off ~len (fun d -> Bytes.blit b 0 d off len);
      Pmem.write p ~off b
    done;
    (* [kept] mirrors the set's lines, newest first. *)
    let kept = ref [] in
    let add_some () =
      for _ = 1 to int 6 do
        if Tinca_util.Rng.bool g then begin
          let l = int nlines in
          Pmem.Lineset.add set l;
          kept := l :: !kept
        end
        else begin
          let len = int 200 in
          let off = int (size - len + 1) in
          Pmem.Lineset.add_range set ~off ~len;
          if len > 0 then
            for l = off / 64 to (off + len - 1) / 64 do
              kept := l :: !kept
            done
        end
      done
    in
    add_some ();
    let mark = Pmem.Lineset.mark set and at_mark = !kept in
    add_some ();
    if int 3 = 0 then begin
      Pmem.Lineset.truncate set mark;
      kept := at_mark;
      add_some ()
    end;
    let what = Printf.sprintf "round %d" round in
    Alcotest.(check bool) (what ^ ": is_empty") (!kept = []) (Pmem.Lineset.is_empty set);
    issued := [];
    Ref_pmem.flush_lines m !kept;
    Pmem.flush_lines p set;
    Alcotest.(check (list int)) (what ^ ": issue order") (List.sort_uniq compare !kept)
      (List.rev !issued);
    Alcotest.(check bool) (what ^ ": set emptied") true (Pmem.Lineset.is_empty set);
    if int 2 = 0 then begin
      Ref_pmem.sfence m;
      Pmem.sfence p
    end;
    check_same what m p clock metrics
  done

(* An out-of-bounds line anywhere in the set fails the whole flush before
   a single line is issued: no event, no counter, no clock charge, no
   line changes state.  The set is emptied all the same. *)
let test_flush_lines_out_of_bounds () =
  let p, clock, metrics = mk ~size:(16 * 64) () in
  Pmem.write p ~off:0 (Bytes.make 128 'x');
  let set = Pmem.Lineset.create () in
  List.iter
    (fun bad ->
      let events = Pmem.event_count p
      and counters = Metrics.to_list metrics
      and now = Clock.now_ns clock in
      Pmem.Lineset.add set 1;
      Pmem.Lineset.add set bad;
      Pmem.Lineset.add set 0;
      Alcotest.check_raises
        (Printf.sprintf "line %d rejected" bad)
        (Invalid_argument
           (Printf.sprintf "Pmem.flush_lines: line %d out of bounds (device has 16)" bad))
        (fun () -> Pmem.flush_lines p set);
      Alcotest.(check int) "no event" events (Pmem.event_count p);
      Alcotest.(check (list (pair string int))) "no counter" counters (Metrics.to_list metrics);
      Alcotest.(check (float 0.0)) "no charge" now (Clock.now_ns clock);
      Alcotest.(check bool) "set emptied" true (Pmem.Lineset.is_empty set))
    [ 16; -1; 1000 ];
  (* Neither line was marked flush-pending: a fence leaves both dirty. *)
  Pmem.sfence p;
  Alcotest.(check int) "lines 0 and 1 still dirty" 2 (Pmem.dirty_line_count p)

(* --- allocation pin ------------------------------------------------------ *)

(* Unobserved and untraced, a warm device allocates nothing per line: each
   primitive costs the same minor words over 1 line as over 64 — a
   scatter-gather flush over a warm set included. *)
let test_line_layer_allocation () =
  Tinca_obs.Trace.disable ();
  let p, _, _ = mk ~size:(256 * 64) () in
  let one = Bytes.make 64 'a' and big = Bytes.make (64 * 64) 'b' and v16 = Bytes.make 16 'c' in
  let at = 128 * 64 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  let clean () = Pmem.persist p ~off:0 ~len:(Pmem.size p) in
  let dirty n = Pmem.write_sub p ~off:at big ~pos:0 ~len:(n * 64) in
  (* Warm up: grow the dirty stack past 64 + 1 lines, register every counter. *)
  Pmem.write p ~off:0 (Bytes.make (128 * 64) 'w');
  Pmem.atomic_write8 p ~off:0 1L;
  let set = Pmem.Lineset.create () in
  Pmem.Lineset.add set 0;
  Pmem.flush_lines p set;
  clean ();
  (* [f n] works on [n] lines of a clean device. *)
  let same what f =
    clean ();
    let w1 = f 1 in
    clean ();
    Alcotest.(check int) (what ^ ": 1 line vs 64") w1 (f 64);
    (* Boxed floats on the way to the clock at most: no event record. *)
    Alcotest.(check bool) (Printf.sprintf "%s: %d words" what w1) true (w1 <= 4)
  in
  same "write" (fun n -> words (fun () -> Pmem.write p ~off:at (if n = 1 then one else big)));
  same "fill" (fun n -> words (fun () -> Pmem.fill p ~off:at ~len:(n * 64) 'f'));
  same "atomic_write8" (fun n ->
      dirty n;
      words (fun () -> Pmem.atomic_write8 p ~off:0 7L));
  same "atomic_write16" (fun n ->
      dirty n;
      words (fun () -> Pmem.atomic_write16 p ~off:0 v16));
  same "clflush" (fun n ->
      dirty n;
      words (fun () -> Pmem.clflush p ~off:at ~len:(n * 64)));
  same "sfence" (fun n ->
      dirty n;
      Pmem.clflush p ~off:at ~len:(n * 64);
      words (fun () -> Pmem.sfence p));
  (* Unsorted, with a duplicate, into a set grown by an earlier flush:
     sorted and deduplicated in place. *)
  let fill n =
    for i = 0 to n - 1 do
      Pmem.Lineset.add set (128 + (i * 7 mod n))
    done;
    Pmem.Lineset.add set 128
  in
  fill 64;
  Pmem.flush_lines p set;
  same "flush_lines" (fun n ->
      dirty n;
      fill n;
      words (fun () -> Pmem.flush_lines p set));
  Pmem.sfence p;
  Alcotest.(check int) "every line flushed" 0 (Pmem.dirty_line_count p)

(* The crash explorer's per-state path: restore a snapshot, resolve it
   with [crash_select].  Once the device's draw-order scratch has grown,
   resolving allocates nothing, however many lines are unfenced. *)
let test_crash_select_allocation () =
  let p, _, _ = mk ~size:(512 * 64) () in
  Pmem.write p ~off:0 (Bytes.make (300 * 64) 'a');
  Pmem.clflush p ~off:(64 * 64) ~len:(64 * 64);
  let snap = Pmem.snapshot p in
  let keep = ref 0 in
  let survive idx = idx land !keep = 0 in
  let words () =
    Pmem.restore p snap;
    let w0 = Gc.minor_words () in
    Pmem.crash_select p ~survive;
    Gc.minor_words () -. w0
  in
  let baseline =
    let w0 = Gc.minor_words () in
    Gc.minor_words () -. w0
  in
  ignore (words ());
  List.iter
    (fun k ->
      keep := k;
      Alcotest.(check (float 0.0)) (Printf.sprintf "crash_select, mask %d" k) baseline (words ()))
    [ 0; 1; 3; 7 ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "pmem.semantics",
      [
        Alcotest.test_case "read back newest" `Quick test_read_back;
        Alcotest.test_case "persist survives crash" `Quick test_persist_survives_crash;
        Alcotest.test_case "unflushed lost (survival 0)" `Quick test_unflushed_lost_when_survival_zero;
        Alcotest.test_case "unflushed kept (survival 1)" `Quick test_unflushed_survives_when_survival_one;
        Alcotest.test_case "clflush alone not durable" `Quick test_clflush_without_fence_not_durable;
        Alcotest.test_case "fence completes flush" `Quick test_fence_makes_pending_durable;
        Alcotest.test_case "crash reverts to persisted" `Quick test_crash_reverts_to_last_persisted;
        Alcotest.test_case "per-line independence" `Quick test_crash_subset_is_per_line;
        q prop_persisted_prefix_survives;
        q prop_crash_no_invention;
      ] );
    ( "pmem.atomics",
      [
        Alcotest.test_case "atomic8 alignment" `Quick test_atomic8_alignment_enforced;
        Alcotest.test_case "atomic16 alignment" `Quick test_atomic16_alignment_enforced;
        Alcotest.test_case "atomic8 roundtrip" `Quick test_atomic8_roundtrip;
        Alcotest.test_case "atomic8 never tears" `Quick test_atomic8_never_tears;
        Alcotest.test_case "bounds checked" `Quick test_out_of_bounds_rejected;
      ] );
    ( "pmem.accounting",
      [
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "clock charges" `Quick test_clock_charges;
        Alcotest.test_case "technology cost ordering" `Quick test_tech_affects_cost;
        Alcotest.test_case "crash countdown hook" `Quick test_crash_countdown;
        Alcotest.test_case "wear accounting" `Quick test_wear_accounting;
        Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
      ] );
    ( "pmem.exploration",
      [
        Alcotest.test_case "torn_lines ascending" `Quick test_torn_lines_ordering;
        Alcotest.test_case "torn_lines skips rewrites" `Quick test_torn_lines_untorn;
        Alcotest.test_case "crash_select verdicts" `Quick test_crash_select_verdicts;
        Alcotest.test_case "snapshot/restore roundtrip" `Quick test_snapshot_restore_roundtrip;
        Alcotest.test_case "wear_max_in ranges" `Quick test_wear_max_in_ranges;
      ] );
    ( "pmem.line_layer",
      [
        Alcotest.test_case "matches the hashtable model" `Quick test_differential_random;
        Alcotest.test_case "matches it past 8192 dirty lines" `Quick test_differential_large;
        Alcotest.test_case "flush batch marks and order" `Quick test_lineset_marks;
        Alcotest.test_case "flush batches match the sorted list" `Quick test_lineset_differential;
        Alcotest.test_case "out-of-bounds flush issues nothing" `Quick
          test_flush_lines_out_of_bounds;
        Alcotest.test_case "allocation-free per line" `Quick test_line_layer_allocation;
        Alcotest.test_case "crash_select allocates nothing" `Quick test_crash_select_allocation;
      ] );
    ( "pmem.observer",
      [
        Alcotest.test_case "event per operation" `Quick test_observer_event_sequence;
        Alcotest.test_case "atomic8_int rejects negative" `Quick test_atomic8_int_rejects_negative;
      ] );
  ]
