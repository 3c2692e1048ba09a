(* Unit + property tests for tinca_util. *)
open Tinca_util

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next64 a) (Rng.next64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  let _ = Rng.next64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let test_rng_split_differs () =
  let a = Rng.create 6 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" false (Int64.equal (Rng.next64 a) (Rng.next64 b))

(* Golden vectors: MD5 of the first 64 draws of each kind, as the
   four-[int64]-field generator produced them.  A change of the state's
   representation must keep every stream bit-identical. *)
let rng_trace kind rng =
  let b = Buffer.create 4096 in
  for _ = 1 to 64 do
    match kind with
    | `Next64 -> Printf.bprintf b "%Ld " (Rng.next64 rng)
    | `Int -> Printf.bprintf b "%d " (Rng.int rng 1_000_003)
    | `Float -> Printf.bprintf b "%h " (Rng.float rng)
    | `Bool -> Printf.bprintf b "%b " (Rng.bool rng)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rng_kinds = [ `Next64; `Int; `Float; `Bool ]

let test_rng_golden () =
  let check what expected rng_of_kind =
    List.iter2
      (fun kind want -> Alcotest.(check string) what want (rng_trace kind (rng_of_kind ())))
      rng_kinds expected
  in
  List.iter
    (fun (seed, first, expected) ->
      Alcotest.(check int64) (Printf.sprintf "seed %d: first next64" seed) first
        (Rng.next64 (Rng.create seed));
      check (Printf.sprintf "seed %d" seed) expected (fun () -> Rng.create seed))
    [
      ( 0,
        -7355399402456485196L,
        [ "27534e082c367362751a21dee9eff428"; "44bbd0c478efab19d2cd281c3a2424e9";
          "26bdd912c7991d06582c3aa7eb309034"; "fbbedc13c56cc9ec2f916b5797bf631f" ] );
      ( 1,
        -5480124913605472059L,
        [ "61da8f8ec17553c2ff09567282724d9f"; "08117f695c2faefa640f6ffb5cd2fd38";
          "70a683a70afec265dd855c7c08fec586"; "59f3067ff5e0bdfc8933d9b3bf711ac5" ] );
      ( 2024,
        1029197146548041518L,
        [ "5ac132e7fba762996730d51f22b00179"; "20ddc0e6514dc64ec3c92e351d02812d";
          "f5b6980f70e36be44a25fceb6c304cfb"; "671f2670d2d8de4b980046f90ca704d6" ] );
    ];
  (* After ten draws, a copy and a split; then each of the three
     generators runs all four kinds back to back. *)
  let r = Rng.create 2024 in
  for _ = 1 to 10 do
    ignore (Rng.next64 r)
  done;
  let c = Rng.copy r in
  let s = Rng.split r in
  List.iter
    (fun (what, g, expected) ->
      List.iter2 (fun kind want -> Alcotest.(check string) what want (rng_trace kind g)) rng_kinds expected)
    [
      ( "copy",
        c,
        [ "75778b5405eb705988430ee16fd4623b"; "e55e964733c7ac4d1ad24578abf860f3";
          "eb995de8cd1fe412cab63de7f82d95a2"; "04e7362ac8915ae7c06341396d212ca2" ] );
      ( "split",
        s,
        [ "a4d16512f7f556237f74ae71a31a389d"; "5b2b38edea9483433cc507cbf3fc7b2b";
          "2a574792d4b3f36b47f8f0c1722a4218"; "b34d319172668ce7622f92522fa0a415" ] );
      ( "split parent",
        r,
        [ "ba7135257cc3c9f5ef15a7ace5571eff"; "71033f6db6fc4543d695db6ead1ff792";
          "6f02f64369f76e23a874859c4c49f095"; "a29c1da25e0c60be1ec0b601ef2bf6b3" ] );
    ]

(* [bool] and [int] draws allocate nothing: 1000 calls cost the same
   minor words as an empty loop. *)
let test_rng_allocation () =
  let r = Rng.create 11 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let acc = ref 0 in
  let empty = words (fun () -> for _ = 1 to 1000 do acc := !acc + 1 done) in
  let bools = words (fun () -> for _ = 1 to 1000 do if Rng.bool r then incr acc done) in
  let ints = words (fun () -> for _ = 1 to 1000 do acc := !acc + Rng.int r 97 done) in
  Alcotest.(check (float 0.0)) "Rng.bool: 0 words per call" empty bools;
  Alcotest.(check (float 0.0)) "Rng.int: 0 words per call" empty ints;
  ignore (Sys.opaque_identity !acc)

let test_rng_shuffle_permutation () =
  let r = Rng.create 8 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let r = Rng.create 9 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Zipf.sample z r in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (abs (c - 5000) < 700))
    counts

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let r = Rng.create 10 in
  let hot = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Zipf.sample z r < 10 then incr hot
  done;
  (* With theta=0.99 the top-1% of ranks absorbs a large share. *)
  Alcotest.(check bool) "head is hot" true (!hot > n / 4)

let test_codec_roundtrips () =
  let b = Bytes.make 32 '\000' in
  Codec.set_u8 b 0 0xAB;
  Alcotest.(check int) "u8" 0xAB (Codec.get_u8 b 0);
  Codec.set_u16 b 2 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Codec.get_u16 b 2);
  Codec.set_u32 b 4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.get_u32 b 4);
  Codec.set_u48 b 8 0xABCDEF012345;
  Alcotest.(check int) "u48" 0xABCDEF012345 (Codec.get_u48 b 8);
  Codec.set_u56 b 16 0xA1B2C3D4E5F607;
  Alcotest.(check int) "u56" 0xA1B2C3D4E5F607 (Codec.get_u56 b 16);
  Codec.set_u64 b 24 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Codec.get_u64 b 24)

let test_codec_u64_int () =
  let b = Bytes.make 8 '\000' in
  Codec.set_u64_int b 0 max_int;
  Alcotest.(check int) "max_int" max_int (Codec.get_u64_int b 0);
  Codec.set_u64 b 0 (-1L);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Codec.get_u64_int: out of int range")
    (fun () -> ignore (Codec.get_u64_int b 0))

let test_crc32_known () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "crc" 0xCBF43926l (Codec.crc32 b ~pos:0 ~len:9)

let test_crc32_detects_change () =
  let b = Bytes.of_string "hello world, this is a block" in
  let c1 = Codec.crc32 b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set b 5 'X';
  let c2 = Codec.crc32 b ~pos:0 ~len:(Bytes.length b) in
  Alcotest.(check bool) "crc changed" false (Int32.equal c1 c2)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Histogram.max_value h)

let test_histogram_percentile_interp () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0.0; 10.0 ];
  Alcotest.(check (float 1e-9)) "p25" 2.5 (Histogram.percentile h 25.0)

let test_histogram_stddev () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-6)) "stddev" 2.0 (Histogram.stddev h)

let test_tabular_render () =
  let t = Tabular.create ~title:"T" [ "a"; "bb" ] in
  Tabular.add_row t [ "1"; "2" ];
  let s = Tabular.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.check_raises "arity enforced" (Invalid_argument "Tabular.add_row: arity mismatch")
    (fun () -> Tabular.add_row t [ "only-one" ])

(* Property tests *)

let prop_codec_u56_roundtrip =
  QCheck.Test.make ~name:"codec u56 roundtrip" ~count:500
    QCheck.(int_bound ((1 lsl 56) - 1))
    (fun v ->
      let b = Bytes.make 7 '\000' in
      Tinca_util.Codec.set_u56 b 0 v;
      Tinca_util.Codec.get_u56 b 0 = v)

let prop_codec_u32_roundtrip =
  QCheck.Test.make ~name:"codec u32 roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFFF)
    (fun v ->
      let b = Bytes.make 4 '\000' in
      Tinca_util.Codec.set_u32 b 0 v;
      Tinca_util.Codec.get_u32 b 0 = v)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles monotone" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let p25 = Histogram.percentile h 25.0
      and p50 = Histogram.percentile h 50.0
      and p75 = Histogram.percentile h 75.0 in
      p25 <= p50 && p50 <= p75)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf samples in range" ~count:200
    QCheck.(pair (int_range 1 500) (float_bound_inclusive 1.5))
    (fun (n, theta) ->
      let z = Zipf.create ~n ~theta in
      let r = Rng.create (n + int_of_float (theta *. 100.0)) in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Zipf.sample z r in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
        Alcotest.test_case "split differs" `Quick test_rng_split_differs;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "golden streams" `Quick test_rng_golden;
        Alcotest.test_case "bool and int allocate nothing" `Quick test_rng_allocation;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "uniform when theta=0" `Quick test_zipf_uniform;
        Alcotest.test_case "skewed when theta=0.99" `Quick test_zipf_skew;
        q prop_zipf_in_range;
      ] );
    ( "util.codec",
      [
        Alcotest.test_case "roundtrips" `Quick test_codec_roundtrips;
        Alcotest.test_case "u64 int guard" `Quick test_codec_u64_int;
        Alcotest.test_case "crc32 known value" `Quick test_crc32_known;
        Alcotest.test_case "crc32 detects change" `Quick test_crc32_detects_change;
        q prop_codec_u56_roundtrip;
        q prop_codec_u32_roundtrip;
      ] );
    ( "util.histogram",
      [
        Alcotest.test_case "basic stats" `Quick test_histogram_basic;
        Alcotest.test_case "percentile interpolation" `Quick test_histogram_percentile_interp;
        Alcotest.test_case "stddev" `Quick test_histogram_stddev;
        q prop_histogram_percentile_monotone;
      ] );
    ("util.tabular", [ Alcotest.test_case "render + arity" `Quick test_tabular_render ]);
  ]
