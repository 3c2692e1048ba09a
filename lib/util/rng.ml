(* The xoshiro state s0..s3 lives in a 32-byte buffer rather than in
   four mutable [int64] fields: reading and writing it through
   [Bytes.get_int64_le]/[set_int64_le] keeps every intermediate value
   unboxed, so the draws that return an [int], [float] or [bool] allocate
   nothing.  Only [next64], whose result is an [int64], boxes. *)
type t = Bytes.t

(* splitmix64, used to expand the seed into the xoshiro state so that
   low-entropy seeds (0, 1, 2, ...) still give well-mixed streams. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64 state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  Inlined into each draw, so the result stays
   unboxed until the caller narrows it. *)
let[@inline always] step t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0
  and s1 = Bytes.get_int64_le t 8
  and s2 = Bytes.get_int64_le t 16
  and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_le t 0 (logxor s0 s3);
  Bytes.set_int64_le t 8 (logxor s1 s2);
  Bytes.set_int64_le t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let next64 t = step t
let split t = of_seed64 (step t)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  v mod bound

let float t =
  (* 53 high bits -> [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (step t) 11) in
  float_of_int v /. 9007199254740992.0

let bool t = Int64.to_int (step t) land 1 <> 0
let chance t p = float t < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
