let pool_size = 5

type t = { pool : bytes array; version : int array; initial : int -> bytes }

let create ~block_size ~nblocks ~initial =
  let pool =
    Array.init pool_size (fun k ->
        Bytes.init block_size (fun i -> Char.chr ((((i * 7) + (k * 61)) lxor (i lsr 5)) land 0xff)))
  in
  { pool; version = Array.make nblocks 0; initial }

(* Version 0 is [initial]; version v >= 1 is pool slot (blk + v) mod P, so
   consecutive versions of one block always differ. *)
let payload t blk v = if v = 0 then t.initial blk else t.pool.((blk + v) mod pool_size)
let next_payload t blk = payload t blk (t.version.(blk) + 1)
let advance t blk = t.version.(blk) <- t.version.(blk) + 1

let write t blk =
  let p = next_payload t blk in
  advance t blk;
  p

let expected t blk = payload t blk t.version.(blk)
let matches t blk data = Bytes.equal data (expected t blk)

(* The expectation moves one version ahead of anything written. *)
let corrupt = advance

let in_flight t read blocks =
  let all f = Array.for_all (fun b -> match read b with Some d -> f b d | None -> false) blocks in
  if all (fun b d -> Bytes.equal d (expected t b)) then `Pre
  else if all (fun b d -> Bytes.equal d (next_payload t b)) then `Post
  else `Mixed
