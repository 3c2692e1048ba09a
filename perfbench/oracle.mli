(** The verification oracle: the last committed payload of every block.

    Writes rotate through a small pool of distinct payloads, chosen by
    block and version, so a read that returns stale or misdirected data
    shows as a mismatch.  Blocks never written read as [initial]. *)

type t

(** Payloads in the pool. *)
val pool_size : int

val create : block_size:int -> nblocks:int -> initial:(int -> bytes) -> t

(** The payload the next version of [blk] carries (pure). *)
val next_payload : t -> int -> bytes

(** Record that the next version of [blk] is now the committed one. *)
val advance : t -> int -> unit

(** [next_payload] then [advance]. *)
val write : t -> int -> bytes

val expected : t -> int -> bytes
val matches : t -> int -> bytes -> bool

(** Plant a corruption: [blk]'s expected payload becomes a version that
    was never written, so its next comparison must fail. *)
val corrupt : t -> int -> unit

(** The state of a transaction over [blocks] that a crash may have cut
    short, as [read] returns them: [`Pre] when all still carry their
    committed payload, [`Post] when all carry their next one, [`Mixed]
    (an atomicity violation) otherwise. *)
val in_flight : t -> (int -> bytes option) -> int array -> [ `Pre | `Post | `Mixed ]
