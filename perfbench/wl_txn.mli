(** [txn_log] and [txn_page]: eight logical streams issue operations
    round-robin against the {!Tinca} facade over a prefilled 1024-block
    universe that fits in a 16 MiB NVM.  30% of operations read and 70%
    commit a transaction; either touches 1 (60%), 8 (35%) or 64 (5%)
    distinct blocks.  The read share and the 64-block share are exact;
    the seed places them and draws the rest.

    - [txn_log]: logging at 4 shards with a 4 ms group window; each
      stream runs [commit_async] at depth 1, awaiting its previous
      ticket before its next operation.
    - [txn_page]: the same inputs under paging at 1 shard with
      synchronous commits. *)

type scheme = Log | Page

type params = {
  universe : int;
  streams : int;
  ops : int;  (** measured operations per round *)
  nvm_bytes : int;
  plant_corruption : bool;  (** corrupt one read-back expectation (tests) *)
}

val default : params

(** A seconds-scale variant for the tests. *)
val small : params

type op = Read of int array | Txn of int array

(** The operation sequence a seed generates (the same for both schemes). *)
val inputs : params -> seed:int -> op array

val round : ?params:params -> scheme -> seed:int -> Layer.t -> Round.t
