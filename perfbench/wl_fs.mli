(** [fs_trace]: a synthesized zipf block trace (theta 0.9 over 4096
    blocks, 50% reads, an fsync every 8 writes) replayed through
    {!Tinca_fs.Fs} on the default Tinca stack (logging, 1 shard, 8 MiB
    PCM, SSD).  The 16 MiB target file is twice the NVM, so eviction,
    cleaning and disk traffic are all in play; a warm-up prefix of the
    trace runs before the measured phase. *)

type params = {
  nblocks : int;  (** file size in 4 KiB blocks *)
  warmup : int;  (** trace operations replayed before measuring *)
  ops : int;  (** trace operations synthesized for the measured phase *)
  nvm_bytes : int;
  plant_corruption : bool;  (** corrupt one read-back expectation (tests) *)
}

val default : params

(** A seconds-scale variant for the tests. *)
val small : params

(** The trace a seed generates, warm-up prefix included. *)
val inputs : params -> seed:int -> Tinca_workloads.Trace.op array

val round : ?params:params -> seed:int -> Layer.t -> Round.t
