(** One round of a workload: set up, run the measured phase, verify.

    A run repeats rounds until its time is spent.  Every round of a run
    replays the same inputs from a fresh environment, so each round's
    simulated results must be identical; host timings are pooled. *)

type t = {
  setup_s : float;  (** env creation, format, prefill/prealloc, inputs *)
  gen_ms : float;  (** input generation, part of [setup_s] *)
  prealloc_ms : float;  (** the rest of [setup_s]: env, format, prefill or prealloc *)
  ops : int;  (** measured operations attempted *)
  failed : int;  (** measured operations that returned an error *)
  host_s : float;  (** wall time of the measured phase *)
  op_host : Samples.t;  (** per-op wall ns *)
  commit_sim : Samples.t;  (** per-commit sim ns until durable *)
  read_sim : Samples.t;  (** per-read sim ns *)
  sim_ns : float;  (** sim time of the measured phase *)
  minor_words : float;  (** [Gc.minor_words] over the measured phase *)
  recover_sim_ns : float;  (** the end-of-round recovery after a crash *)
  write_amp : float;  (** NVM line write-backs x 64 B / user bytes committed *)
  problems : string list;  (** verification failures; empty when correct *)
  fingerprint : (string * string) list;  (** sim clock, media digest, counters *)
  layer : (string * float) list;  (** per-layer rows (traced rounds only) *)
}

(** The sim-derived values that must repeat exactly across rounds. *)
val sim_identity : t -> string

(** The final sim clock, the media digest and every counter, as
    fingerprint rows. *)
val fingerprint :
  clock:Tinca_sim.Clock.t ->
  pmem:Tinca_pmem.Pmem.t ->
  metrics:Tinca_sim.Metrics.t ->
  (string * string) list
