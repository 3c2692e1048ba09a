(** [crash_sweep]: {!Tinca_checker.Crash_check.explore} with its
    default fill-byte driver on a 1-shard logging engine under a
    budgeted subset cap.  An operation is one crash point.

    The seed picks the swept workloads: each round sweeps [sweeps]
    workloads whose seeds derive from it, all of one shape (transactions
    of 2, 3, 2, ... blocks, no reads), so seeds vary block choice and
    fill bytes rather than the amount of work.  The simulated end-to-end
    metrics (commit, read, recovery, write amplification) come from a
    crash-free replay of the same fill-byte generator run for
    [ref_commits] transactions with per-call timers; that replay must
    leave the medium and the sim clock exactly where the default
    driver's own workload leaves them. *)

type params = {
  sweeps : int;  (** workloads swept per round *)
  ncommits : int;  (** transactions per swept workload *)
  mask_cap : int;
  stride : int;  (** sweep every [stride]-th crash point *)
  ref_commits : int;  (** transactions in the crash-free reference replay *)
  plant_corruption : bool;  (** corrupt one read-back expectation (tests) *)
}

val default : params

(** A seconds-scale variant for the tests. *)
val small : params

(** The checker configs a seed generates. *)
val inputs : params -> seed:int -> Tinca_checker.Crash_check.config list

val round : ?params:params -> seed:int -> Layer.t -> Round.t
