(** The run loop: repeat a workload's rounds until the run's time is
    spent, check that every round reproduced the same simulated
    results, and reduce the rounds to the declared metrics. *)

val workload_names : string list

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in declaration order *)
  identity : string;  (** JSON object: the sim fingerprint and sample counts *)
  problems : string list;
}

(** Sub-seeds per run: round [i] of a run with seed [s] replays the
    inputs of seed [s * pool + i mod pool], and the simulated metrics pool
    the first [pool] rounds. *)
val pool : int

(** [run ~workload ~seed ~seconds ~traced] — untraced runs report every
    end-to-end metric, [setup_s] from round 1 on (round 0 warms caches
    and the heap); they run at least [pool + 1] rounds.  Traced runs
    spend half the time untraced (at least 2 rounds) and half traced (at
    least [pool + 1]) and report every per-layer metric, the [host.*]
    figures from the untraced half.  A run is correct
    when verification finds no problem and no operation failed.
    [small] selects the seconds-scale inputs the tests use.  [None] for
    an unknown workload. *)
val run :
  ?small:bool ->
  workload:string ->
  seed:int ->
  seconds:float ->
  traced:bool ->
  unit ->
  result option
