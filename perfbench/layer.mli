(** Per-layer attribution for the traced run, measured from outside the
    library: host timers around the layer calls the benchmark makes or
    wraps, a {!Tinca_pmem.Pmem} observer that counts work per call-site
    prefix, {!Tinca_obs.Trace} span attribution, and per-layer ratios
    from the simulator's counter registry.

    Untraced runs create a layer with [traced = false]: every recording
    entry point is then a no-op and no wrapper is installed. *)

type t

val create : traced:bool -> t
val traced : t -> bool

(** Recording is on only inside a traced run's measured phase. *)
val recording : t -> bool

(** Start recording: enables {!Tinca_obs.Trace} (no-op when untraced). *)
val start : t -> unit

(** Count [pmem]'s events per call-site prefix while recording (no-op
    when untraced). *)
val attach : t -> Tinca_pmem.Pmem.t -> unit

(** Stop recording; returns the span and site metrics of the phase,
    normalized by [ops] and [sim_ns] (empty when untraced), and
    disables tracing. *)
val stop : t -> ops:int -> sim_ns:float -> (string * float) list

(** [record t key v] adds a sample to timer [key] while recording. *)
val record : t -> string -> float -> unit

(** Samples of timer [key] so far (empty if never recorded). *)
val timer : t -> string -> Samples.t

(** Host ns spent in wrapped [commit_blocks] calls, and blocks they
    committed, while recording (for fs.fsync self time). *)
val commit_host_ns : t -> float

val commit_blocks : t -> int

(** Wrap a backend's [read_block]/[commit_blocks] with host and sim
    timers ([stacks.*]); identity when untraced. *)
val wrap_backend : t -> Tinca_sim.Clock.t -> Tinca_fs.Backend.t -> Tinca_fs.Backend.t

(** Time [f] on the host clock into timer [key] while recording. *)
val time : t -> string -> (unit -> 'a) -> 'a

(** Per-layer rows derived from the counter deltas of a measured phase:
    [cache.*] (logging counters), [ring.head_advances_per_commit],
    [shard.*] ratios, [pmem.*] and [disk.*]. *)
val counter_metrics :
  delta:(string -> int) -> ops:int -> commits:int -> wear_max:int -> (string * float) list

(** Numeric value of a stats row ([0] when absent). *)
val kv : (string * string) list -> string -> float
