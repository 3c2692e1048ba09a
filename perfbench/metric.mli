(** The declared metric set: every name the benchmark may print, with
    its unit, clock and direction, plus the layer map that says which
    end-to-end metric each layer should move and on which workload.
    [main.exe --declare] renders this as JSON ([perfbench/metrics.json]
    is that rendering, pinned by the tests). *)

type clock =
  | Host  (** the process's monotonic wall clock, or its [Gc] counters *)
  | Sim  (** the modelled device clock, {!Tinca_sim.Clock} *)
  | Count  (** a count or ratio of events, on no clock *)

type better = Lower | Higher

type decl = {
  name : string;
  unit : string;
  clock : clock;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

val end_to_end : decl list
val per_layer : decl list

(** The group-committer drain causes, as [Tinca.group_drains_by_cause]
    names them. *)
val drain_causes : string list

(** Span attribution groups: [(metric group, span name prefix, stages)]. *)
val span_groups : (string * string * string list) list

(** [Pmem.site] prefixes the site observer reports. *)
val site_prefixes : string list

(** Layer rows: [(layer, its metric prefixes, workload-level metrics it
    should move — end-to-end ones or the [host.*] figures —, workload
    where it is heavy, where it is light)]. *)
val layers : (string * string list * string list * string * string) list

(** The workloads, each with its one-line reason. *)
val workloads : (string * string) list

val default_seed : int
val holdout_seed : int

(** [[A-Za-z0-9_.-]+], at most 64 characters, starting with a letter or
    a digit. *)
val valid_name : string -> bool

(** A float as JSON: all its digits, non-finite values as 0. *)
val json_float : float -> string

(** The full declaration as one JSON document. *)
val declaration_json : unit -> string

(** The last output line: [{"correct", "attempted", "failed",
    "metrics"}], each metric with its declared unit.  Raises
    [Invalid_argument] on a name that is not declared. *)
val result_json :
  correct:bool -> attempted:int -> failed:int -> (string * float) list -> string
