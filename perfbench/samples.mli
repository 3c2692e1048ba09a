(** A growable buffer of float samples and the percentile helpers every
    reported timing goes through. *)

type t

val create : ?capacity:int -> unit -> t
val add : t -> float -> unit
val count : t -> int
val sum : t -> float

(** [nan] when empty. *)
val mean : t -> float

(** Append every sample of [src] to [dst]. *)
val append : dst:t -> t -> unit

(** Nearest-rank percentile, [p] in (0, 100].  [nan] when empty. *)
val percentile : t -> float -> float

val median : t -> float

(** The highest percentile of the ladder 99.9, 99, 95, 90, 75, 50 that
    leaves at least ten samples strictly beyond its nearest rank among
    [n] samples; [None] when even the median does not. *)
val tail_pct : int -> float option

(** [tail t ~want] is [(p, v)]: [p] is [want] capped at {!tail_pct}
    (50 when {!tail_pct} is [None]), [v] the percentile at [p]. *)
val tail : t -> want:float -> float * float

(** Median of a list of floats ([nan] when empty). *)
val median_of : float list -> float
