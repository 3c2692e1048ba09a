(** The host clock: the process's monotonic wall clock. *)

(** Nanoseconds since an arbitrary fixed origin. *)
val now_ns : unit -> float
