(** Survival subsets of one crash point's torn lines, as bit masks.

    Bit [j] of a mask says whether line [torn.(j)] of
    {!Tinca_pmem.Pmem.torn_lines} survives the crash.  Those are exactly
    the unfenced lines whose verdict changes the medium, so two masks
    give the same medium if and only if they are equal: comparing masks
    deduplicates post-crash media exactly, and no medium is ever hashed.

    A mask is an [int] when a crash point is enumerated exhaustively
    ({!set_bits}), or one slot of a reusable byte buffer when it is
    sampled ({!sample}).  A [t] is reused across crash points; once its
    buffer has grown, selecting masks and resolving crashes through
    {!survive} allocate nothing. *)

type t

val create : unit -> t

(** [start t torn] begins a crash point over [torn] (ascending, as
    {!Tinca_pmem.Pmem.torn_lines} returns it).  The current mask is
    empty (every torn line lost). *)
val start : t -> int array -> unit

(** [set_bits t m]: the current mask is the [int] [m] (bit [j] = line
    [j] survives); requires fewer than 63 torn lines. *)
val set_bits : t -> int -> unit

(** [sample t rng ~n ~newest_first] fills [n + 2] slots: slot 0 is the
    all-lost corner, slot 1 the all-survive corner, and slots [2 ..]
    hold [n] masks drawn from [rng], one {!Tinca_util.Rng.bool} per torn
    line in ascending order, mask after mask.  With [newest_first] the
    last mask drawn goes to slot 2, else the first.  The current mask is
    unchanged. *)
val sample : t -> Tinca_util.Rng.t -> n:int -> newest_first:bool -> unit

(** [set_slot t i]: the current mask is slot [i] of the last {!sample}. *)
val set_slot : t -> int -> unit

(** [seen t i]: slot [i] equals one of the slots [0 .. i - 1] — the
    medium it gives was already produced at this crash point. *)
val seen : t -> int -> bool

(** [survive t idx] is the current mask's verdict for line [idx]; lines
    that are not torn survive (either verdict gives the same medium).
    Partially applied once, [survive t] is the [~survive] argument of
    {!Tinca_pmem.Pmem.crash_select}. *)
val survive : t -> int -> bool

(** The torn lines the current mask keeps and loses, ascending. *)
val partition : t -> int list * int list
