open Tinca_sim

exception Crash_point

let line_size = 64

type event =
  | Store of { off : int; len : int }
  | Atomic_write of { off : int; len : int }
  | Clflush of { off : int; len : int }
  | Sfence
  | Crash

(* The volatile line layer is flat so that, once its buffers are warm,
   dirtying, flushing and fencing a line allocates nothing:

   - [state] holds one 32-bit word per line: 0 = clean, [pos + 1] =
     dirty, [-(pos + 1)] = flush-pending, where [pos] is the line's
     position in the dirty-line stack;
   - [dirty] is that stack: the non-durable lines in the order they were
     dirtied ([sfence] compacts it in place, keeping that order);
   - [arena] holds each dirty line's rollback content (its last durable
     64 B) at slot [pos], moving with the line when the stack compacts;
   - [order] is scratch for {!draw_order} and {!torn_lines}, grown to
     the length of [dirty] on first use, so that resolving a crash
     allocates nothing either once it has grown.

   [buckets] mirrors the bucket count of the [(int, line) Hashtbl.t] this
   layer replaced (created at 4096, doubled when the dirty count exceeds
   twice the bucket count, back to 4096 on [crash]/[crash_select]/
   [restore]) so that {!draw_order} can replay that table's fold order. *)
let initial_buckets = 4096
let initial_capacity = 64

type t = {
  media : Bytes.t;
  state : Bytes.t;
  mutable dirty : int array;
  mutable arena : Bytes.t;
  mutable order : int array;
  mutable ndirty : int;
  mutable buckets : int;
  clock : Clock.t;
  metrics : Metrics.t;
  tech : Latency.nvm_tech;
  flush_instr : Latency.flush_instr;
  lat : Latency.nvm;
  rng : Tinca_util.Rng.t;
  wear : int array;
  mutable countdown : int; (* 0 = disarmed *)
  mutable events : int;
  mutable observer : (event -> unit) option;
  mutable site : string;
}

let create ?(seed = 42) ?(flush_instr = Latency.Clflush) ~clock ~metrics ~tech ~size () =
  if size <= 0 || size mod line_size <> 0 then
    invalid_arg "Pmem.create: size must be a positive multiple of 64";
  let nlines = size / line_size in
  {
    media = Bytes.make size '\000';
    state = Bytes.make (4 * nlines) '\000';
    dirty = Array.make initial_capacity 0;
    arena = Bytes.create (initial_capacity * line_size);
    order = [||];
    ndirty = 0;
    buckets = initial_buckets;
    clock;
    metrics;
    tech;
    flush_instr;
    lat = Latency.nvm_of_tech ~flush_instr tech;
    rng = Tinca_util.Rng.create seed;
    wear = Array.make nlines 0;
    countdown = 0;
    events = 0;
    observer = None;
    site = "";
  }

let size t = Bytes.length t.media
let tech t = t.tech
let flush_instr t = t.flush_instr

(* --- event observation (lib/check's persistence sanitizer) -------------- *)

let set_observer t obs = t.observer <- obs
let set_site t s = t.site <- s
let site t = t.site

let event t =
  t.events <- t.events + 1;
  if t.countdown > 0 then
    if t.countdown <= 1 then raise Crash_point else t.countdown <- t.countdown - 1

let check_range t off len =
  if off < 0 || len < 0 || off + len > Bytes.length t.media then
    invalid_arg
      (Printf.sprintf "Pmem: range [%d, %d) out of bounds (size %d)" off (off + len)
         (Bytes.length t.media))

let line_state t idx = Int32.to_int (Bytes.get_int32_le t.state (4 * idx))
let set_line_state t idx s = Bytes.set_int32_le t.state (4 * idx) (Int32.of_int s)

(* Append a clean line to the dirty stack, with the 64 B of [src] at
   [src_off] as its rollback content. *)
let push_dirty t idx src src_off =
  let pos = t.ndirty in
  if pos = Array.length t.dirty then begin
    let dirty = Array.make (2 * pos) 0 and arena = Bytes.create (2 * pos * line_size) in
    Array.blit t.dirty 0 dirty 0 pos;
    Bytes.blit t.arena 0 arena 0 (pos * line_size);
    t.dirty <- dirty;
    t.arena <- arena
  end;
  t.dirty.(pos) <- idx;
  Bytes.blit src src_off t.arena (pos * line_size) line_size;
  set_line_state t idx (pos + 1);
  t.ndirty <- pos + 1;
  if t.ndirty > 2 * t.buckets then t.buckets <- 2 * t.buckets

(* Make sure the line is in the volatile layer before mutating it,
   snapshotting the currently-durable content as rollback state.  A
   store into a flush-pending line resolves the in-flight write-back
   adversarially: it may or may not have reached the medium. *)
let dirty_line t idx =
  let s = line_state t idx in
  if s = 0 then push_dirty t idx t.media (idx * line_size)
  else if s < 0 then begin
    if Tinca_util.Rng.bool t.rng then
      Bytes.blit t.media (idx * line_size) t.arena ((-s - 1) * line_size) line_size;
    set_line_state t idx (-s)
  end

(* Start the write-back of [idx]; true when the line was dirty (a clean
   or already flush-pending line makes the flush a no-op). *)
let flush_line t idx =
  let s = line_state t idx in
  if s > 0 then set_line_state t idx (-s);
  s > 0

(* Empty the volatile layer without touching the medium. *)
let clear_lines t =
  for pos = 0 to t.ndirty - 1 do
    set_line_state t t.dirty.(pos) 0
  done;
  t.ndirty <- 0;
  t.buckets <- initial_buckets

(* Restore the max-heap property of [a.(0 .. len - 1)] below [root]. *)
let rec sift_down (a : int array) root len =
  let child = (2 * root) + 1 in
  if child < len then begin
    let c = if child + 1 < len && a.(child + 1) > a.(child) then child + 1 else child in
    if a.(c) > a.(root) then begin
      let v = a.(root) in
      a.(root) <- a.(c);
      a.(c) <- v;
      sift_down a c len
    end
  end

(* In-place heapsort of [a.(0 .. n - 1)], ascending: unlike [Array.sort]
   it sorts a prefix and allocates nothing. *)
let sort_prefix a n =
  for root = (n / 2) - 1 downto 0 do
    sift_down a root n
  done;
  for last = n - 1 downto 1 do
    let v = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- v;
    sift_down a 0 last
  done

(* A flush batch: line indices in the order they were added, duplicates
   kept, in an array that is allocated on the first add, doubles when
   full and is never shrunk, so a warm set takes lines without allocating
   and an unused one costs nothing.  [flush_lines] sorts and deduplicates
   it in place. *)
module Lineset = struct
  type t = { mutable lines : int array; mutable len : int }

  let create () = { lines = [||]; len = 0 }

  let add s idx =
    if s.len = Array.length s.lines then begin
      let lines = Array.make (max initial_capacity (2 * s.len)) 0 in
      Array.blit s.lines 0 lines 0 s.len;
      s.lines <- lines
    end;
    s.lines.(s.len) <- idx;
    s.len <- s.len + 1

  let add_range s ~off ~len =
    if len > 0 then
      for idx = off / line_size to (off + len - 1) / line_size do
        add s idx
      done

  let clear s = s.len <- 0
  let is_empty s = s.len = 0
  let mark s = s.len

  let truncate s m =
    if m < 0 || m > s.len then invalid_arg "Pmem.Lineset.truncate: mark beyond the set";
    s.len <- m

  let iter_rev f s =
    for i = s.len - 1 downto 0 do
      f s.lines.(i)
    done
end

let order_scratch t =
  if Array.length t.order < t.ndirty then t.order <- Array.make (Array.length t.dirty) 0;
  t.order

(* Fill [order.(0 .. ndirty - 1)] with the dirty-stack positions in the
   order the replaced hashtable's [fold] listed its lines: bucket
   [Hashtbl.hash idx land (buckets - 1)] descending, oldest-dirtied first
   within a bucket.  [crash] draws survival per line in this order, so
   keeping it keeps every seeded crash outcome — and with it the
   simulated results — bit-identical to those of the hashtable layer.
   Each sort key packs the reversed bucket above the position, which
   fits in 31 bits; keys are distinct, so any correct sort agrees. *)
let draw_order t =
  let mask = t.buckets - 1 and order = order_scratch t in
  for pos = 0 to t.ndirty - 1 do
    order.(pos) <- ((mask - (Hashtbl.hash t.dirty.(pos) land mask)) lsl 31) lor pos
  done;
  sort_prefix order t.ndirty;
  for i = 0 to t.ndirty - 1 do
    order.(i) <- order.(i) land 0x7fff_ffff
  done

let first_line off = off / line_size
let last_line off len = (off + len - 1) / line_size

(* Every hardware event fans out to the attached observer (the
   persistence sanitizer keeps sole ownership of [set_observer]) and,
   when span tracing is on, to the tracer as per-span counters.  Callers
   build the event only when [observed], so an unobserved device
   allocates nothing for it.  Write-back attribution is noted separately
   at the flush sites, where the dirty-line count is known. *)
let observed t = Option.is_some t.observer || Tinca_obs.Trace.enabled ()

let emit t ev =
  (match t.observer with Some f -> f ev | None -> ());
  if Tinca_obs.Trace.enabled () then
    match ev with
    | Store { off; len } ->
        Tinca_obs.Trace.note "pmem.store_lines" ~by:(last_line off len - first_line off + 1)
    | Atomic_write _ -> Tinca_obs.Trace.note "pmem.atomic_writes" ~by:1
    | Clflush { off; len } ->
        Tinca_obs.Trace.note "pmem.clflush" ~by:(last_line off len - first_line off + 1)
    | Sfence -> Tinca_obs.Trace.note "pmem.sfence" ~by:1
    | Crash -> ()

let store_range t off len =
  event t;
  if len > 0 then begin
    let first = first_line off and last = last_line off len in
    for idx = first to last do
      dirty_line t idx
    done;
    let nlines = last - first + 1 in
    Clock.advance t.clock (t.lat.store_ns *. float_of_int nlines);
    Metrics.incr t.metrics "pmem.stores" ~by:1;
    Metrics.incr t.metrics "pmem.store_lines" ~by:nlines
  end

let write_sub t ~off src ~pos ~len =
  check_range t off len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Pmem.write_sub: bad source range";
  store_range t off len;
  Bytes.blit src pos t.media off len;
  if len > 0 && observed t then emit t (Store { off; len })

let write t ~off src = write_sub t ~off src ~pos:0 ~len:(Bytes.length src)

(* Vectored write: all ranges are validated before any byte is stored, so
   a bad chunk cannot leave a partial scatter behind. *)
let writev t chunks =
  List.iter (fun (off, src) -> check_range t off (Bytes.length src)) chunks;
  List.iter (fun (off, src) -> write t ~off src) chunks

let fill t ~off ~len c =
  check_range t off len;
  store_range t off len;
  Bytes.fill t.media off len c;
  if len > 0 && observed t then emit t (Store { off; len })

let atomic_write8 t ~off v =
  check_range t off 8;
  if off mod 8 <> 0 then invalid_arg "Pmem.atomic_write8: misaligned";
  store_range t off 8;
  Metrics.incr t.metrics "pmem.atomic_writes" ~by:1;
  Bytes.set_int64_le t.media off v;
  if observed t then emit t (Atomic_write { off; len = 8 })

let atomic_write8_int t ~off v =
  if v < 0 then invalid_arg "Pmem.atomic_write8_int: negative value";
  atomic_write8 t ~off (Int64.of_int v)

let atomic_write16 t ~off v =
  check_range t off 16;
  if off mod 16 <> 0 then invalid_arg "Pmem.atomic_write16: misaligned";
  if Bytes.length v <> 16 then invalid_arg "Pmem.atomic_write16: value must be 16 bytes";
  store_range t off 16;
  Metrics.incr t.metrics "pmem.atomic_writes" ~by:1;
  Bytes.blit v 0 t.media off 16;
  if observed t then emit t (Atomic_write { off; len = 16 })

let charge_read t off len =
  if len > 0 then begin
    let nlines = last_line off len - first_line off + 1 in
    Clock.advance t.clock (t.lat.read_ns *. float_of_int nlines);
    Metrics.incr t.metrics "pmem.read_lines" ~by:nlines
  end

let read t ~off ~len =
  check_range t off len;
  charge_read t off len;
  Bytes.sub t.media off len

let read_into t ~off ~buf ~pos ~len =
  check_range t off len;
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Pmem.read_into: bad destination range";
  charge_read t off len;
  Bytes.blit t.media off buf pos len

let read_u8 t ~off =
  check_range t off 1;
  charge_read t off 1;
  Char.code (Bytes.get t.media off)

let read_u64 t ~off =
  check_range t off 8;
  charge_read t off 8;
  Bytes.get_int64_le t.media off

let read_u64_int t ~off =
  let v = read_u64 t ~off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    invalid_arg "Pmem.read_u64_int: out of int range";
  Int64.to_int v

let clflush t ~off ~len =
  check_range t off len;
  event t;
  if len > 0 then begin
    let first = first_line off and last = last_line off len in
    (* A flush of a clean (or already flush-pending) line is issued but
       initiates no medium write-back, so it must not be charged the
       medium's write latency — only the dirty lines whose write-back
       this flush actually starts pay [write_ns]. *)
    let dirtied = ref 0 in
    for idx = first to last do
      if flush_line t idx then incr dirtied
    done;
    let nlines = last - first + 1 in
    Metrics.incr t.metrics "pmem.clflush" ~by:nlines;
    Metrics.incr t.metrics "pmem.clflush_writebacks" ~by:!dirtied;
    (* One call = one back-to-back flush burst over the range: clflush
       serializes (full latency per line), clflushopt/clwb pipeline. *)
    Clock.advance t.clock
      (Latency.flush_batch_ns t.flush_instr nlines
      +. (t.lat.write_ns *. float_of_int !dirtied));
    if !dirtied > 0 then Tinca_obs.Trace.note "pmem.clflush_writebacks" ~by:!dirtied;
    if observed t then emit t (Clflush { off; len })
  end

(* Scatter-gather flush: one back-to-back burst of per-line flushes over
   an arbitrary (deduplicated) line set, so batched callers stop paying
   a separate serialized [clflush] call per line.  Each line is its own
   instruction — its own crash-countdown event and observer event — but
   the burst is charged with the pipelined batch cost.  The set is
   emptied up front, so it is empty afterwards however the call ends. *)
let flush_lines t (set : Lineset.t) =
  let n = set.len and lines = set.lines in
  Lineset.clear set;
  sort_prefix lines n;
  let total = Bytes.length t.media / line_size in
  if n > 0 && (lines.(0) < 0 || lines.(n - 1) >= total) then begin
    let idx = if lines.(0) < 0 then lines.(0) else lines.(n - 1) in
    invalid_arg (Printf.sprintf "Pmem.flush_lines: line %d out of bounds (device has %d)" idx total)
  end;
  let dirtied = ref 0 and issued = ref 0 in
  for i = 0 to n - 1 do
    let idx = lines.(i) in
    if i = 0 || idx <> lines.(i - 1) then begin
      event t;
      incr issued;
      if flush_line t idx then incr dirtied;
      if observed t then emit t (Clflush { off = idx * line_size; len = line_size })
    end
  done;
  if !issued > 0 then begin
    Metrics.incr t.metrics "pmem.clflush" ~by:!issued;
    Metrics.incr t.metrics "pmem.clflush_writebacks" ~by:!dirtied;
    Clock.advance t.clock
      (Latency.flush_batch_ns t.flush_instr !issued
      +. (t.lat.write_ns *. float_of_int !dirtied));
    if !dirtied > 0 then Tinca_obs.Trace.note "pmem.clflush_writebacks" ~by:!dirtied
  end

(* Drain the dirty stack: flush-pending lines reach the medium and leave
   it, the rest slide down in order (their backups with them). *)
let sfence t =
  event t;
  Metrics.incr t.metrics "pmem.sfence" ~by:1;
  Clock.advance t.clock t.lat.sfence_ns;
  let kept = ref 0 in
  for pos = 0 to t.ndirty - 1 do
    let idx = t.dirty.(pos) in
    if line_state t idx < 0 then begin
      set_line_state t idx 0;
      t.wear.(idx) <- t.wear.(idx) + 1
    end
    else begin
      let k = !kept in
      if k <> pos then begin
        t.dirty.(k) <- idx;
        Bytes.blit t.arena (pos * line_size) t.arena (k * line_size) line_size;
        set_line_state t idx (k + 1)
      end;
      kept := k + 1
    end
  done;
  let persisted = t.ndirty - !kept in
  t.ndirty <- !kept;
  if persisted > 0 then Metrics.incr t.metrics "pmem.lines_persisted" ~by:persisted;
  emit t Sfence

let persist t ~off ~len =
  clflush t ~off ~len;
  sfence t

(* Resolve power loss line by line in {!draw_order}: a surviving line's
   newest content reached the medium, a lost one reverts to its backup.
   Leaves the device quiescent. *)
let resolve t ~survive =
  draw_order t;
  for i = 0 to t.ndirty - 1 do
    let pos = t.order.(i) in
    let idx = t.dirty.(pos) in
    if survive idx then t.wear.(idx) <- t.wear.(idx) + 1
    else Bytes.blit t.arena (pos * line_size) t.media (idx * line_size) line_size
  done;
  clear_lines t;
  t.countdown <- 0;
  emit t Crash

let crash ?seed ?(survival = 0.5) t =
  let rng = match seed with Some s -> Tinca_util.Rng.create s | None -> t.rng in
  resolve t ~survive:(fun _ -> Tinca_util.Rng.chance rng survival)

(* --- crash-space exploration hooks (lib/check) ------------------------- *)

(* Whether losing/keeping the line at dirty-stack position [pos] changes
   the medium: a line whose volatile content equals its durable backup
   is unaffected by the crash outcome.  Compared in place, 8 bytes at a
   time. *)
let torn_at t pos =
  let backup = pos * line_size and cur = t.dirty.(pos) * line_size in
  let i = ref 0 in
  while
    !i < line_size
    && Int64.equal (Bytes.get_int64_le t.arena (backup + !i)) (Bytes.get_int64_le t.media (cur + !i))
  do
    i := !i + 8
  done;
  !i < line_size

(* The unfenced lines a crash can actually tear, ascending: at a crash
   each may independently reach the medium or be lost, and each choice
   gives a different medium, so they span the survival-subset space the
   model checker enumerates. *)
let torn_lines t =
  let order = order_scratch t and n = ref 0 in
  for pos = 0 to t.ndirty - 1 do
    if torn_at t pos then begin
      order.(!n) <- t.dirty.(pos);
      incr n
    end
  done;
  let lines = Array.sub order 0 !n in
  Array.sort Int.compare lines;
  lines

(* Resolve a crash with an explicit survival verdict per unfenced line
   ([survive idx] = the line's newest content reached the medium), instead
   of [crash]'s random sampling.  Leaves the device quiescent. *)
let crash_select t ~survive = resolve t ~survive

(* Lines in {!draw_order} with their backups and flush-pending flags;
   [restore] re-dirties them in that order, as the hashtable layer did,
   so the restored layer draws the same crash order as the original. *)
type snapshot = {
  snap_media : Bytes.t;
  snap_lines : int array;
  snap_pending : bool array;
  snap_backups : Bytes.t;
  snap_wear : int array;
}

(* Capture / reinstate the full device state (medium + volatile line
   layer), so the checker can re-enter the same pre-crash state once per
   survival subset without replaying the workload.  [restore] disarms any
   crash countdown; simulated time and metrics are left untouched. *)
let snapshot t =
  draw_order t;
  let order = Array.sub t.order 0 t.ndirty in
  let backups = Bytes.create (Array.length order * line_size) in
  Array.iteri
    (fun i pos -> Bytes.blit t.arena (pos * line_size) backups (i * line_size) line_size)
    order;
  {
    snap_media = Bytes.copy t.media;
    snap_lines = Array.map (fun pos -> t.dirty.(pos)) order;
    snap_pending = Array.map (fun pos -> line_state t t.dirty.(pos) < 0) order;
    snap_backups = backups;
    snap_wear = Array.copy t.wear;
  }

let restore t s =
  if Bytes.length s.snap_media <> Bytes.length t.media then
    invalid_arg "Pmem.restore: snapshot from a different-sized device";
  Bytes.blit s.snap_media 0 t.media 0 (Bytes.length t.media);
  clear_lines t;
  Array.iteri
    (fun i idx ->
      push_dirty t idx s.snap_backups (i * line_size);
      if s.snap_pending.(i) then ignore (flush_line t idx : bool))
    s.snap_lines;
  Array.blit s.snap_wear 0 t.wear 0 (Array.length t.wear);
  t.countdown <- 0

(* Digest of the durable medium, for pinning identical media. *)
let media_digest t = Digest.bytes t.media

let set_crash_countdown t c =
  match c with
  | Some k when k < 1 -> invalid_arg "Pmem.set_crash_countdown: k must be >= 1"
  | Some k -> t.countdown <- k
  | None -> t.countdown <- 0

let event_count t = t.events
let dirty_line_count t = t.ndirty
let in_device t idx = idx >= 0 && idx < Array.length t.wear
let is_dirty t ~off = in_device t (off / line_size) && line_state t (off / line_size) <> 0
let wear_total t = Array.fold_left ( + ) 0 t.wear
let wear_max t = Array.fold_left max 0 t.wear

let wear_histogram t =
  let h = Tinca_util.Histogram.create () in
  Array.iter (fun w -> Tinca_util.Histogram.add h (float_of_int w)) t.wear;
  h

let wear_max_in t ~off ~len =
  check_range t off len;
  let first = off / line_size and last = (off + len - 1) / line_size in
  let m = ref 0 in
  for i = first to last do
    if t.wear.(i) > !m then m := t.wear.(i)
  done;
  !m

let wear_sum_in t ~off ~len =
  check_range t off len;
  let first = off / line_size and last = (off + len - 1) / line_size in
  let s = ref 0 in
  for i = first to last do
    s := !s + t.wear.(i)
  done;
  !s
