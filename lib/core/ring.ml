module Pmem = Tinca_pmem.Pmem

type t = {
  pmem : Pmem.t;
  layout : Layout.t;
  (* DRAM mirrors of the persistent pointers, kept in sync. *)
  mutable head : int;
  mutable tail : int;
  (* Peak in-flight occupancy since attach/format (volatile stat). *)
  mutable hwm : int;
  (* Slots written past Head by [stage_batch] but not yet covered by a
     [publish] — volatile state of the group committer's pending batch. *)
  mutable staged : int;
  (* [record_batch]'s flush batch, reused across calls. *)
  lines : Pmem.Lineset.t;
}

let attach ~pmem ~layout =
  let head = Pmem.read_u64_int pmem ~off:layout.Layout.head_off in
  let tail = Pmem.read_u64_int pmem ~off:layout.Layout.tail_off in
  { pmem; layout; head; tail; hwm = head - tail; staged = 0; lines = Pmem.Lineset.create () }

let slots t = t.layout.Layout.ring_slots
let head t = t.head
let tail t = t.tail
let in_flight t = t.head - t.tail
let staged t = t.staged
let high_water t = t.hwm

let bump_hwm t = if in_flight t > t.hwm then t.hwm <- in_flight t

let write_ptr t ~off v =
  Pmem.atomic_write8_int t.pmem ~off v;
  Pmem.persist t.pmem ~off ~len:8

let record t blkno =
  if in_flight t >= slots t then invalid_arg "Ring.record: ring buffer full";
  Pmem.set_site t.pmem "ring.record";
  let slot_off = Layout.ring_slot_off t.layout t.head in
  Pmem.atomic_write8_int t.pmem ~off:slot_off blkno;
  Pmem.persist t.pmem ~off:slot_off ~len:8;
  t.head <- t.head + 1;
  write_ptr t ~off:t.layout.Layout.head_off t.head;
  bump_hwm t

(* Batched variant of [record] (group commit): stage every slot of the
   transaction, flush each dirtied slot line once and fence — the slots
   are durable but Head still excludes them, so they are invisible to
   [pending_blknos] and to recovery until [publish].  Eight slots share a
   64 B line, so an n-block transaction dirties ceil(n/8) lines instead
   of paying n separate persists. *)
let record_batch t blknos =
  match blknos with
  | [] -> ()
  | blknos ->
      let n = List.length blknos in
      if in_flight t + t.staged + n > slots t then
        invalid_arg "Ring.record_batch: ring buffer full";
      Pmem.set_site t.pmem "ring.record";
      List.iteri
        (fun i blkno ->
          let off = Layout.ring_slot_off t.layout (t.head + t.staged + i) in
          Pmem.atomic_write8_int t.pmem ~off blkno;
          Pmem.Lineset.add t.lines (off / Pmem.line_size))
        blknos;
      Pmem.flush_lines t.pmem t.lines;
      Pmem.sfence t.pmem

(* Volatile half of [record_batch] for the group committer: stage one
   slot per block past any previously staged slots, without flushing or
   fencing, and add the dirtied line indices to [lines] so the caller can
   fold many transactions' slots into one [Pmem.flush_lines] + fence.  The
   atomic slot writes cannot tear, so an unflushed staged slot either
   survives a crash with its full value or reverts — and Head excludes
   it either way. *)
let stage_batch t lines blknos =
  match blknos with
  | [] -> ()
  | blknos ->
      let n = List.length blknos in
      if in_flight t + t.staged + n > slots t then
        invalid_arg "Ring.stage_batch: ring buffer full";
      Pmem.set_site t.pmem "ring.record";
      List.iteri
        (fun i blkno ->
          let off = Layout.ring_slot_off t.layout (t.head + t.staged + i) in
          Pmem.atomic_write8_int t.pmem ~off blkno;
          Pmem.Lineset.add lines (off / Pmem.line_size))
        blknos;
      t.staged <- t.staged + n
[@@pmem.defer
  "volatile half of record_batch: the staged slots are deliberately left unflushed so the group \
   committer can fold many transactions' slots into one flush_lines + fence; the 8 B atomic slot \
   writes cannot tear, and Head excludes staged slots until publish, so an unflushed slot is \
   invisible to recovery either way"]

(* Drop the newest [n] staged (unpublished) slots — the unwinding path
   when a multi-shard seal fails partway.  Purely volatile: the slot
   bytes stay in the cache-line layer but Head never covers them, and a
   later [stage_batch] simply overwrites them. *)
let unstage t n =
  if n < 0 || n > t.staged then invalid_arg "Ring.unstage: bad slot count";
  t.staged <- t.staged - n

(* Advance Head over [n] slots staged by [record_batch] with a single
   persist, making them part of the in-flight range.  The slots were
   fenced durable by [record_batch], so the paper's ordering — entry and
   slot durable strictly before Head covers them — holds for the whole
   batch at the cost of one fence. *)
let publish t n =
  if n < 0 || in_flight t + n > slots t then invalid_arg "Ring.publish: bad slot count";
  if n > 0 then begin
    Pmem.set_site t.pmem "ring.record";
    t.head <- t.head + n;
    t.staged <- max 0 (t.staged - n);
    write_ptr t ~off:t.layout.Layout.head_off t.head;
    bump_hwm t
  end

let commit_point t =
  Pmem.set_site t.pmem "ring.commit_point";
  t.tail <- t.head;
  write_ptr t ~off:t.layout.Layout.tail_off t.tail

let rewind_head t =
  Pmem.set_site t.pmem "ring.rewind";
  t.head <- t.tail;
  t.staged <- 0;
  write_ptr t ~off:t.layout.Layout.head_off t.head

let pending_blknos t =
  let acc = ref [] in
  for c = t.head - 1 downto t.tail do
    let off = Layout.ring_slot_off t.layout c in
    acc := Pmem.read_u64_int t.pmem ~off :: !acc
  done;
  !acc

let reload t =
  t.head <- Pmem.read_u64_int t.pmem ~off:t.layout.Layout.head_off;
  t.tail <- Pmem.read_u64_int t.pmem ~off:t.layout.Layout.tail_off;
  t.staged <- 0

let format t =
  Pmem.set_site t.pmem "ring.format";
  t.head <- 0;
  t.tail <- 0;
  t.hwm <- 0;
  t.staged <- 0;
  write_ptr t ~off:t.layout.Layout.head_off 0;
  write_ptr t ~off:t.layout.Layout.tail_off 0
