(* Survival masks over a crash point's torn lines (see the .mli for why
   equal masks and equal media are the same thing).

   The current mask is [bits] when [slot < 0], else slot [slot] of [buf]:
   [width] bytes per slot, bit [j] at byte [j / 8], bit [j mod 8], with
   the padding bits of the last byte always clear, so equal masks are
   equal bytes. *)

type t = {
  mutable torn : int array;
  mutable width : int;
  mutable buf : Bytes.t;
  mutable bits : int;
  mutable slot : int;
}

let create () = { torn = [||]; width = 0; buf = Bytes.empty; bits = 0; slot = -1 }

let start t torn =
  t.torn <- torn;
  t.width <- (Array.length torn + 7) / 8;
  t.bits <- 0;
  t.slot <- -1

let set_bits t m =
  t.bits <- m;
  t.slot <- -1

let set_slot t i = t.slot <- i

let set_bit buf base j =
  let at = base + (j lsr 3) in
  Bytes.set_uint8 buf at (Bytes.get_uint8 buf at lor (1 lsl (j land 7)))

let sample t rng ~n ~newest_first =
  let d = Array.length t.torn and w = t.width in
  let need = (n + 2) * w in
  if Bytes.length t.buf < need then t.buf <- Bytes.create (max need (2 * Bytes.length t.buf));
  Bytes.fill t.buf 0 need '\000';
  for j = 0 to d - 1 do
    set_bit t.buf w j
  done;
  for k = 0 to n - 1 do
    let base = w * (2 + if newest_first then n - 1 - k else k) in
    for j = 0 to d - 1 do
      if Tinca_util.Rng.bool rng then set_bit t.buf base j
    done
  done

let equal_slots t a b =
  let w = t.width in
  let i = ref 0 in
  while !i < w && Bytes.get t.buf ((a * w) + !i) = Bytes.get t.buf ((b * w) + !i) do
    incr i
  done;
  !i = w

let seen t i =
  let j = ref 0 in
  while !j < i && not (equal_slots t !j i) do
    incr j
  done;
  !j < i

let mem t j =
  if t.slot < 0 then t.bits land (1 lsl j) <> 0
  else Bytes.get_uint8 t.buf ((t.slot * t.width) + (j lsr 3)) land (1 lsl (j land 7)) <> 0

(* Binary search for [idx] among the (ascending) torn lines. *)
let survive t idx =
  let lo = ref 0 and hi = ref (Array.length t.torn) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.torn.(mid) < idx then lo := mid + 1 else hi := mid
  done;
  !lo >= Array.length t.torn || t.torn.(!lo) <> idx || mem t !lo

let partition t =
  let surviving = ref [] and lost = ref [] in
  for j = Array.length t.torn - 1 downto 0 do
    if mem t j then surviving := t.torn.(j) :: !surviving else lost := t.torn.(j) :: !lost
  done;
  (!surviving, !lost)
