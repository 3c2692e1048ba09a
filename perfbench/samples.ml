(* Samples are kept whole (runs are bounded), so percentiles are exact
   nearest-rank values rather than bucket representatives. *)

type t = { mutable a : float array; mutable n : int; mutable sorted : bool }

let create ?(capacity = 1024) () = { a = Array.make (max 1 capacity) 0.0; n = 0; sorted = true }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

let mean t = if t.n = 0 then nan else sum t /. float_of_int t.n

let append ~dst src =
  for i = 0 to src.n - 1 do
    add dst src.a.(i)
  done

(* Nearest rank of per-mille [pm] among [n] samples, 1-based. *)
let rank ~n pm = max 1 (((pm * n) + 999) / 1000)

let percentile t p =
  if t.n = 0 then nan
  else begin
    if not t.sorted then begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      t.a <- s;
      t.sorted <- true
    end;
    t.a.(min t.n (rank ~n:t.n (int_of_float (Float.round (p *. 10.0)))) - 1)
  end

let median t = percentile t 50.0
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let tail_pct n =
  List.find_opt (fun pm -> n - rank ~n pm >= 10) ladder
  |> Option.map (fun pm -> float_of_int pm /. 10.0)

let tail t ~want =
  let p = match tail_pct t.n with Some q -> Float.min want q | None -> 50.0 in
  (p, percentile t p)

let median_of l =
  let t = create () in
  List.iter (add t) l;
  median t
