type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 64; hists = Hashtbl.create 16 }

(* [Hashtbl.find] rather than [find_opt]: the hit path, taken on every
   pmem primitive, allocates no option. *)
let incr t name ~by =
  match Hashtbl.find t.counters name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.add t.counters name (ref by)

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let to_list t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A snapshot is a hashtable copy of the counters, so [since] is one
   O(1) lookup and [diff] is O(current counters) — not the O(n*m)
   association-list scans the first implementation paid on every
   normalized-per-op metric of the harness. *)
type snapshot = (string, int) Hashtbl.t

let snapshot t : snapshot =
  let s = Hashtbl.create (Hashtbl.length t.counters) in
  Hashtbl.iter (fun k v -> Hashtbl.replace s k !v) t.counters;
  s

let diff t (snap : snapshot) =
  to_list t
  |> List.filter_map (fun (k, v) ->
         let before = match Hashtbl.find_opt snap k with Some x -> x | None -> 0 in
         if v - before <> 0 then Some (k, v - before) else None)

let since t (snap : snapshot) name =
  let before = match Hashtbl.find_opt snap name with Some x -> x | None -> 0 in
  get t name - before

(* --- latency histograms (observability layer) -------------------------- *)

let observe t name v =
  match Hashtbl.find_opt t.hists name with
  | Some h -> Hist.add h v
  | None ->
      let h = Hist.create () in
      Hist.add h v;
      Hashtbl.add t.hists name h

let hist t name = Hashtbl.find_opt t.hists name

let hists t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.hists

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%s = %d@." k v) (to_list t);
  List.iter (fun (k, h) -> Format.fprintf ppf "%s : %a@." k Hist.pp h) (hists t)

(* --- naming convention -------------------------------------------------- *)

(* Counter and histogram names are dotted paths: at least two segments,
   each starting with a lowercase letter followed by [a-z0-9_]
   ("pmem.clflush", "tinca.commit.blocks", "lat.pwrite").  Enforced by
   the test suite over every registry a workload run populates, not by
   [incr] itself (tests legitimately use throwaway local names). *)
let valid_name name =
  let seg_ok s =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) s
  in
  let segs = String.split_on_char '.' name in
  List.length segs >= 2 && List.for_all seg_ok segs
