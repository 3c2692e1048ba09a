module Pmem = Tinca_pmem.Pmem
module Clock = Tinca_sim.Clock
module Backend = Tinca_fs.Backend
module Trace = Tinca_obs.Trace

type t = {
  traced : bool;
  mutable on : bool;
  timers : (string, Samples.t) Hashtbl.t;
  mutable commit_host_ns : float;
  mutable commit_blocks : int;
  sites : (string, int array) Hashtbl.t;  (* full site label -> stores, flush lines, sfences *)
}

let create ~traced =
  { traced; on = false; timers = Hashtbl.create 16; commit_host_ns = 0.0; commit_blocks = 0;
    sites = Hashtbl.create 16 }

let traced t = t.traced
let recording t = t.on
let commit_host_ns t = t.commit_host_ns
let commit_blocks t = t.commit_blocks

let timer t key =
  match Hashtbl.find_opt t.timers key with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace t.timers key s;
      s

let record t key v = if t.on then Samples.add (timer t key) v

let time t key f =
  if not t.on then f ()
  else begin
    let h0 = Hclock.now_ns () in
    let r = f () in
    Samples.add (timer t key) (Hclock.now_ns () -. h0);
    r
  end

let wrap_backend t clock (b : Backend.t) =
  if not t.traced then b
  else
    {
      b with
      Backend.read_block =
        (fun blk ->
          if not t.on then b.Backend.read_block blk
          else begin
            let s0 = Clock.now_ns clock and h0 = Hclock.now_ns () in
            let r = b.Backend.read_block blk in
            record t "stacks.read_block.host" (Hclock.now_ns () -. h0);
            record t "stacks.read_block.sim" (Clock.now_ns clock -. s0);
            r
          end);
      commit_blocks =
        (fun blocks ->
          if not t.on then b.Backend.commit_blocks blocks
          else begin
            let s0 = Clock.now_ns clock and h0 = Hclock.now_ns () in
            b.Backend.commit_blocks blocks;
            let dh = Hclock.now_ns () -. h0 in
            record t "stacks.commit_blocks.host" dh;
            record t "stacks.commit_blocks.sim" (Clock.now_ns clock -. s0);
            t.commit_host_ns <- t.commit_host_ns +. dh;
            t.commit_blocks <- t.commit_blocks + List.length blocks
          end);
    }

(* --- pmem call-site attribution ------------------------------------------ *)

let lines ~off ~len = if len <= 0 then 0 else ((off + len - 1) / Pmem.line_size) - (off / Pmem.line_size) + 1

let observe t pmem ev =
  if t.on then begin
    let site = Pmem.site pmem in
    let c =
      match Hashtbl.find_opt t.sites site with
      | Some c -> c
      | None ->
          let c = Array.make 3 0 in
          Hashtbl.replace t.sites site c;
          c
    in
    match ev with
    | Pmem.Store _ | Pmem.Atomic_write _ -> c.(0) <- c.(0) + 1
    | Pmem.Clflush { off; len } -> c.(1) <- c.(1) + lines ~off ~len
    | Pmem.Sfence -> c.(2) <- c.(2) + 1
    | Pmem.Crash -> ()
  end

let prefix_of site = match String.index_opt site '.' with Some i -> String.sub site 0 i | None -> site

let site_metrics t ~ops =
  let per = float_of_int (max 1 ops) in
  List.concat_map
    (fun p ->
      let sum k =
        Hashtbl.fold (fun site c acc -> if prefix_of site = p then acc + c.(k) else acc) t.sites 0
      in
      List.mapi
        (fun k name -> (Printf.sprintf "pmem.site.%s.%s" p name, float_of_int (sum k) /. per))
        [ "stores"; "flush_lines"; "sfences" ])
    Metric.site_prefixes

(* --- span attribution ------------------------------------------------------ *)

let span_metrics ~ops ~sim_ns =
  let rows = Trace.flame_rows () in
  let find name =
    List.fold_left
      (fun (self, sf) (n, _, _, s, f, _) -> if n = name then (self +. s, sf + f) else (self, sf))
      (0.0, 0) rows
  in
  List.concat_map
    (fun (group, span_prefix, stages) ->
      List.concat_map
        (fun s ->
          let self, sf = find (span_prefix ^ s) in
          [
            (Printf.sprintf "obs.%s.%s.sim_self_frac" group s, if sim_ns > 0.0 then self /. sim_ns else 0.0);
            (Printf.sprintf "obs.%s.%s.sfences" group s, float_of_int sf /. float_of_int (max 1 ops));
          ])
        stages)
    Metric.span_groups

let start t =
  if t.traced then begin
    t.on <- true;
    Hashtbl.reset t.sites;
    Trace.enable ()
  end

let attach t pmem = if t.traced then Pmem.set_observer pmem (Some (observe t pmem))

let stop t ~ops ~sim_ns =
  if not t.traced then []
  else begin
    t.on <- false;
    let spans = span_metrics ~ops ~sim_ns in
    Trace.disable ();
    spans @ site_metrics t ~ops
  end

(* --- counter-derived rows ---------------------------------------------------- *)

let counter_metrics ~delta ~ops ~commits ~wear_max =
  let f = float_of_int in
  let ratio a b = if b = 0 then 0.0 else f a /. f b in
  let per_op k = ratio (delta k) ops and per_commit k = ratio (delta k) commits in
  let hit h m = ratio (delta h) (delta h + delta m) in
  [
    ("cache.write_hit_ratio", hit "tinca.write_hits" "tinca.write_misses");
    ("cache.read_hit_ratio", hit "tinca.read_hits" "tinca.read_misses");
    ("cache.evictions_per_op", per_op "tinca.evictions");
    ("cache.writebacks_per_op", per_op "tinca.writebacks");
    ("cache.cleaned_per_op", per_op "tinca.cleaned");
    ("ring.head_advances_per_commit", per_commit "tinca.head_advance");
    ("shard.multi_shard_commit_frac", per_commit "tinca.shard.multi_commits");
    ("shard.cross_shard_seals_per_commit", per_commit "tinca.shard.seals");
    ("pmem.sfence_per_commit", per_commit "pmem.sfence");
    ("pmem.clflush_per_commit", per_commit "pmem.clflush");
    ("pmem.writebacks_per_commit", per_commit "pmem.clflush_writebacks");
    ("pmem.stores_per_op", per_op "pmem.stores");
    ("pmem.atomic_writes_per_commit", per_commit "pmem.atomic_writes");
    ("pmem.wear_max", f wear_max);
    ("disk.reads_per_op", per_op "disk.reads");
    ("disk.writes_per_op", per_op "disk.writes");
    ("disk.seq_write_frac", ratio (delta "disk.seq_writes") (delta "disk.writes"));
  ]

let kv rows key =
  match List.assoc_opt key rows with
  | Some v -> Option.value ~default:0.0 (float_of_string_opt v)
  | None -> 0.0
