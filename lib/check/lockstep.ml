(* Lockstep refinement harness: the executable Spec and a real Tinca
   facade driven through the same command sequence, with observational
   equivalence checked after every command and — via Crash_check's
   driver hook — after every recovered state of every crash point.
   See lockstep.mli. *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Shard = Tinca_core.Shard
module Rng = Tinca_util.Rng
module Check = Crash_check

type cmd =
  | Begin
  | Write of int * int
  | Commit
  | Abort
  | Read of int
  | Write_direct of int * int
  | Bad_size_write of int
  | Commit_async
  | Await

let pp_cmd ppf = function
  | Begin -> Format.pp_print_string ppf "Begin"
  | Write (b, v) -> Format.fprintf ppf "Write (%d, %d)" b v
  | Commit -> Format.pp_print_string ppf "Commit"
  | Abort -> Format.pp_print_string ppf "Abort"
  | Read b -> Format.fprintf ppf "Read %d" b
  | Write_direct (b, v) -> Format.fprintf ppf "Write_direct (%d, %d)" b v
  | Bad_size_write b -> Format.fprintf ppf "Bad_size_write %d" b
  | Commit_async -> Format.pp_print_string ppf "Commit_async"
  | Await -> Format.pp_print_string ppf "Await"

let pp_cmds ppf cmds =
  Format.fprintf ppf "[| ";
  Array.iteri
    (fun i c -> Format.fprintf ppf "%s%a" (if i = 0 then "" else "; ") pp_cmd c)
    cmds;
  Format.fprintf ppf " |]"

type geometry = {
  nvm_kb : int;
  ring_slots : int;
  nshards : int;
  universe : int;
  group_window_ns : int;
  scheme : Tinca.Config.scheme;
}

let default_geometry =
  {
    nvm_kb = 160;
    ring_slots = 64;
    nshards = 1;
    universe = 48;
    group_window_ns = 0;
    scheme = Tinca.Config.Logging Tinca.Batched;
  }

type mutation = Lose_writes | Abort_commits | Skip_seal | Drop_durable_notify | Torn_swing

type divergence = { step : int; cmd : cmd; reason : string }

let pp_divergence ppf d =
  Format.fprintf ppf "step %d (%a): %s" d.step pp_cmd d.cmd d.reason

type run_stats = { ops : int; sweeps : int; blocks_compared : int }

(* --- generator ----------------------------------------------------------- *)

let gen_with ~async ~seed ~len ~universe =
  let rng = Rng.create seed in
  let out = ref [] in
  let n = ref 0 in
  let emit c =
    if !n < len then begin
      out := c :: !out;
      incr n
    end
  in
  let blk () = Rng.int rng universe in
  let byte () = Rng.int rng 256 in
  (* Track (approximately) whether a transaction is open, so short
     sequences still carry real commit traffic instead of dissolving
     into no-ops — while keeping a deliberate trickle of no-handle /
     finished-handle probes. *)
  let open_ = ref false in
  while !n < len do
    let r = Rng.float rng in
    if not !open_ then begin
      if r < 0.35 then begin
        emit Begin;
        open_ := true
      end
      else if r < 0.55 then emit (Write_direct (blk (), byte ()))
      else if r < 0.75 then emit (Read (blk ()))
      else if r < 0.81 then emit (Write (blk (), byte ())) (* finished-handle probe *)
      else if r < 0.86 then emit (if async then Await else Commit) (* no-handle / drain probe *)
      else if r < 0.91 then emit Abort (* no-handle probe *)
      else if len - !n > universe then begin
        (* Transaction_too_large probe: one transaction touching (almost)
           the whole universe, which exceeds the small default geometry's
           data region.  Only emitted when the length budget has room. *)
        emit Begin;
        let k = (universe / 2) + Rng.int rng (universe / 2) in
        let start = blk () in
        for j = 0 to k - 1 do
          emit (Write ((start + j) mod universe, byte ()))
        done;
        emit Commit
      end
      else emit (Read (blk ()))
    end
    else if r < 0.50 then
      (* Mostly in-range writes, with the occasional out-of-range probe. *)
      let b = if Rng.chance rng 0.06 then universe + Rng.int rng 4 else blk () in
      emit (Write (b, byte ()))
    else if r < 0.70 then begin
      emit (if async && Rng.chance rng 0.75 then Commit_async else Commit);
      open_ := false
    end
    else if r < 0.78 then begin
      emit Abort;
      open_ := false
    end
    else if r < 0.84 then emit (Bad_size_write (blk ()))
    else if r < 0.90 then emit (Read (blk ()))
    else if r < 0.96 then emit (Write_direct (blk (), byte ()))
    else emit Begin (* abandon-handle probe *)
  done;
  Array.of_list (List.rev !out)

let gen ~seed ~len ~universe = gen_with ~async:false ~seed ~len ~universe
let gen_async ~seed ~len ~universe = gen_with ~async:true ~seed ~len ~universe

let multi_shard_commits g cmds =
  let shards = Hashtbl.create 8 in
  let in_txn = ref false in
  let count = ref 0 in
  Array.iter
    (function
      | Begin ->
          in_txn := true;
          Hashtbl.reset shards
      | Write (b, _) when !in_txn && b < g.universe ->
          Hashtbl.replace shards (Shard.stripe ~nshards:g.nshards b) ()
      | Commit | Commit_async ->
          if !in_txn && Hashtbl.length shards >= 2 then incr count;
          in_txn := false;
          Hashtbl.reset shards
      | Abort ->
          in_txn := false;
          Hashtbl.reset shards
      | _ -> ())
    cmds;
  !count

(* --- environment --------------------------------------------------------- *)

let mk_env g =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem =
    Pmem.create ~seed:7 ~clock ~metrics ~tech:Latency.Pcm ~size:(g.nvm_kb * 1024) ()
  in
  let disk =
    Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:g.universe ~block_size:4096
  in
  { Check.pmem; disk; clock; metrics }

let tinca_config g =
  {
    Tinca.Config.default with
    Tinca.Config.nvm_bytes = g.nvm_kb * 1024;
    ring_slots = g.ring_slots;
    nshards = g.nshards;
    group_window_ns = g.group_window_ns;
    commit_scheme = g.scheme;
  }

let mk_tinca g (env : Check.env) =
  Tinca.ok_exn
    (Tinca.format ~config:(tinca_config g) ~pmem:env.Check.pmem ~disk:env.Check.disk
       ~clock:env.Check.clock ~metrics:env.Check.metrics)

let with_fault mutate f =
  match mutate with
  | Some Skip_seal ->
      Shard.set_fault (Some `Skip_seal);
      Fun.protect ~finally:(fun () -> Shard.set_fault None) f
  | Some Drop_durable_notify ->
      Shard.set_fault (Some `Drop_durable_notify);
      Fun.protect ~finally:(fun () -> Shard.set_fault None) f
  | Some Torn_swing ->
      Tinca_core.Paging.set_fault (Some `Torn_swing);
      Fun.protect ~finally:(fun () -> Tinca_core.Paging.set_fault None) f
  | _ -> f ()

(* --- the lockstep executor ----------------------------------------------- *)

let show = function
  | Ok _ -> "Ok"
  | Error e -> Printf.sprintf "Error (%s)" (Tinca.error_message e)

let fill v = Bytes.make 4096 (Char.chr (v land 0xFF))

type state = {
  tc : Tinca.t;
  mutable spec : Spec.t;
  mutable cur : (Tinca.txn * Spec.txn) option;
  mutable tickets : Tinca.ticket list; (* outstanding, oldest first *)
}

(* The group committer drains oldest-first and always drains the whole
   standing batch, so after any command the spec's sealed queue need
   only be folded down to the real [group_pending] count — whatever
   trigger fired (window expiry, conflict, capacity, max-batch, await)
   is thereby modeled without re-implementing the trigger policy. *)
let reconcile st = st.spec <- Spec.flush_sealed ~keep:(Tinca.group_pending st.tc) st.spec

(* Execute one command on both systems; Error reason on divergence.
   [Transaction_too_large] is the one real outcome the spec cannot
   predict (geometry): it is accepted wherever the spec would have
   succeeded, and the spec then takes the rejection transition (the
   map untouched, the handle finished) — which the subsequent sweep
   verifies against the real rollback. *)
let exec_cmd ?mutate st cmd =
  let mismatch what real spec =
    Error (Printf.sprintf "%s: real %s vs spec %s" what (show real) (show spec))
  in
  match cmd with
  | Begin ->
      st.cur <- Some (Tinca.init_txn st.tc, Spec.init_txn st.spec);
      Ok ()
  | (Write _ | Bad_size_write _ | Commit | Commit_async | Abort) when st.cur = None -> Ok ()
  | Write (b, v) ->
      let rtxn, stxn = Option.get st.cur in
      let data = fill v in
      let spec = Spec.write st.spec stxn b data in
      (* Lose_writes only swallows writes that would have succeeded —
         error paths stay honest, so the divergence it plants is the
         durability loss itself, not a masked validation error. *)
      let real =
        if mutate = Some Lose_writes && Spec.live stxn && Result.is_ok spec then Ok ()
        else Tinca.write rtxn b data
      in
      (match (real, spec) with
      | Ok (), Ok stxn' ->
          st.cur <- Some (rtxn, stxn');
          Ok ()
      | Error e, Error e' when e = e' -> Ok ()
      | real, spec -> mismatch (Printf.sprintf "write %d" b) real spec)
  | Bad_size_write b -> (
      let rtxn, stxn = Option.get st.cur in
      let data = Bytes.make 100 'x' in
      match (Tinca.write rtxn b data, Spec.write st.spec stxn b data) with
      | Error e, Error e' when e = e' -> Ok ()
      | real, spec -> mismatch (Printf.sprintf "bad-size write %d" b) real spec)
  | Commit -> (
      let rtxn, stxn = Option.get st.cur in
      let real =
        if mutate = Some Abort_commits && Spec.live stxn then Tinca.abort rtxn
        else Tinca.commit rtxn
      in
      match (real, Spec.commit st.spec stxn) with
      | Ok (), Ok (spec', stxn') ->
          st.spec <- spec';
          st.cur <- Some (rtxn, stxn');
          Ok ()
      | Error Tinca.Transaction_too_large, Ok _ ->
          st.cur <- Some (rtxn, Spec.reject stxn);
          Ok ()
      | Error e, Error e' when e = e' -> Ok ()
      | real, spec -> mismatch "commit" real spec)
  | Abort -> (
      let rtxn, stxn = Option.get st.cur in
      match (Tinca.abort rtxn, Spec.abort st.spec stxn) with
      | Ok (), Ok (spec', stxn') ->
          st.spec <- spec';
          st.cur <- Some (rtxn, stxn');
          Ok ()
      | Error e, Error e' when e = e' -> Ok ()
      | real, spec -> mismatch "abort" real spec)
  | Read b -> (
      match (Tinca.read st.tc b, Spec.read st.spec b) with
      | Ok d, Ok d' when Bytes.equal d d' -> Ok ()
      | (Ok _ as real), (Ok _ as spec) ->
          mismatch (Printf.sprintf "read %d: content differs —" b) real spec
      | Error e, Error e' when e = e' -> Ok ()
      | real, spec -> mismatch (Printf.sprintf "read %d" b) real spec)
  | Write_direct (b, v) -> (
      let data = fill v in
      match (Tinca.write_direct st.tc b data, Spec.write_direct st.spec b data) with
      | Ok (), Ok spec' ->
          st.spec <- spec';
          Ok ()
      | Error Tinca.Transaction_too_large, Ok _ -> Ok ()
      | Error e, Error e' when e = e' -> Ok ()
      | real, spec -> mismatch (Printf.sprintf "write_direct %d" b) real spec)
  | Commit_async -> (
      let rtxn, stxn = Option.get st.cur in
      match (Tinca.commit_async rtxn, Spec.seal st.spec stxn) with
      | Ok tk, Ok (spec', stxn') ->
          st.spec <- spec';
          st.cur <- Some (rtxn, stxn');
          if not (Tinca.ticket_durable tk) then st.tickets <- st.tickets @ [ tk ];
          Ok ()
      | Error Tinca.Transaction_too_large, Ok _ ->
          st.cur <- Some (rtxn, Spec.reject stxn);
          Ok ()
      | Error e, Error e' when e = e' -> Ok ()
      | real, spec -> mismatch "commit_async" real spec)
  | Await -> (
      match st.tickets with
      | [] -> Ok ()
      | tk :: rest -> (
          st.tickets <- rest;
          match Tinca.await tk with
          | Ok () ->
              if not (Tinca.ticket_durable tk) then
                Error "await: ticket still not durable after await"
              else Ok ()
          | Error e -> Error (Printf.sprintf "await: %s" (Tinca.error_message e))))

(* Full observational equivalence: every block read through the facade
   equals the spec map, and the media invariant audit holds. *)
let sweep g st =
  let rec go blk =
    if blk >= g.universe then Ok g.universe
    else
      match (Tinca.read st.tc blk, Spec.read st.spec blk) with
      | Ok d, Ok d' when Bytes.equal d d' -> go (blk + 1)
      | Ok d, Ok d' ->
          Error
            (Printf.sprintf "sweep: block %d is %C on media, %C in the spec" blk
               (Bytes.get d 0) (Bytes.get d' 0))
      | real, spec ->
          Error (Printf.sprintf "sweep: read %d: real %s vs spec %s" blk (show real) (show spec))
  in
  match Tinca.check_invariants st.tc with
  | exception Tinca_core.Cache.Invariant_violation m ->
      Error (Printf.sprintf "sweep: invariant audit: %s" m)
  | exception Failure m -> Error (Printf.sprintf "sweep: invariant audit: %s" m)
  | () -> go 0

let run ?mutate g cmds =
  with_fault mutate @@ fun () ->
  let env = mk_env g in
  let st =
    {
      tc = mk_tinca g env;
      spec = Spec.create ~nblocks:g.universe ~block_size:4096;
      cur = None;
      tickets = [];
    }
  in
  let stats = ref { ops = 0; sweeps = 0; blocks_compared = 0 } in
  let diverged = ref None in
  (try
     Array.iteri
       (fun step cmd ->
         let fail reason =
           diverged := Some { step; cmd; reason };
           raise Exit
         in
         (match exec_cmd ?mutate st cmd with
         | Ok () -> reconcile st
         | Error reason -> fail reason
         | exception e -> fail (Printf.sprintf "raised %s" (Printexc.to_string e)));
         (match sweep g st with
         | Ok compared ->
             stats :=
               {
                 ops = !stats.ops + 1;
                 sweeps = !stats.sweeps + 1;
                 blocks_compared = !stats.blocks_compared + compared;
               }
         | Error reason -> fail reason
         | exception e -> fail (Printf.sprintf "sweep raised %s" (Printexc.to_string e))))
       cmds
   with Exit -> ());
  match !diverged with Some d -> Error d | None -> Ok !stats

(* --- shrinking ----------------------------------------------------------- *)

(* Delta debugging: repeatedly try to delete chunks (halving the chunk
   size down to 1) as long as the candidate still fails.  Terminates at
   a 1-minimal sequence: no single remaining command can be removed. *)
let shrink ~fails cmds =
  let remove arr i len =
    Array.append (Array.sub arr 0 i) (Array.sub arr (i + len) (Array.length arr - i - len))
  in
  let arr = ref cmds in
  let changed = ref true in
  while !changed do
    changed := false;
    let size = ref (max 1 (Array.length !arr / 2)) in
    while !size >= 1 do
      let i = ref 0 in
      while !i + !size <= Array.length !arr do
        let cand = remove !arr !i !size in
        if Array.length cand < Array.length !arr && fails cand then begin
          arr := cand;
          changed := true
        end
        else i := !i + !size
      done;
      size := !size / 2
    done
  done;
  !arr

(* --- crash-space integration --------------------------------------------- *)

(* Crash_check driver: run the command sequence against a fresh facade,
   tracking a spec whose sealed queue mirrors the real standing batch
   (reconciled against [Tinca.group_pending] after every command) plus
   (around every commit window) the in-flight image.  The judge then
   demands that a recovered state equal one of

   - the durable image (sealed queue dropped — an undrained batch and
     any sealed-unacked transactions legitimately roll back),
   - the durable image with the WHOLE batch drained (a crash during or
     after the drain: the batch is all-or-nothing, so acked-durable
     transactions must survive together and partial batches are a
     violation),
   - the in-flight image (a synchronous commit window, fully applied —
     the batch drained and the committing transaction applied on top),

   at every recovered state of every survival subset of every crash
   point.  Command outcomes are not compared here (the plain lockstep
   run covers that); geometry rejections just leave the spec alone. *)
let crash_driver g cmds =
  {
    Check.fresh =
      (fun (env : Check.env) ->
        let tc = mk_tinca g env in
        let spec = ref (Spec.create ~nblocks:g.universe ~block_size:4096) in
        let in_flight = ref None in
        let cur = ref None in
        let tickets = ref [] in
        let reconcile () = spec := Spec.flush_sealed ~keep:(Tinca.group_pending tc) !spec in
        let exec cmd =
          (match cmd with
          | Begin -> cur := Some (Tinca.init_txn tc, Spec.init_txn !spec)
          | Write (b, v) -> (
              match !cur with
              | None -> ()
              | Some (rtxn, stxn) -> (
                  let data = fill v in
                  ignore (Tinca.write rtxn b data);
                  match Spec.write !spec stxn b data with
                  | Ok stxn' -> cur := Some (rtxn, stxn')
                  | Error _ -> ()))
          | Bad_size_write b -> (
              match !cur with
              | None -> ()
              | Some (rtxn, _) -> ignore (Tinca.write rtxn b (Bytes.make 100 'x')))
          | Commit -> (
              match !cur with
              | None -> ()
              | Some (rtxn, stxn) when Spec.live stxn -> (
                  let post = Spec.apply_pending (Spec.flush_sealed !spec) stxn in
                  in_flight := Some post;
                  cur := Some (rtxn, Spec.reject stxn);
                  match Tinca.commit rtxn with
                  | Ok () ->
                      spec := post;
                      in_flight := None
                  | Error _ -> in_flight := None)
              | Some (rtxn, _) -> ignore (Tinca.commit rtxn))
          | Commit_async -> (
              match !cur with
              | None -> ()
              | Some (rtxn, stxn) when Spec.live stxn -> (
                  (* A drain triggered inside commit_async (window,
                     conflict, capacity, max-batch) can cover the new
                     transaction too, so the in-flight candidate is
                     "everything drained, this transaction included". *)
                  in_flight := Some (Spec.apply_pending (Spec.flush_sealed !spec) stxn);
                  match Tinca.commit_async rtxn with
                  | Ok tk -> (
                      in_flight := None;
                      if not (Tinca.ticket_durable tk) then tickets := !tickets @ [ tk ];
                      match Spec.seal !spec stxn with
                      | Ok (spec', stxn') ->
                          spec := spec';
                          cur := Some (rtxn, stxn')
                      | Error _ -> cur := Some (rtxn, Spec.reject stxn))
                  | Error _ ->
                      in_flight := None;
                      cur := Some (rtxn, Spec.reject stxn))
              | Some (rtxn, _) -> ignore (Tinca.commit_async rtxn))
          | Await -> (
              match !tickets with
              | [] -> ()
              | tk :: rest ->
                  tickets := rest;
                  ignore (Tinca.await tk))
          | Abort -> (
              match !cur with
              | None -> ()
              | Some (rtxn, stxn) ->
                  ignore (Tinca.abort rtxn);
                  cur := Some (rtxn, Spec.reject stxn))
          | Read b -> ignore (Tinca.read tc b)
          | Write_direct (b, v) -> (
              let data = fill v in
              match Spec.write_direct !spec b data with
              | Error _ -> ignore (Tinca.write_direct tc b data)
              | Ok post -> (
                  in_flight := Some post;
                  match Tinca.write_direct tc b data with
                  | Ok () ->
                      spec := post;
                      in_flight := None
                  | Error _ -> in_flight := None)));
          reconcile ()
        in
        let workload () = Array.iter exec cmds in
        let judge recovered =
          (* Each logical block is read at most once per state, however
             many candidate images it is held against. *)
          let read = Array.make g.universe None in
          let logical blk =
            match read.(blk) with
            | Some data -> data
            | None ->
                let data =
                  match Tinca.peek recovered blk with
                  | Some data -> data
                  | None -> Disk.read_block env.Check.disk blk
                in
                read.(blk) <- Some data;
                data
          in
          let matches spec =
            let rec go blk =
              blk >= g.universe
              || (Bytes.equal (logical blk) (Spec.block spec blk) && go (blk + 1))
            in
            go 0
          in
          let durable = Spec.drop_sealed !spec in
          let drained = Spec.flush_sealed !spec in
          if matches durable then Ok ()
          else if matches drained then Ok ()
          else
            match !in_flight with
            | Some post when matches post -> Ok ()
            | _ ->
                let rec first blk =
                  if blk >= g.universe then "unreachable"
                  else
                    let d = logical blk and e = Spec.block durable blk in
                    if Bytes.equal d e then first (blk + 1)
                    else
                      Printf.sprintf
                        "spec refinement: block %d is %C (durable spec %C, batch-drained %C%s) — \
                         recovered state matches neither the durable image, nor the whole \
                         batch drained, nor the in-flight commit fully applied"
                        blk (Bytes.get d 0) (Bytes.get e 0)
                        (Bytes.get (Spec.block drained blk) 0)
                        (match !in_flight with
                        | Some post ->
                            Printf.sprintf ", in-flight %C" (Bytes.get (Spec.block post blk) 0)
                        | None -> "")
                in
                Error (first 0)
        in
        (workload, judge));
  }

let crash_refine ?mutate ?(cap = 48) ?(stride = 1) ?progress g cmds =
  with_fault mutate @@ fun () ->
  let cfg =
    {
      Check.default_config with
      Check.universe = g.universe;
      pmem_bytes = g.nvm_kb * 1024;
      ring_slots = g.ring_slots;
      nshards = g.nshards;
      mask_cap = cap;
      stride;
      scheme = g.scheme;
    }
  in
  Check.explore ?progress ~driver:(crash_driver g cmds) cfg
