type t = {
  setup_s : float;
  gen_ms : float;
  prealloc_ms : float;
  ops : int;
  failed : int;
  host_s : float;
  op_host : Samples.t;
  commit_sim : Samples.t;
  read_sim : Samples.t;
  sim_ns : float;
  minor_words : float;
  recover_sim_ns : float;
  write_amp : float;
  problems : string list;
  fingerprint : (string * string) list;
  layer : (string * float) list;
}

let sim_identity r =
  let pct s = Printf.sprintf "%d:%h:%h" (Samples.count s) (Samples.sum s) (Samples.percentile s 99.0) in
  String.concat ";"
    (Printf.sprintf "%d:%h:%h:%h" r.ops r.sim_ns r.recover_sim_ns r.write_amp
    :: pct r.commit_sim :: pct r.read_sim
    :: List.map (fun (k, v) -> k ^ "=" ^ v) r.fingerprint)

let fingerprint ~clock ~pmem ~metrics =
  ("sim_clock_ns", Printf.sprintf "%.0f" (Tinca_sim.Clock.now_ns clock))
  :: ("media_digest", Digest.to_hex (Tinca_pmem.Pmem.media_digest pmem))
  :: List.map (fun (k, v) -> (k, string_of_int v)) (Tinca_sim.Metrics.to_list metrics)
