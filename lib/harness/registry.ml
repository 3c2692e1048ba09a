(** The experiment registry: every table and figure of the paper (plus
    extension/ablation experiments), addressable by id from the CLI and
    the benchmark executable. *)

module Tabular = Tinca_util.Tabular

type experiment = {
  id : string;
  title : string;
  paper_ref : string;  (** what the paper reports, for eyeball comparison *)
  run : unit -> Tabular.t list;
}

let all : experiment list =
  [
    {
      id = "table1";
      title = "NVM technology characteristics";
      paper_ref = "Table 1";
      run = (fun () -> [ Tinca_sim.Latency.table1 () ]);
    };
    {
      id = "table2";
      title = "Benchmark catalogue";
      paper_ref = "Table 2";
      run = (fun () -> [ Tinca_workloads.Catalogue.table2 () ]);
    };
    {
      id = "fig3a";
      title = "Write traffic of journaling (Filebench)";
      paper_ref = "Fig 3(a): journaling causes ~195-290% of no-journal traffic";
      run = Exp_motivation.fig3a;
    };
    {
      id = "fig3b";
      title = "Journaling and clflush cost (Fio)";
      paper_ref = "Fig 3(b): journaling -31.5%, +clflush a further -28.3%";
      run = Exp_motivation.fig3b;
    };
    {
      id = "fig4";
      title = "Synchronous cache-metadata update cost";
      paper_ref = "Fig 4: waiving metadata +45.2% (journal) / +65.5% (no journal)";
      run = Exp_motivation.fig4;
    };
    {
      id = "fig7";
      title = "Fio: IOPS, clflush/op, disk writes/op";
      paper_ref = "Fig 7: Tinca 2.5x/2.1x/1.7x IOPS; -73..76% clflush; -60..65% disk writes";
      run = Exp_fio.fig7;
    };
    {
      id = "fig8";
      title = "TPC-C: TPM, clflush/txn, disk blocks/txn vs users";
      paper_ref = "Fig 8: Tinca ~1.7-1.8x TPM; clflush 30-36% of Classic; 4.2->1.9 / 7.0->3.0 blocks";
      run = Exp_tpcc.fig8;
    };
    {
      id = "fig10";
      title = "HDFS TeraGen: time, clflush/MB, disk writes/MB vs replicas";
      paper_ref = "Fig 10: Tinca 29%/54%/60% less time; -80.7% clflush; -38.3% disk writes @3 replicas";
      run = Exp_cluster.fig10;
    };
    {
      id = "fig11";
      title = "GlusterFS Filebench: OPs/s, clflush/op, disk writes/op";
      paper_ref = "Fig 11: Tinca 1.8x fileserver, 1.2x webproxy, 1.5x varmail";
      run = Exp_cluster.fig11;
    };
    {
      id = "fig12a";
      title = "TPC-C on SSD vs HDD";
      paper_ref = "Fig 12(a): gap widens 1.7x (SSD) -> 2.8x (HDD)";
      run = Exp_tpcc.fig12a;
    };
    {
      id = "fig12b";
      title = "TPC-C across NVM technologies";
      paper_ref = "Fig 12(b): gap narrows slightly 1.7x (PCM) -> 1.6x (NVDIMM/STT-RAM)";
      run = Exp_tpcc.fig12b;
    };
    {
      id = "fig12c";
      title = "Cache write hit rate";
      paper_ref = "Fig 12(c): Classic 80%, Tinca 93%";
      run = Exp_tpcc.fig12c;
    };
    {
      id = "fig13";
      title = "Blocks per transaction + COW overhead";
      paper_ref = "Fig 13 / 5.4.3: fileserver ~2x webproxy; COW overhead ~0.4% of cache";
      run = Exp_txn.fig13;
    };
    {
      id = "recoverability";
      title = "Crash + recovery trials";
      paper_ref = "5.1: crash consistency never impaired across repeated failures";
      run = Exp_recovery.run;
    };
    {
      id = "crash_space";
      title = "Exhaustive crash-space model check of the commit protocol";
      paper_ref = "5.1 strengthened: every crash point x every torn-line survival subset";
      run = Exp_check.run;
    };
    {
      id = "ubj_compare";
      title = "Tinca vs UBJ vs Classic";
      paper_ref = "5.4.4 (qualitative in the paper; quantified here)";
      run = Exp_ablation.ubj_compare;
    };
    {
      id = "writeback_ablation";
      title = "Write-back vs write-through Tinca";
      paper_ref = "extension (role-switch value)";
      run = Exp_ablation.writeback_ablation;
    };
    {
      id = "batching_ablation";
      title = "Transaction coalescing sweep";
      paper_ref = "extension (commit amortization)";
      run = Exp_ablation.batching_ablation;
    };
    {
      id = "page_cache";
      title = "DRAM buffer cache above Tinca";
      paper_ref = "extension (Fig 1(c)'s DRAM tier, capacity sweep)";
      run = Exp_ablation.page_cache;
    };
    {
      id = "consistency_levels";
      title = "data=journal vs data=ordered vs no journal";
      paper_ref = "extension (2.3: consistency-level spectrum)";
      run = Exp_ablation.consistency_levels;
    };
    {
      id = "flush_instr";
      title = "clflush vs clflushopt vs clwb";
      paper_ref = "extension (2.1: newer flush instructions the testbed lacked)";
      run = Exp_ablation.flush_instr;
    };
    {
      id = "fig_commit_batch";
      title = "Fence-coalesced group commit vs per-block protocol";
      paper_ref = "extension (4.4 commit protocol, O(1) fences per txn)";
      run = Exp_commit.fig_commit_batch;
    };
    {
      id = "fig_shard";
      title = "Sharded Tinca: commit-throughput and fence scaling at N=1/2/4/8";
      paper_ref = "extension (ISSUE 5: per-shard rings + striped commit scheduler)";
      run = Exp_shard.fig_shard;
    };
    {
      id = "fig_log_vs_page";
      title = "Commit-scheme ablation: logging ring vs COW paging";
      paper_ref = "extension (ISSUE 10: logging vs. paging commit schemes, crossover by write size)";
      run = Exp_page.fig_log_vs_page;
    };
    {
      id = "fig_group";
      title = "Async group commit: fences amortized over the standing batch";
      paper_ref = "extension (ISSUE 8: one durability sequence per ~K-txn batch)";
      run = Exp_group.fig_group;
    };
    {
      id = "fig_flight";
      title = "NVM flight recorder: zero added fences, <= 2% commit overhead";
      paper_ref = "extension (ISSUE 9: crash-surviving forensics; beyond the paper)";
      run = Exp_flight.fig_flight;
    };
    {
      id = "fig_obs";
      title = "Observability surface: /proc snapshot, latency ladders, span flame";
      paper_ref = "extension (observability; beyond the paper)";
      run = Exp_obs.run;
    };
    {
      id = "wear_leveling";
      title = "FIFO vs LIFO NVM allocation (wear leveling)";
      paper_ref = "extension (endurance; beyond the paper)";
      run = Exp_ablation.wear_leveling;
    };
    {
      id = "wear";
      title = "NVM endurance: lines persisted per MB";
      paper_ref = "extension (the 1 write-endurance argument)";
      run = Exp_ablation.wear;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_experiment e =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "=== %s: %s ===\n" e.id e.title);
  Buffer.add_string buf (Printf.sprintf "paper: %s\n" e.paper_ref);
  List.iter
    (fun t ->
      Buffer.add_string buf (Tabular.render t);
      Buffer.add_char buf '\n')
    (e.run ());
  Buffer.contents buf

(** CSV form of one result table (for the CLI's [--csv]). *)
let csv_of table = Tabular.to_csv table
