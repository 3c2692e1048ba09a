(* Aggregated test runner for the whole repository. *)
let () =
  Alcotest.run "tinca"
    (Test_util.suite @ Test_sim.suite @ Test_pmem.suite @ Test_cachelib.suite
   @ Test_blockdev.suite @ Test_tinca.suite @ Test_crash.suite @ Test_flashcache.suite @ Test_jbd2.suite @ Test_fs.suite @ Test_workloads.suite @ Test_blockdev.queue_suite @ Test_flashcache.cleaner_suite @ Test_tinca.flusher_suite
   @ Test_cachelib.policy_suite
   @ Test_cluster.suite @ Test_ubj.suite @ Test_harness.suite @ Test_trace.suite @ Test_stress.suite @ Test_fs.ordered_suite @ Test_sim.flush_instr_suite @ Test_model.suite @ Test_fs.sweep_suite @ Test_validation.suite @ Test_regression.suite @ Test_fixes.suite @ Test_fs.page_cache_suite @ Test_model.fs_model_suite @ Test_validation.shutdown_suite @ Test_psan.suite @ Test_budget.suite @ Test_obs.suite @ Test_facade.suite @ Test_shard.suite @ Test_spec.suite @ Test_lint.suite @ Test_flight.suite @ Test_page.suite @ Test_explore.suite)
