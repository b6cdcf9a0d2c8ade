(* Aggregated test entry point: `dune runtest`. *)

let () =
  Alcotest.run "klotski"
    [
      Suite_heap.suite;
      Suite_vec_key.suite;
      Suite_prng.suite;
      Suite_stats.suite;
      Suite_bitset.suite;
      Suite_timer_table.suite;
      Suite_topo.suite;
      Suite_symmetry.suite;
      Suite_gen.suite;
      Suite_traffic.suite;
      Suite_migration.suite;
      Suite_constraint.suite;
      Suite_planners.suite;
      Suite_incremental.suite;
      Suite_robust.suite;
      Suite_overlay.suite;
      Suite_packed.suite;
      Suite_plan.suite;
      Suite_npd.suite;
      Suite_extensions.suite;
      Suite_dot.suite;
      Suite_maxflow.suite;
      Suite_npd_export.suite;
      Suite_audit_timeline.suite;
      Suite_misc.suite;
    ]
