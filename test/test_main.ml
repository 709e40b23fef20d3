let () =
  Alcotest.run "bcc"
    [
      ("util", Test_util.suite);
      ("engine", Test_engine.suite);
      ("graph", Test_graph.suite);
      ("knapsack", Test_knapsack.suite);
      ("setcover", Test_setcover.suite);
      ("dks", Test_dks.suite);
      ("qk", Test_qk.suite);
      ("core-model", Test_core_model.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("golden", Test_golden.suite);
      ("solver", Test_solver.suite);
      ("gmc3-ecc", Test_gmc3_ecc.suite);
      ("data", Test_data.suite);
      ("catalog", Test_catalog.suite);
      ("extensions", Test_extensions.suite);
      ("more", Test_more.suite);
      ("theory", Test_theory.suite);
      ("misc", Test_misc.suite);
      ("ingest", Test_ingest.suite);
      ("robust", Test_robust.suite);
      ("oracle", Test_oracle.suite);
      ("fuzz", Test_fuzz.suite);
      ("store", Test_store.suite);
      ("pipeline", Test_pipeline.suite);
      ("sched", Test_sched.suite);
      ("server", Test_server.suite);
      ("obs", Test_obs.suite);
      ("cluster", Test_cluster.suite);
      ("bccd", Test_bccd.suite);
    ]
