let () =
  Alcotest.run "lowpower"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("report", Test_report.suite);
      ("lang", Test_lang.suite);
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("transforms", Test_transforms.suite);
      ("pipeline", Test_pipeline.suite);
      ("sim", Test_sim.suite);
      ("patterns", Test_patterns.suite);
      ("power", Test_power.suite);
      ("parallel", Test_parallel.suite);
      ("parallel-harness", Test_parallel_harness.suite);
      ("experiments", Test_experiments.suite);
      ("properties", Test_props.suite);
      ("workloads-e2e", Test_workloads.suite);
      ("robustness", Test_robustness.suite);
      ("serve", Test_serve.suite);
      ("predecode", Test_predecode.suite);
      ("tune", Test_tune.suite);
      ("profile", Test_profile.suite);
      ("machines", Test_machines.suite);
    ]
