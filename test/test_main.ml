let () =
  (* The driver's degradation warnings are exercised (and asserted on)
     explicitly; keep them from spraying the test log. *)
  Harness.Driver.quiet := true;
  Exec.Supervise.quiet := true;
  Alcotest.run "nova"
    [
      ("bitvec", Test_bitvec.suite);
      ("logic", Test_logic.suite);
      ("espresso", Test_espresso.suite);
      ("fsm", Test_fsm.suite);
      ("constraints", Test_constraints.suite);
      ("nova-embed", Test_nova_embed.suite);
      ("nova-algos", Test_nova_algos.suite);
      ("symbmin", Test_symbmin.suite);
      ("baselines", Test_baselines.suite);
      ("multilevel", Test_multilevel.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("harness", Test_harness.suite);
      ("integration", Test_integration.suite);
      ("reduce-states", Test_reduce_states.suite);
      ("simulate", Test_simulate.suite);
      ("face-props", Test_face_props.suite);
      ("export", Test_export.suite);
      ("logic-bruteforce", Test_logic_bruteforce.suite);
      ("embed-policies", Test_embed_policies.suite);
      ("driver", Test_driver.suite);
      ("symbolic-details", Test_symbolic_details.suite);
      ("roundtrips", Test_roundtrips.suite);
      ("espresso-differential", Test_espresso_differential.suite);
      ("espresso-identity", Test_espresso_identity.suite);
      ("encode-differential", Test_encode_differential.suite);
      ("regression-counts", Test_regression_counts.suite);
      ("pipeline", Test_pipeline.suite);
      ("check", Test_check.suite);
      ("check-exact", Test_check_exact.suite);
      ("kiss-fuzz", Test_kiss_fuzz.suite);
      ("exec", Test_exec.suite);
      ("chaos", Test_chaos.suite);
      ("trace", Test_trace.suite);
      ("scaling", Test_scaling.suite);
      ("metrics", Test_metrics.suite);
      ("serve", Test_serve.suite);
    ]
