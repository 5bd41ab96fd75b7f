let () =
  Alcotest.run "bddfc"
    [ Test_obs.suite;
      Test_logic.suite;
      Test_structure.suite;
      Test_hom.suite;
      Test_chase.suite;
      Test_rewriting.suite;
      Test_rewrite.suite;
      Test_ptp.suite;
      Test_finitemodel.suite;
      Test_classes.suite;
      Test_analysis.suite;
      Test_properties.suite;
      Test_integration.suite;
      Test_extensions.suite;
      Test_provenance.suite;
      Test_budget.suite;
      Test_differential.suite;
      Test_hc.suite;
      Test_maintain.suite;
      Test_serve.suite;
      Test_absence.suite;
    ]
