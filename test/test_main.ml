let () =
  Alcotest.run "ssreconf"
    (Test_sim.suites @ Test_quorum.suites @ Test_datalink.suites
   @ Test_detector.suites @ Test_recsa.suites @ Test_label.suites
   @ Test_counter.suites @ Test_vs.suites @ Test_register.suites
   @ Test_units.suites @ Test_harness.suites @ Test_runtime.suites
   @ Test_telemetry.suites @ Test_faults.suites @ Test_alloc.suites)
