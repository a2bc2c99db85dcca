let () =
  Alcotest.run "pnp"
    (List.concat [ Test_util.suites; Test_engine.suites; Test_trace.suites; Test_xkern.suites; Test_proto.suites; Test_codec.suites; Test_harness.suites; Test_pool.suites; Test_memo.suites; Test_extensions.suites; Test_fuzz.suites; Test_edge.suites; Test_network.suites; Test_driver.suites; Test_report.suites; Test_analysis.suites; Test_hb.suites; Test_faults.suites; Test_overload.suites; Test_scr.suites ])
