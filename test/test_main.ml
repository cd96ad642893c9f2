let () =
  Alcotest.run "ruid-repro"
    [
      ("bignat", Test_bignat.suite);
      ("dom", Test_dom.suite);
      ("parser", Test_parser.suite);
      ("sax", Test_sax.suite);
      ("stream_build", Test_stream_build.suite);
      ("uid", Test_uid.suite);
      ("frame", Test_frame.suite);
      ("ruid2", Test_ruid2.suite);
      ("multilevel", Test_multilevel.suite);
      ("mruid", Test_mruid.suite);
      ("schemes", Test_schemes.suite);
      ("xpath", Test_xpath.suite);
      ("doc_index", Test_doc_index.suite);
      ("storage", Test_storage.suite);
      ("fault", Test_fault.suite);
      ("wal", Test_wal.suite);
      ("workload", Test_workload.suite);
      ("join", Test_join.suite);
      ("reconstruct", Test_reconstruct.suite);
      ("codec", Test_codec.suite);
      ("persist", Test_persist.suite);
      ("partitioned", Test_partitioned.suite);
      ("pathplan", Test_pathplan.suite);
      ("collection", Test_collection.suite);
      ("dataguide", Test_dataguide.suite);
      ("twig", Test_twig.suite);
      ("misc", Test_misc.suite);
      ("fuzz", Test_fuzz.suite);
      ("conformance", Test_conformance.suite);
      ("planner", Test_planner.suite);
      ("server", Test_server.suite);
      ("parallel", Test_parallel.suite);
      ("replication", Test_replication.suite);
      ("router", Test_router.suite);
    ]
