let () =
  Alcotest.run "twindrivers"
    [
      ("misa", Test_misa.suite);
      ("mem", Test_mem.suite);
      ("cpu", Test_cpu.suite);
      ("svm", Test_svm.suite);
      ("rewriter", Test_rewriter.suite);
      ("binary", Test_binary.suite);
      ("golden", Test_golden.suite);
      ("props", Test_props.suite);
      ("guards", Test_guards.suite);
      ("xen", Test_xen.suite);
      ("kernel", Test_kernel.suite);
      ("nic", Test_nic.suite);
      ("net", Test_net.suite);
      ("tcp", Test_tcp.suite);
      ("http", Test_http.suite);
      ("rtl", Test_rtl.suite);
      ("world", Test_world.suite);
      ("netio", Test_netio.suite);
      ("doorbell", Test_doorbell.suite);
      ("multiqueue", Test_multiqueue.suite);
      ("window", Test_window.suite);
      ("netchannel", Test_netchannel.suite);
      ("experiments", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("fault", Test_fault.suite);
      ("adv", Test_adv.suite);
      ("fleet", Test_fleet.suite);
      ("hostpath", Test_hostpath.suite);
    ]
