(* Tests for the workload substrate: deterministic RNG, SPECweb99 file
   set, open-loop web-server model. *)

open Td_net

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  check bool_c "same seed, same stream" true (xs = ys);
  let c = Rng.create ~seed:124 in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  check bool_c "different seed differs" true (xs <> zs)

let test_rng_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    check bool_c "bounded" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    check bool_c "float bounded" true (f >= 0.0 && f < 2.5)
  done

let rng_pick_prop =
  QCheck.Test.make ~name:"rng pick respects weights roughly" ~count:5
    (QCheck.make (QCheck.Gen.int_range 1 1000))
    (fun seed ->
      let r = Rng.create ~seed in
      let w = [| 0.7; 0.2; 0.1 |] in
      let counts = Array.make 3 0 in
      for _ = 1 to 3000 do
        let i = Rng.pick r w in
        counts.(i) <- counts.(i) + 1
      done;
      (* the heaviest class dominates *)
      counts.(0) > counts.(1) && counts.(1) > counts.(2))

let test_specweb_distribution () =
  let s = Specweb.create ~seed:9 () in
  let n = 20000 in
  let class_counts = Array.make 4 0 in
  let total = ref 0 in
  for _ = 1 to n do
    let b = Specweb.sample_bytes s in
    let c = Specweb.class_of_bytes b in
    class_counts.(c) <- class_counts.(c) + 1;
    total := !total + b
  done;
  let frac c = float_of_int class_counts.(c) /. float_of_int n in
  check bool_c "class0 ~35%" true (abs_float (frac 0 -. 0.35) < 0.03);
  check bool_c "class1 ~50%" true (abs_float (frac 1 -. 0.50) < 0.03);
  check bool_c "class2 ~14%" true (abs_float (frac 2 -. 0.14) < 0.03);
  check bool_c "class3 ~1%" true (abs_float (frac 3 -. 0.01) < 0.01);
  let mean = float_of_int !total /. float_of_int n in
  check bool_c "empirical mean near analytic" true
    (abs_float (mean -. Specweb.mean_bytes) /. Specweb.mean_bytes < 0.15)

let test_specweb_file_set () =
  (* nine files per class, sizes are multiples of the class base *)
  List.iter
    (fun (c, sizes) ->
      check int_c "nine files" 9 (Array.length sizes);
      Array.iteri
        (fun i sz ->
          check bool_c "size ladder" true (sz = (i + 1) * sizes.(0));
          check int_c "classified correctly" c (Specweb.class_of_bytes sz))
        sizes)
    Specweb.file_set

let costs capacity_rps =
  (* synthetic cost model with a known capacity in requests/second *)
  {
    Webserver.tx_cycles_per_packet = 0.0;
    rx_cycles_per_packet = 0.0;
    app_cycles_per_request = 3e9 /. capacity_rps;
    frequency_hz = 3e9;
    mss = 1448;
    wire_limit_mbps = 1e9;
  }

let run_ws ~rate ~capacity =
  Webserver.run (costs capacity)
    {
      Webserver.request_rate = rate;
      requests = int_of_float (rate *. 3.0);
      timeout_s = 1.0;
      seed = 11;
    }

let test_webserver_underload () =
  let o = run_ws ~rate:1000. ~capacity:5000. in
  check int_c "nothing times out under load" 0 o.Webserver.timed_out;
  check bool_c "latency ~ service time" true (o.Webserver.mean_latency_s < 0.01)

let test_webserver_overload_degrades () =
  let under = run_ws ~rate:3000. ~capacity:5000. in
  let over = run_ws ~rate:12000. ~capacity:5000. in
  check bool_c "overload sheds requests" true (over.Webserver.timed_out > 0);
  check bool_c "completions bounded by capacity" true
    (float_of_int over.Webserver.completed
    < float_of_int (over.Webserver.completed + over.Webserver.timed_out));
  check bool_c "throughput does not collapse to zero" true
    (over.Webserver.response_mbps > 0.2 *. under.Webserver.response_mbps)

let test_webserver_open_loop_monotone_offered () =
  (* completed requests should track offered rate below capacity *)
  let a = run_ws ~rate:1000. ~capacity:10000. in
  let b = run_ws ~rate:2000. ~capacity:10000. in
  check bool_c "more offered, more completed" true
    (b.Webserver.completed > a.Webserver.completed);
  check bool_c "throughput scales" true
    (b.Webserver.response_mbps > 1.5 *. a.Webserver.response_mbps)

let test_webserver_deterministic () =
  let a = run_ws ~rate:8000. ~capacity:5000. in
  let b = run_ws ~rate:8000. ~capacity:5000. in
  check bool_c "identical outcome for identical seed" true
    (a.Webserver.completed = b.Webserver.completed
    && a.Webserver.timed_out = b.Webserver.timed_out)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    QCheck_alcotest.to_alcotest rng_pick_prop;
    Alcotest.test_case "specweb distribution" `Quick test_specweb_distribution;
    Alcotest.test_case "specweb file set" `Quick test_specweb_file_set;
    Alcotest.test_case "webserver underload" `Quick test_webserver_underload;
    Alcotest.test_case "webserver overload degrades" `Quick
      test_webserver_overload_degrades;
    Alcotest.test_case "webserver open loop" `Quick
      test_webserver_open_loop_monotone_offered;
    Alcotest.test_case "webserver deterministic" `Quick
      test_webserver_deterministic;
  ]
