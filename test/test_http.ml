(* HTTP + knot server tests: parsing, full GET transactions over the
   TCP-lite transport (with loss), SPECweb file validation. *)

open Td_net
open Td_websim

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let test_request_roundtrip () =
  let raw = Http.format_request ~headers:[ ("Host", "server") ] "/class1/file3" in
  match Http.parse_request raw with
  | Some (req, consumed) ->
      check bool_c "method" true (req.Http.meth = "GET");
      check bool_c "path" true (req.Http.path = "/class1/file3");
      check bool_c "version" true (req.Http.version = "HTTP/1.0");
      check bool_c "header (case-insensitive)" true
        (Http.header "host" req.Http.headers = Some "server");
      check int_c "consumed everything" (String.length raw) consumed
  | None -> Alcotest.fail "expected a parse"

let test_request_incremental () =
  let raw = Http.format_request "/x" in
  for i = 0 to String.length raw - 1 do
    check bool_c "incomplete prefix does not parse" true
      (Http.parse_request (String.sub raw 0 i) = None)
  done;
  check bool_c "complete parses" true (Http.parse_request raw <> None)

let test_response_roundtrip () =
  let body = String.init 5000 (fun i -> Char.chr (i land 0xff)) in
  let raw = Http.format_response ~status:200 ~body in
  (match Http.parse_response raw with
  | Some (r, consumed) ->
      check int_c "status" 200 r.Http.status;
      check bool_c "body intact" true (r.Http.body = body);
      check int_c "consumed" (String.length raw) consumed
  | None -> Alcotest.fail "expected a parse");
  (* body split across arrivals: incomplete until the last byte *)
  check bool_c "partial body does not parse" true
    (Http.parse_response (String.sub raw 0 (String.length raw - 1)) = None)

let test_knot_files () =
  (* file sizes follow the SPECweb ladder *)
  List.iter
    (fun (cls, sizes) ->
      Array.iteri
        (fun i expected ->
          check int_c "size" expected
            (String.length (Knot.file_body ~cls ~file:(i + 1))))
        sizes)
    Specweb.file_set;
  check bool_c "deterministic" true
    (Knot.file_body ~cls:2 ~file:4 = Knot.file_body ~cls:2 ~file:4);
  check bool_c "distinct files differ" true
    (Knot.file_body ~cls:2 ~file:4 <> Knot.file_body ~cls:2 ~file:5)

(* one HTTP transaction over a (possibly lossy) TCP pair *)
let fetch ?drop path =
  let qa = Queue.create () and qb = Queue.create () in
  let n = ref 0 in
  let channel q seg =
    incr n;
    match drop with
    | Some f when f !n -> ()
    | _ -> Queue.push seg q
  in
  let client = Tcp_lite.create ~send:(channel qb) () in
  let server_conn = Tcp_lite.create ~send:(channel qa) () in
  let server = Knot.create () in
  Tcp_lite.listen server_conn;
  Tcp_lite.connect client;
  Tcp_lite.write client (Http.format_request path);
  let inbox = Buffer.create 256 in
  let result = ref None in
  let rounds = ref 0 in
  while !result = None && !rounds < 3000 do
    incr rounds;
    while not (Queue.is_empty qb) do
      Tcp_lite.on_segment server_conn (Queue.pop qb)
    done;
    Knot.serve server server_conn;
    while not (Queue.is_empty qa) do
      Tcp_lite.on_segment client (Queue.pop qa)
    done;
    Buffer.add_string inbox (Tcp_lite.read client);
    (match Http.parse_response (Buffer.contents inbox) with
    | Some (r, _) -> result := Some r
    | None -> ());
    Tcp_lite.tick client;
    Tcp_lite.tick server_conn
  done;
  (!result, server)

let test_get_over_tcp () =
  let r, server = fetch "/class1/file5" in
  match r with
  | Some r ->
      check int_c "200" 200 r.Http.status;
      check bool_c "exact file" true (r.Http.body = Knot.file_body ~cls:1 ~file:5);
      check int_c "served" 1 (Knot.requests_served server)
  | None -> Alcotest.fail "no response"

let test_get_large_file_lossy () =
  (* class 3 file 9 = 900 KB-ish over a link dropping every 9th segment *)
  let r, _ = fetch ~drop:(fun n -> n mod 9 = 0) "/class3/file9" in
  match r with
  | Some r ->
      check int_c "200" 200 r.Http.status;
      check bool_c "900KB intact over lossy link" true
        (r.Http.body = Knot.file_body ~cls:3 ~file:9)
  | None -> Alcotest.fail "no response"

let test_404 () =
  let r, server = fetch "/no/such" in
  match r with
  | Some r ->
      check int_c "404" 404 r.Http.status;
      check int_c "missing counted" 1 (Knot.not_found server)
  | None -> Alcotest.fail "no response"

let test_bad_method () =
  let qa = Queue.create () and qb = Queue.create () in
  let client = Tcp_lite.create ~send:(fun s -> Queue.push s qb) () in
  let server_conn = Tcp_lite.create ~send:(fun s -> Queue.push s qa) () in
  let server = Knot.create () in
  Tcp_lite.listen server_conn;
  Tcp_lite.connect client;
  Tcp_lite.write client "DELETE /class0/file1 HTTP/1.0\r\n\r\n";
  let inbox = Buffer.create 64 in
  for _ = 1 to 40 do
    while not (Queue.is_empty qb) do
      Tcp_lite.on_segment server_conn (Queue.pop qb)
    done;
    Knot.serve server server_conn;
    while not (Queue.is_empty qa) do
      Tcp_lite.on_segment client (Queue.pop qa)
    done;
    Buffer.add_string inbox (Tcp_lite.read client);
    Tcp_lite.tick client;
    Tcp_lite.tick server_conn
  done;
  match Http.parse_response (Buffer.contents inbox) with
  | Some (r, _) -> check int_c "400" 400 r.Http.status
  | None -> Alcotest.fail "no response"

let fetch_prop =
  QCheck.Test.make ~name:"every specweb file fetches intact over loss"
    ~count:12
    QCheck.(
      make
        Gen.(triple (int_range 0 3) (int_range 1 9) (int_range 5 40))
        ~print:(fun (c, f, d) -> Printf.sprintf "class%d/file%d drop=1/%d" c f d))
    (fun (cls, file, drop_mod) ->
      let rng = Rng.create ~seed:(cls + (file * 17) + drop_mod) in
      let r, _ =
        fetch
          ~drop:(fun _ -> Rng.int rng drop_mod = 0)
          (Knot.file_path ~cls ~file)
      in
      match r with
      | Some r -> r.Http.status = 200 && r.Http.body = Knot.file_body ~cls ~file
      | None -> false)

let test_httperf_batch () =
  let o = Httperf.run ~seed:5 ~requests:40 () in
  check int_c "all completed" 40 o.Httperf.completed;
  check int_c "none failed" 0 o.Httperf.failed;
  check bool_c "all 200s" true (o.Httperf.by_status = [ (200, 40) ]);
  check bool_c "bytes plausible for specweb sampling" true
    (o.Httperf.bytes > 40 * 100)

let test_httperf_with_loss () =
  let rng = Rng.create ~seed:99 in
  let o =
    Httperf.run ~seed:6 ~drop:(fun _ -> Rng.int rng 12 = 0) ~requests:25 ()
  in
  check int_c "loss does not lose transactions" 25 o.Httperf.completed

let suite =
  [
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "request incremental" `Quick test_request_incremental;
    Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
    Alcotest.test_case "knot files" `Quick test_knot_files;
    Alcotest.test_case "GET over tcp" `Quick test_get_over_tcp;
    Alcotest.test_case "large file over lossy link" `Quick
      test_get_large_file_lossy;
    Alcotest.test_case "404" `Quick test_404;
    Alcotest.test_case "bad method" `Quick test_bad_method;
    QCheck_alcotest.to_alcotest fetch_prop;
    Alcotest.test_case "httperf batch" `Quick test_httperf_batch;
    Alcotest.test_case "httperf with loss" `Quick test_httperf_with_loss;
  ]
