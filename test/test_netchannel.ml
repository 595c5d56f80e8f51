(* Full-stack integration: TCP and HTTP carried end-to-end through each
   system configuration's real data path. *)

open Twindrivers
open Td_websim

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let connect ch =
  Tcp_lite.listen (Netchannel.client ch);
  Tcp_lite.connect (Netchannel.server ch);
  check bool_c "handshake over the stack" true
    (Netchannel.run ch ~until:(fun ch ->
         Tcp_lite.state (Netchannel.server ch) = Tcp_lite.Established
         && Tcp_lite.state (Netchannel.client ch)
            = Tcp_lite.Established))

let test_tcp_through_stack cfg () =
  let w = World.create ~nics:1 cfg in
  let ch = Netchannel.create w in
  connect ch;
  let data = String.init 50_000 (fun i -> Char.chr ((i * 5) land 0xff)) in
  Tcp_lite.write (Netchannel.server ch) data;
  check bool_c "stream delivered" true
    (Netchannel.run ch ~until:(fun ch ->
         Tcp_lite.delivered_bytes (Netchannel.client ch)
         >= String.length data));
  check bool_c "bytes intact" true
    (Tcp_lite.read (Netchannel.client ch) = data);
  check bool_c "frames actually crossed the NIC" true
    (World.wire_tx_frames w >= 30);
  check bool_c "every wire frame was carried by the channel" true
    (Netchannel.frames_carried ch >= World.wire_tx_frames w);
  (* teardown through the stack: the FIN and its ACK cross the data path
     too, leaving nothing in flight *)
  Tcp_lite.close (Netchannel.server ch);
  check bool_c "FIN acknowledged over the stack" true
    (Netchannel.run ch ~until:(fun ch ->
         Tcp_lite.state (Netchannel.server ch) = Tcp_lite.Time_wait
         && Tcp_lite.bytes_in_flight (Netchannel.server ch) = 0));
  check bool_c "the driver ran" true
    (Td_xen.Ledger.total (World.ledger w) Td_xen.Ledger.Driver > 0)

let test_http_through_twin_stack () =
  (* a knot web server in the guest serves a SPECweb file to the client
     through the hypervisor driver *)
  let w = World.create ~nics:1 Config.Xen_twin in
  let ch = Netchannel.create w in
  (* roles flipped: the guest runs the server, the remote client fetches —
     the channel's [server] endpoint is the guest side, so knot sits on
     it and the request comes from the [client] endpoint *)
  Tcp_lite.listen (Netchannel.server ch);
  Tcp_lite.connect (Netchannel.client ch);
  let knot = Knot.create () in
  Tcp_lite.write (Netchannel.client ch)
    (Http.format_request "/class2/file3");
  let inbox = Buffer.create 1024 in
  let response = ref None in
  let ok =
    Netchannel.run ch
      ~on_round:(fun ch ->
        Knot.serve knot (Netchannel.server ch);
        Buffer.add_string inbox (Tcp_lite.read (Netchannel.client ch));
        match Http.parse_response (Buffer.contents inbox) with
        | Some (r, _) -> response := Some r
        | None -> ())
      ~until:(fun _ -> !response <> None)
  in
  check bool_c "transaction completed" true ok;
  (match !response with
  | Some r ->
      check int_c "200" 200 r.Http.status;
      check bool_c "file served byte-exact through the hypervisor driver"
        true
        (r.Http.body = Knot.file_body ~cls:2 ~file:3)
  | None -> Alcotest.fail "no response");
  check int_c "knot served one request" 1 (Knot.requests_served knot);
  (* the transfer really used the driver *)
  let a = World.adapter w ~nic:0 in
  check bool_c "driver transmitted the response" true
    (Td_driver.Adapter.tx_packets a > 20)

let for_all_configs name f =
  List.map
    (fun cfg ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (Config.name cfg))
        `Quick (f cfg))
    Config.all

let suite =
  for_all_configs "tcp through the stack" test_tcp_through_stack
  @ [
      Alcotest.test_case "http through the twin stack" `Quick
        test_http_through_twin_stack;
    ]
