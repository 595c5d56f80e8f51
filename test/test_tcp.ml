(* Tests for the TCP-like transport: handshake, segmentation, windowing,
   loss recovery, teardown — including a property test over random data
   and random (deterministic) loss patterns. *)

open Td_net
open Td_websim

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* two endpoints joined by queues with an optional drop predicate *)
type pair = {
  a : Tcp_lite.t;
  b : Tcp_lite.t;
  qa : Tcp_lite.segment Queue.t;  (** towards a *)
  qb : Tcp_lite.segment Queue.t;  (** towards b *)
}

let make_pair ?(drop = fun _ -> false) ?window () =
  let qa = Queue.create () and qb = Queue.create () in
  let n = ref 0 in
  let channel q seg =
    incr n;
    if not (drop !n) then Queue.push seg q
  in
  let a = Tcp_lite.create ?window ~send:(channel qb) () in
  let b = Tcp_lite.create ?window ~send:(channel qa) () in
  { a; b; qa; qb }

(* run the world until quiescent (or [limit] rounds); a round is one tick
   on each side plus full queue draining. Quiescent means: nothing queued,
   nothing in flight, and several quiet rounds in a row (retransmission
   bursts can be wholly lost, so in-flight data always keeps us going) *)
let settle ?(limit = 600) p =
  let rounds = ref 0 and quiet = ref 0 in
  while !quiet < 8 && !rounds < limit do
    incr rounds;
    let sent_before = Tcp_lite.segments_sent p.a + Tcp_lite.segments_sent p.b in
    let moved = ref false in
    while not (Queue.is_empty p.qb) do
      moved := true;
      Tcp_lite.on_segment p.b (Queue.pop p.qb)
    done;
    while not (Queue.is_empty p.qa) do
      moved := true;
      Tcp_lite.on_segment p.a (Queue.pop p.qa)
    done;
    Tcp_lite.tick p.a;
    Tcp_lite.tick p.b;
    (* quiescent only when nothing was received AND nothing was (re)sent —
       a retransmission eaten by the lossy channel still counts as
       activity — AND no data is awaiting acknowledgement *)
    if
      (not !moved)
      && Tcp_lite.segments_sent p.a + Tcp_lite.segments_sent p.b
         = sent_before
      && Queue.is_empty p.qa && Queue.is_empty p.qb
      && Tcp_lite.bytes_in_flight p.a = 0
      && Tcp_lite.bytes_in_flight p.b = 0
    then incr quiet
    else quiet := 0
  done

let connect p =
  Tcp_lite.listen p.b;
  Tcp_lite.connect p.a;
  settle p

let test_handshake () =
  let p = make_pair () in
  connect p;
  check bool_c "a established" true (Tcp_lite.state p.a = Tcp_lite.Established);
  check bool_c "b established" true (Tcp_lite.state p.b = Tcp_lite.Established)

let test_small_transfer () =
  let p = make_pair () in
  connect p;
  Tcp_lite.write p.a "hello, twin";
  settle p;
  check bool_c "delivered" true (Tcp_lite.read p.b = "hello, twin")

let test_segmentation () =
  let p = make_pair () in
  connect p;
  let data = String.init 10_000 (fun i -> Char.chr (i land 0xff)) in
  Tcp_lite.write p.a data;
  settle p;
  check bool_c "10k across segments" true (Tcp_lite.read p.b = data);
  check bool_c "used multiple segments" true (Tcp_lite.segments_sent p.a > 7)

let test_window_respected () =
  (* a tiny receive window throttles the sender *)
  let p = make_pair ~window:(2 * Tcp_lite.mss) () in
  connect p;
  Tcp_lite.write p.a (String.make 50_000 'w');
  (* before any delivery, the sender may not exceed the peer window *)
  check bool_c "in flight bounded" true
    (Tcp_lite.bytes_in_flight p.a <= 2 * Tcp_lite.mss);
  settle p;
  check int_c "all delivered eventually" 50_000
    (String.length (Tcp_lite.read p.b))

let test_loss_recovery () =
  (* drop every 7th segment crossing the wire, both directions *)
  let p = make_pair ~drop:(fun n -> n mod 7 = 0) () in
  connect p;
  let data = String.init 30_000 (fun i -> Char.chr ((i * 13) land 0xff)) in
  Tcp_lite.write p.a data;
  settle p;
  check bool_c "exact data despite loss" true (Tcp_lite.read p.b = data);
  check bool_c "retransmissions happened" true
    (Tcp_lite.retransmissions p.a > 0)

let test_teardown () =
  let p = make_pair () in
  connect p;
  Tcp_lite.write p.a "bye";
  Tcp_lite.close p.a;
  settle p;
  check bool_c "data before fin" true (Tcp_lite.read p.b = "bye");
  check bool_c "a done" true (Tcp_lite.state p.a = Tcp_lite.Time_wait)

let test_encode_roundtrip () =
  let seg =
    {
      Tcp_lite.seq = 123456;
      ack = 99;
      flags = Tcp_lite.ack_flag;
      window = 65535;
      payload = "payload bytes";
    }
  in
  check bool_c "roundtrip" true
    (Tcp_lite.decode_segment (Tcp_lite.encode_segment seg) = Some seg);
  check bool_c "garbage rejected" true (Tcp_lite.decode_segment "xx" = None);
  check bool_c "length mismatch rejected" true
    (Tcp_lite.decode_segment (Tcp_lite.encode_segment seg ^ "extra") = None)

let transfer_prop =
  QCheck.Test.make ~name:"random data over random loss arrives intact"
    ~count:30
    QCheck.(
      make
        Gen.(
          pair (int_range 0 20_000)
            (pair (int_range 2 30) (int_range 1 1000)))
        ~print:(fun (n, (d, seed)) ->
          Printf.sprintf "bytes=%d drop_mod=%d seed=%d" n d seed))
    (fun (n, (drop_mod, seed)) ->
      let rng = Rng.create ~seed in
      let data = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
      (* random (not periodic) loss with probability 1/drop_mod: periodic
         loss can phase-lock any deterministic retransmission schedule *)
      let loss_rng = Rng.create ~seed:(seed + 1) in
      let p = make_pair ~drop:(fun _ -> Rng.int loss_rng drop_mod = 0) () in
      connect p;
      Tcp_lite.write p.a data;
      Tcp_lite.close p.a;
      settle ~limit:4000 p;
      Tcp_lite.read p.b = data)

let suite =
  [
    Alcotest.test_case "handshake" `Quick test_handshake;
    Alcotest.test_case "small transfer" `Quick test_small_transfer;
    Alcotest.test_case "segmentation" `Quick test_segmentation;
    Alcotest.test_case "window respected" `Quick test_window_respected;
    Alcotest.test_case "loss recovery" `Quick test_loss_recovery;
    Alcotest.test_case "teardown" `Quick test_teardown;
    Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip;
    QCheck_alcotest.to_alcotest transfer_prop;
  ]
