(* The N-domain registry and the fleet scenarios (docs/FLEET.md):
   a QCheck property over arbitrary create/attach/transmit/destroy
   interleavings asserting frame conservation and the no-dangling
   invariants, a nearest-rank percentile correctness check behind the
   fleet's latency columns, and a small deterministic fleet soak. *)

open Twindrivers

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* --- registry interleavings vs the no-dangling invariants --- *)

(* A scripted interleaving: each int drives one registry op on a world
   booted with one Xen_domU guest on 2 NICs. The model is just the set
   of live slots; after the script the world must agree with it and
   every conservation/no-dangling invariant must hold. *)
let registry_prop =
  QCheck.Test.make ~name:"registry interleavings conserve frames" ~count:30
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 80) (int_range 0 9999))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun script ->
      let tuning = { Config.default_tuning with Config.doorbell = true } in
      let w = World.create ~nics:2 ~tuning Config.Xen_domU in
      let live = ref [ 0 ] in
      let dead = ref [] in
      let tx_ok = ref 0 and injected = ref 0 in
      let pick l n = List.nth l (n mod List.length l) in
      List.iter
        (fun n ->
          match n mod 5 with
          | 0 ->
              if World.guest_slots w < 24 then begin
                let g = World.create_guest ~nic:(n mod 2) w in
                live := g :: !live
              end
          | 1 -> (
              (* destroy a live non-boot guest, if any *)
              match List.filter (fun g -> g <> 0) !live with
              | [] -> ()
              | candidates ->
                  let g = pick candidates n in
                  World.destroy_guest w ~guest:g;
                  live := List.filter (fun g' -> g' <> g) !live;
                  dead := g :: !dead)
          | 2 ->
              let g = pick !live n in
              if World.transmit_from w ~guest:g ~payload:(String.make 200 'f')
              then incr tx_ok
          | 3 ->
              let g = pick !live n in
              World.inject_rx ~guest:g w ~nic:(n mod 2)
                ~payload:(String.make 120 'r');
              incr injected
          | _ ->
              World.pump w;
              World.tick w)
        script;
      World.pump w;
      World.tick w;
      (* conservation: every accepted frame reached the wire (no quota,
         no fault plan in this world), nothing stranded in a channel *)
      let conserved = World.netio_conserved w in
      let wire_ok = World.wire_tx_frames w = !tx_ok in
      let rx_ok = World.delivered_rx_frames w <= !injected in
      (* registry agrees with the model *)
      let count_ok = World.guest_count w = List.length !live in
      let live_ok = List.for_all (fun g -> World.guest_alive w ~guest:g) !live in
      let dead_ok =
        List.for_all (fun g -> not (World.guest_alive w ~guest:g)) !dead
      in
      (* no dangling ledger row: retirement folded every destroyed
         guest's row into "<retired>" and dropped the named row *)
      let rows = List.map fst (Td_xen.Ledger.domain_snapshot (World.ledger w)) in
      let ledger_ok =
        List.for_all
          (fun g -> not (List.mem (Printf.sprintf "guest%d" g) rows))
          !dead
      in
      (* no dangling doorbell mapping: exactly one page per open channel
         (the boot guest holds one channel per NIC, later guests one) *)
      let open_channels = World.nic_count w + (List.length !live - 1) in
      let doorbell_ok = World.doorbell_pages_mapped w = open_channels in
      (* a destroyed guest's frontend faults typed, never crashes *)
      let stale_ok =
        match !dead with
        | [] -> true
        | g :: _ -> (
            match World.transmit_from w ~guest:g ~payload:"stale" with
            | (_ : bool) -> false
            | exception Td_xen.Guest_fault.Fault _ -> true)
      in
      World.shutdown w;
      let drained = World.staged_frames w = 0 in
      conserved && wire_ok && rx_ok && count_ok && live_ok && dead_ok
      && ledger_ok && doorbell_ok && stale_ok && drained)

(* --- nearest-rank percentiles, checked by hand --- *)

let test_percentile_correctness () =
  let l = Td_xen.Ledger.create () in
  check bool_c "no samples -> None" true
    (Td_xen.Ledger.latency_percentile l `Tx 50. = None);
  (* 10 known samples, recorded out of order *)
  List.iter
    (Td_xen.Ledger.note_latency l `Tx)
    [ 70; 10; 100; 40; 90; 20; 80; 50; 30; 60 ];
  let p d = Td_xen.Ledger.latency_percentile l d in
  let get = function Some v -> int_of_float v | None -> -1 in
  check int_c "10 samples" 10 (Td_xen.Ledger.latency_count l `Tx);
  (* nearest rank: index = ceil(p/100 * n) - 1 over the sorted samples *)
  check int_c "p50 = 5th of 10" 50 (get (p `Tx 50.));
  check int_c "p90 = 9th of 10" 90 (get (p `Tx 90.));
  check int_c "p99 = 10th of 10" 100 (get (p `Tx 99.));
  check int_c "p99.9 = 10th of 10" 100 (get (p `Tx 99.9));
  check int_c "p100 clamps to max" 100 (get (p `Tx 100.));
  check int_c "p0 clamps to min" 10 (get (p `Tx 0.));
  (* directions are independent *)
  check bool_c "rx untouched" true (p `Rx 50. = None);
  (* 1000 samples 1..1000, recorded in a scrambled order *)
  let l2 = Td_xen.Ledger.create () in
  for i = 0 to 999 do
    Td_xen.Ledger.note_latency l2 `Rx (1 + ((i * 617) mod 1000))
  done;
  let p2 q = get (Td_xen.Ledger.latency_percentile l2 `Rx q) in
  (* above 128 a bucket is at most 1/64 of its values wide, and the
     answer is the largest value seen in the rank's bucket *)
  let within name lo hi v =
    check bool_c (Printf.sprintf "%s: %d in [%d, %d]" name v lo hi) true
      (lo <= v && v <= hi)
  in
  within "p50 of 1..1000" 500 507 (p2 50.);
  within "p99 of 1..1000" 990 1005 (p2 99.);
  check int_c "p99.9 of 1..1000" 999 (p2 99.9)

(* --- a small fleet soak: deterministic, conserved, available --- *)

let test_fleet_smoke () =
  let r =
    Experiments.fleet ~domains:24 ~frames:6000 ~nics:2 ~seed:5 ~churn:6
      ~quota:true ~fault_rate:0. ~runs:2 ()
  in
  check int_c "fleet size" 24 r.Experiments.fl_domains;
  check bool_c "frames offered" true (r.Experiments.fl_offered_tx > 0);
  check bool_c "rx injected" true (r.Experiments.fl_rx_injected > 0);
  check bool_c "some churn happened" true (r.Experiments.fl_churned > 0);
  Harness.check_gate (Gates.fleet_availability r.Experiments.fl_availability);
  check bool_c "conserved" true r.Experiments.fl_conserved;
  check int_c "nothing staged after shutdown" 0
    r.Experiments.fl_staged_after_shutdown;
  check int_c "no dangling doorbells" 0 r.Experiments.fl_dangling_doorbells;
  check bool_c "two runs bit-identical" true r.Experiments.fl_deterministic;
  check bool_c "percentiles populated" true (r.Experiments.fl_tx_p50 > 0.)

let test_fleet_faulty_smoke () =
  (* with the fault plan armed the soak still conserves, recovers and
     replays deterministically *)
  let r =
    Experiments.fleet ~domains:12 ~frames:4000 ~nics:2 ~seed:9 ~churn:4
      ~quota:true ~fault_rate:1e-3 ~runs:2 ()
  in
  check bool_c "faults fired" true (r.Experiments.fl_injected > 0);
  check bool_c "conserved under faults" true r.Experiments.fl_conserved;
  check bool_c "deterministic under faults" true r.Experiments.fl_deterministic;
  check int_c "no dangling doorbells under faults" 0
    r.Experiments.fl_dangling_doorbells;
  check int_c "restart-replay lets no abort or refusal escape" 0
    r.Experiments.fl_contained

let test_fleet_rejects_oversize () =
  match Experiments.fleet ~domains:300 ~frames:10 () with
  | (_ : Experiments.fleet_report) ->
      Alcotest.fail "fleet accepted 300 domains"
  | exception Invalid_argument _ -> ()

let suite =
  [
    QCheck_alcotest.to_alcotest registry_prop;
    Alcotest.test_case "nearest-rank percentiles" `Quick
      test_percentile_correctness;
    Alcotest.test_case "fleet smoke: deterministic and conserved" `Quick
      test_fleet_smoke;
    Alcotest.test_case "fleet smoke under faults" `Quick
      test_fleet_faulty_smoke;
    Alcotest.test_case "fleet rejects > 256 domains" `Quick
      test_fleet_rejects_oversize;
  ]
