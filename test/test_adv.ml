(* Tests for the adversarial-guest subsystem: deterministic fuzz replays,
   per-domain quota token buckets, and the hostile-neighbour protection
   the quotas buy. *)

open Td_xen

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let test_replay_bit_identical () =
  let quota =
    { Quota.default_limits with Quota.notifications_per_s = 5_000. }
  in
  let r1 = Td_adv.Fuzz.run ~seed:7 ~quota ~ops:4096 () in
  let r2 = Td_adv.Fuzz.run ~seed:7 ~quota ~ops:4096 () in
  check bool_c "no violations" true (r1.Td_adv.Fuzz.violations = []);
  check int_c "checksum replays" r1.Td_adv.Fuzz.checksum
    r2.Td_adv.Fuzz.checksum;
  check int_c "ok replays" r1.Td_adv.Fuzz.ok r2.Td_adv.Fuzz.ok;
  check int_c "guest faults replay" r1.Td_adv.Fuzz.guest_faults
    r2.Td_adv.Fuzz.guest_faults;
  check int_c "svm faults replay" r1.Td_adv.Fuzz.svm_faults
    r2.Td_adv.Fuzz.svm_faults;
  check int_c "quota denials replay" r1.Td_adv.Fuzz.quota_denials
    r2.Td_adv.Fuzz.quota_denials;
  (* all five surfaces and all three allowed outcomes were exercised *)
  check bool_c "some ops succeeded" true (r1.Td_adv.Fuzz.ok > 0);
  check bool_c "domain churn exercised" true (r1.Td_adv.Fuzz.churned > 0);
  check int_c "churn replays" r1.Td_adv.Fuzz.churned r2.Td_adv.Fuzz.churned;
  check bool_c "guest faults contained" true (r1.Td_adv.Fuzz.guest_faults > 0);
  check bool_c "svm faults contained" true (r1.Td_adv.Fuzz.svm_faults > 0);
  check bool_c "quota denials contained" true
    (r1.Td_adv.Fuzz.quota_denials > 0);
  (* a different seed takes a different path *)
  let r3 = Td_adv.Fuzz.run ~seed:8 ~quota ~ops:4096 () in
  check bool_c "seed changes the stream" true
    (r3.Td_adv.Fuzz.checksum <> r1.Td_adv.Fuzz.checksum);
  check bool_c "still no violations" true (r3.Td_adv.Fuzz.violations = [])

let test_fuzz_without_quota () =
  let r = Td_adv.Fuzz.run ~seed:3 ~ops:2048 () in
  check bool_c "no violations without quotas" true
    (r.Td_adv.Fuzz.violations = []);
  check int_c "no denials without quotas" 0 r.Td_adv.Fuzz.quota_denials

(* the quota engine keys on domain ids and exempts the driver domain by
   its kind: dom0 (id 0) and two guests, "g" and "h" *)
let quota_domains () =
  let phys = Td_mem.Phys_mem.create () in
  let dom id name kind =
    Domain.create ~id ~name ~kind ~space:(Td_mem.Addr_space.create ~name phys)
  in
  (dom 0 "dom0" Domain.Driver_domain, dom 1 "g" Domain.Guest,
   dom 2 "h" Domain.Guest)

let test_token_bucket () =
  let dom0, g, h = quota_domains () in
  (* the engine's clock counts cycles *)
  let clock = ref 0 and hz = Td_cpu.Cost_model.frequency_hz in
  let q =
    Quota.make
      ~now:(fun () -> !clock)
      {
        Quota.unlimited with
        Quota.notifications_per_s = 10.;
        upcalls_per_s = 10.;
        burst = 3.;
      }
  in
  (* the bucket starts full at [burst] *)
  for _ = 1 to 3 do
    check bool_c "burst token" true (Quota.try_take q ~domain:g Quota.Notifications)
  done;
  check bool_c "bucket dry" false (Quota.try_take q ~domain:g Quota.Notifications);
  check bool_c "take raises when dry" true
    (match Quota.take q ~domain:g Quota.Notifications with
    | exception Quota.Quota_exceeded { domain = "g"; resource } ->
        resource = Quota.resource_name Quota.Notifications
    | _ -> false);
  (* simulated time refills at 10 tokens/s, capped at burst *)
  clock := !clock + (hz / 10);
  check bool_c "one token refilled" true
    (Quota.try_take q ~domain:g Quota.Notifications);
  check bool_c "only one" false (Quota.try_take q ~domain:g Quota.Notifications);
  clock := !clock + (100 * hz);
  for _ = 1 to 3 do
    check bool_c "refill capped at burst" true
      (Quota.try_take q ~domain:g Quota.Notifications)
  done;
  check bool_c "capped" false (Quota.try_take q ~domain:g Quota.Notifications);
  (* per-(domain, resource) buckets are independent *)
  check bool_c "other domain unaffected" true
    (Quota.try_take q ~domain:h Quota.Notifications);
  check bool_c "other resource unaffected" true
    (Quota.try_take q ~domain:g Quota.Upcalls);
  (* exempt domains never throttle *)
  for _ = 1 to 50 do
    check bool_c "dom0 exempt" true (Quota.try_take q ~domain:dom0 Quota.Notifications)
  done;
  check bool_c "throttles counted" true (Quota.throttled q >= 2);
  check bool_c "per-domain throttles" true
    (Quota.throttled_for q ~domain:g Quota.Notifications >= 2)

let test_concurrency_caps () =
  let _, g, _ = quota_domains () in
  let q =
    Quota.make { Quota.unlimited with Quota.map_window_pages = 4 }
  in
  Quota.acquire q ~domain:g Quota.Map_window_pages 2;
  Quota.acquire q ~domain:g Quota.Map_window_pages 2;
  check int_c "inuse" 4 (Quota.inuse q ~domain:g Quota.Map_window_pages);
  check bool_c "cap enforced" true
    (match Quota.acquire q ~domain:g Quota.Map_window_pages 2 with
    | exception Quota.Quota_exceeded _ -> true
    | _ -> false);
  Quota.release q ~domain:g Quota.Map_window_pages 2;
  check int_c "released" 2 (Quota.inuse q ~domain:g Quota.Map_window_pages);
  Quota.acquire q ~domain:g Quota.Map_window_pages 2;
  (* no engine, no check: a rig built without quotas admits what an
     engine would refuse *)
  let env = Td_adv.Harness.make () in
  check bool_c "rig has no engine" true (Option.is_none env.Td_adv.Harness.quota);
  let _, frame = env.Td_adv.Harness.pool.(0) in
  for _ = 1 to 1000 do
    ignore (Grant_table.grant env.Td_adv.Harness.att_grants ~frame)
  done;
  check bool_c "cleared engine admits all" true
    (Grant_table.active env.Td_adv.Harness.att_grants >= 1000)

let test_neighbour_protection () =
  let tight =
    { Quota.unlimited with Quota.notifications_per_s = 25_000.; burst = 16. }
  in
  let solo = Td_adv.Harness.contend ~attack_per_frame:0 () in
  let on = Td_adv.Harness.contend ~quota:tight () in
  let off = Td_adv.Harness.contend () in
  let mbps (c : Td_adv.Harness.contention) =
    float_of_int c.Td_adv.Harness.victim_wire
    /. float_of_int c.Td_adv.Harness.grand_cycles
  in
  check int_c "victim never throttled" 0 on.Td_adv.Harness.victim_throttled;
  check int_c "victim delivered everything" on.Td_adv.Harness.victim_sent
    on.Td_adv.Harness.victim_wire;
  check bool_c "attacker heavily throttled" true
    (on.Td_adv.Harness.attacker_throttled
    > on.Td_adv.Harness.attacker_attempts / 2);
  (* protected within 10% of solo, unprotected visibly degraded *)
  Harness.check_gate (Gates.adversary_victim_quota_on (mbps on /. mbps solo));
  Harness.check_gate (Gates.adversary_victim_quota_off (mbps off /. mbps solo));
  (* the attacker pays for its own denials, not the victim *)
  check bool_c "denials billed to the attacker" true
    (on.Td_adv.Harness.attacker_row > 0)

let test_isolation_sweep () =
  let env = Td_adv.Harness.make () in
  check bool_c "fresh rig isolated" true
    (Td_adv.Harness.isolation_violations env = []);
  check bool_c "fresh rig conserves frames" true
    (Td_adv.Harness.conservation_violations env = [])

let suite =
  [
    Alcotest.test_case "fixed-seed replay is bit-identical" `Quick
      test_replay_bit_identical;
    Alcotest.test_case "fuzz clean without quotas" `Quick
      test_fuzz_without_quota;
    Alcotest.test_case "rate token bucket" `Quick test_token_bucket;
    Alcotest.test_case "concurrency caps" `Quick test_concurrency_caps;
    Alcotest.test_case "hostile neighbour protection" `Quick
      test_neighbour_protection;
    Alcotest.test_case "isolation sweep on fresh rig" `Quick
      test_isolation_sweep;
  ]
