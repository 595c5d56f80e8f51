(* Tests for the hypervisor substrate: ledger, domains, world switches,
   virtual interrupts, grant tables, upcalls. *)

open Td_xen

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let make_xen () =
  let m = Harness.make_machine () in
  let ledger = Ledger.create () in
  let cpu = Harness.dom0_cpu m in
  let hyp = Hypervisor.create ~ledger ~xen_space:m.Harness.hyp ~cpu () in
  let dom0 =
    Domain.create ~id:0 ~name:"dom0" ~kind:Domain.Driver_domain
      ~space:m.Harness.dom0
  in
  let gspace = Td_mem.Addr_space.create ~name:"guest" m.Harness.phys in
  Td_mem.Addr_space.heap_init gspace ~base:Td_mem.Layout.guest_heap_base
    ~limit:Td_mem.Layout.guest_heap_limit;
  let guest = Domain.create ~id:1 ~name:"guest" ~kind:Domain.Guest ~space:gspace in
  Hypervisor.add_domain hyp dom0;
  Hypervisor.add_domain hyp guest;
  let vif = Td_mem.Addr_space.heap_alloc m.Harness.dom0 4 in
  Domain.init_vif dom0 ~vaddr:vif;
  (m, hyp, dom0, guest)

let test_ledger () =
  let l = Ledger.create () in
  Ledger.charge l Ledger.Dom0 100;
  Ledger.charge l Ledger.Xen 50;
  Ledger.charge l Ledger.Xen 25;
  check int_c "dom0" 100 (Ledger.total l Ledger.Dom0);
  check int_c "xen" 75 (Ledger.total l Ledger.Xen);
  check int_c "grand" 175 (Ledger.grand_total l);
  let per = Ledger.per_packet l ~packets:25 in
  check bool_c "per packet" true (List.assoc Ledger.Xen per = 3.0);
  Ledger.reset l;
  check int_c "reset" 0 (Ledger.grand_total l)

let test_switch_charges_and_flushes () =
  let _, hyp, dom0, guest = make_xen () in
  check bool_c "initial domain is dom0" true
    (Domain.id (Hypervisor.current hyp) = Domain.id dom0);
  let before = Ledger.total (Hypervisor.ledger hyp) Ledger.Xen in
  Hypervisor.switch_to hyp guest;
  check bool_c "charged" true
    (Ledger.total (Hypervisor.ledger hyp) Ledger.Xen > before);
  check int_c "switch count" 1 (Hypervisor.switches hyp);
  (* switching to the current domain is free *)
  Hypervisor.switch_to hyp guest;
  check int_c "no-op switch" 1 (Hypervisor.switches hyp)

let test_run_in_restores () =
  let _, hyp, dom0, guest = make_xen () in
  Hypervisor.switch_to hyp guest;
  let seen = ref None in
  Hypervisor.run_in hyp dom0 (fun () ->
      seen := Some (Domain.name (Hypervisor.current hyp)));
  check bool_c "ran in dom0" true (!seen = Some "dom0");
  check bool_c "restored to guest" true
    (Domain.id (Hypervisor.current hyp) = Domain.id guest);
  (* exceptions restore too *)
  (try
     Hypervisor.run_in hyp dom0 (fun () -> failwith "boom")
   with Failure _ -> ());
  check bool_c "restored after exception" true
    (Domain.id (Hypervisor.current hyp) = Domain.id guest)

let test_virq_masking () =
  let _, hyp, dom0, _ = make_xen () in
  let fired = ref 0 in
  Domain.mask_interrupts dom0;
  Hypervisor.send_virq hyp dom0 (fun () -> incr fired);
  check int_c "deferred while masked" 0 !fired;
  check int_c "pending" 1 (Domain.pending dom0);
  Domain.unmask_interrupts dom0;
  check int_c "fired on unmask" 1 !fired;
  Hypervisor.send_virq hyp dom0 (fun () -> incr fired);
  check int_c "fires immediately when unmasked" 2 !fired

let test_vif_is_shared_memory () =
  (* the virtual interrupt flag is a word in dom0 memory: driver code can
     flip it directly, as §4.4 requires *)
  let m, _, dom0, _ = make_xen () in
  check bool_c "unmasked initially" false (Domain.interrupts_masked dom0);
  Td_mem.Addr_space.write m.Harness.dom0 (Domain.vif_addr dom0)
    Td_misa.Width.W32 1;
  check bool_c "masked via raw memory write" true
    (Domain.interrupts_masked dom0)

let test_grant_map_copy () =
  let m, hyp, dom0, guest = make_xen () in
  let gt = Grant_table.create ~owner:guest () in
  let gpage = Td_mem.Addr_space.heap_alloc (Domain.space guest) 4096 in
  Td_mem.Addr_space.write (Domain.space guest) gpage Td_misa.Width.W32 0xFEED;
  let frame =
    Option.get
      (Td_mem.Addr_space.frame_of_vpage (Domain.space guest)
         ~vpage:(Td_mem.Layout.page_of gpage))
  in
  let r = Grant_table.grant gt ~frame in
  (* dom0 maps the granted frame and sees the guest's data *)
  let at_vpage = 0xC7F10 in
  Grant_table.map gt ~hyp ~into:dom0 ~at_vpage r;
  check int_c "shared via grant" 0xFEED
    (Td_mem.Addr_space.read m.Harness.dom0 (at_vpage * 4096) Td_misa.Width.W32);
  (* a second grant exercises gnttab_copy while the first stays mapped *)
  let r2 = Grant_table.grant gt ~frame in
  let before = Ledger.total (Hypervisor.ledger hyp) Ledger.Xen in
  Grant_table.copy_to gt ~hyp r2 ~offset:100 ~src:(Bytes.of_string "hello");
  check bool_c "copy charged" true
    (Ledger.total (Hypervisor.ledger hyp) Ledger.Xen > before);
  let back = Grant_table.copy_from gt ~hyp r2 ~offset:100 ~len:5 in
  check bool_c "copy roundtrip" true (Bytes.to_string back = "hello");
  Grant_table.revoke gt r2;
  (* forced revocation: the guest takes its page back even while dom0
     still has it mapped — the stale window vpage is poisoned, so the
     LATER ACCESSOR faults deterministically instead of aliasing *)
  Grant_table.revoke gt r;
  check int_c "no active grants" 0 (Grant_table.active gt);
  check bool_c "stale access through revoked mapping faults" true
    (match
       Td_mem.Addr_space.read m.Harness.dom0 (at_vpage * 4096)
         Td_misa.Width.W32
     with
    | exception Guest_fault.Fault { op = "Grant_table.access_revoked"; _ } ->
        true
    | _ -> false);
  check bool_c "stale unmap after revoke faults as revoked" true
    (match Grant_table.unmap gt ~hyp ~from:dom0 ~at_vpage r with
    | exception Guest_fault.Fault { op = "Grant_table.unmap"; reason } ->
        String.length reason > 0
        && String.sub reason 0 7 = "revoked"
    | _ -> false)

(* Cross-domain isolation probe: mapping one guest's grant must never make
   another guest's frames reachable, a guest-chosen vpage must never
   clobber an existing mapping, and an arbitrary vpage must never unmap
   someone else's page. *)
let test_grant_isolation () =
  let m, hyp, dom0, guest = make_xen () in
  let other_space = Td_mem.Addr_space.create ~name:"other" m.Harness.phys in
  Td_mem.Addr_space.heap_init other_space ~base:Td_mem.Layout.guest_heap_base
    ~limit:Td_mem.Layout.guest_heap_limit;
  let other_page = Td_mem.Addr_space.heap_alloc other_space 4096 in
  let other_frame =
    Option.get
      (Td_mem.Addr_space.frame_of_vpage other_space
         ~vpage:(Td_mem.Layout.page_of other_page))
  in
  let gt = Grant_table.create ~owner:guest () in
  let gpage = Td_mem.Addr_space.heap_alloc (Domain.space guest) 4096 in
  let gframe =
    Option.get
      (Td_mem.Addr_space.frame_of_vpage (Domain.space guest)
         ~vpage:(Td_mem.Layout.page_of gpage))
  in
  let r = Grant_table.grant gt ~frame:gframe in
  let at_vpage = 0xC7F20 in
  Grant_table.map gt ~hyp ~into:dom0 ~at_vpage r;
  (* the mapping resolves to the granter's frame, nobody else's *)
  check bool_c "mapped frame is the granter's" true
    (Td_mem.Addr_space.frame_of_vpage m.Harness.dom0 ~vpage:at_vpage
    = Some gframe);
  check bool_c "mapped frame is not the other guest's" true
    (Td_mem.Addr_space.frame_of_vpage m.Harness.dom0 ~vpage:at_vpage
    <> Some other_frame);
  (* a second grant aimed at the same (occupied) vpage is refused *)
  let r2 = Grant_table.grant gt ~frame:gframe in
  check bool_c "map over occupied vpage refused" true
    (match Grant_table.map gt ~hyp ~into:dom0 ~at_vpage r2 with
    | exception Guest_fault.Fault _ -> true
    | _ -> false);
  (* unmap with a guest-chosen wrong vpage is refused *)
  check bool_c "unmap at wrong vpage refused" true
    (match
       Grant_table.unmap gt ~hyp ~from:dom0 ~at_vpage:(at_vpage + 1) r
     with
    | exception Guest_fault.Fault _ -> true
    | _ -> false);
  (* the refusals left the real mapping intact *)
  check bool_c "mapping survived the attacks" true
    (Td_mem.Addr_space.frame_of_vpage m.Harness.dom0 ~vpage:at_vpage
    = Some gframe);
  Grant_table.unmap gt ~hyp ~from:dom0 ~at_vpage r

let test_upcall_mechanism () =
  let _, hyp, dom0, guest = make_xen () in
  Hypervisor.switch_to hyp guest;
  let stats = Upcall.fresh_stats () in
  let ran_in = ref "" in
  let impl _st = ran_in := Domain.name (Hypervisor.current hyp) in
  let stub = Upcall.make_stub ~hyp ~dom0 ~name:"kmalloc" ~impl stats in
  let switches_before = Hypervisor.switches hyp in
  stub (Hypervisor.cpu hyp);
  check bool_c "support routine ran in dom0" true (!ran_in = "dom0");
  check bool_c "returned to guest" true
    (Domain.id (Hypervisor.current hyp) = Domain.id guest);
  check int_c "one invocation" 1 stats.Upcall.invocations;
  check int_c "two world switches" 2
    (Hypervisor.switches hyp - switches_before);
  (* an upcall from dom0 context needs no switch *)
  Hypervisor.switch_to hyp dom0;
  let sw = Hypervisor.switches hyp in
  stub (Hypervisor.cpu hyp);
  check int_c "no switch from dom0" 0 (Hypervisor.switches hyp - sw)

let test_scheduler_fairness () =
  let m = Harness.make_machine () in
  ignore m;
  let mk i =
    Domain.create ~id:i ~name:(Printf.sprintf "g%d" i) ~kind:Domain.Guest
      ~space:m.Harness.dom0
  in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  let sc = Scheduler.create ~initial_credit:2 () in
  Scheduler.add sc a;
  Scheduler.add sc b;
  Scheduler.add sc c;
  (* all runnable: picks rotate fairly as credits burn *)
  for _ = 1 to 9 do
    ignore (Scheduler.pick sc ~runnable:(fun () _ -> true) ())
  done;
  check int_c "a slices" 3 (Scheduler.slices sc a);
  check int_c "b slices" 3 (Scheduler.slices sc b);
  check int_c "c slices" 3 (Scheduler.slices sc c);
  (* only b runnable: b monopolises, credits refill as needed *)
  for _ = 1 to 5 do
    ignore (Scheduler.pick sc ~runnable:(fun () d -> Domain.id d = 2) ())
  done;
  check int_c "b monopolises when alone" 8 (Scheduler.slices sc b);
  check bool_c "nothing runnable -> None" true
    (Scheduler.pick sc ~runnable:(fun () _ -> false) () = None);
  (* a removed id, and one past the end of the slot array, fault typed *)
  Scheduler.remove sc c;
  List.iter
    (fun d ->
      check bool_c "unknown domain faults" true
        (match Scheduler.credit sc d with
        | exception Guest_fault.Fault { op = "Scheduler.find"; _ } -> true
        | _ -> false))
    [ c; mk 1000 ]

(* The list-based credit scheduler the array one replaced: [add]
   appends, [remove] filters, [pick] takes the runnable entry with the
   most credit (ties to the lowest id), refilling when all are out. *)
module Sched_model = struct
  type e = { id : int; mutable credit : int; mutable slices : int }

  let pick initial entries runnable =
    match List.filter (fun e -> runnable e.id) !entries with
    | [] -> None
    | candidates ->
        if List.for_all (fun e -> e.credit <= 0) candidates then
          List.iter (fun e -> e.credit <- initial) !entries;
        let best =
          List.fold_left
            (fun b e ->
              if e.credit > b.credit || (e.credit = b.credit && e.id < b.id)
              then e
              else b)
            (List.hd candidates) candidates
        in
        best.credit <- best.credit - 1;
        best.slices <- best.slices + 1;
        Some best.id
end

(* ops: add, remove, and picks over a runnable subset of ids 1..8 *)
let scheduler_model_prop =
  QCheck.Test.make ~name:"scheduler picks as the list model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 80) (pair (int_range 0 3) (int_range 0 255)))
    (fun ops ->
      let m = Harness.make_machine () in
      let doms =
        Array.init 9 (fun i ->
            Domain.create ~id:i ~name:(Printf.sprintf "g%d" i) ~kind:Domain.Guest
              ~space:m.Harness.dom0)
      in
      let initial = 2 in
      let sc = Scheduler.create ~initial_credit:initial () in
      let model = ref [] in
      let live id = List.exists (fun e -> e.Sched_model.id = id) !model in
      List.for_all
        (fun (op, arg) ->
          let id = 1 + (arg mod 8) in
          match op with
          | 0 ->
              if not (live id) then begin
                Scheduler.add sc doms.(id);
                model :=
                  !model @ [ { Sched_model.id; credit = initial; slices = 0 } ]
              end;
              true
          | 1 ->
              Scheduler.remove sc doms.(id);
              model := List.filter (fun e -> e.Sched_model.id <> id) !model;
              true
          | _ ->
              (* bit k of [arg] makes id k + 1 runnable; op 3 runs all *)
              let runnable id = op = 3 || (arg lsr (id - 1)) land 1 = 1 in
              let got =
                Option.map Domain.id
                  (Scheduler.pick sc ~runnable:(fun () d -> runnable (Domain.id d)) ())
              in
              got = Sched_model.pick initial model runnable
              && List.for_all
                   (fun e ->
                     Scheduler.credit sc doms.(e.Sched_model.id) = e.Sched_model.credit
                     && Scheduler.slices sc doms.(e.Sched_model.id)
                        = e.Sched_model.slices)
                   !model)
        ops)

let test_scheduler_pick_allocates_nothing () =
  let m = Harness.make_machine () in
  let sc = Scheduler.create () in
  for i = 1 to 50 do
    Scheduler.add sc
      (Domain.create ~id:i ~name:(Printf.sprintf "g%d" i) ~kind:Domain.Guest
         ~space:m.Harness.dom0)
  done;
  let idle () (_ : Domain.t) = false in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Scheduler.pick sc ~runnable:idle ())
  done;
  let words = Gc.minor_words () -. before in
  check bool_c (Printf.sprintf "%.0f minor words over 1000 idle picks" words)
    true (words < 100.)

let test_event_queue () =
  let q = Td_sim.Event_queue.create () in
  let log = ref [] in
  Td_sim.Event_queue.schedule q ~at:3.0 (fun () -> log := 3 :: !log);
  Td_sim.Event_queue.schedule q ~at:1.0 (fun () -> log := 1 :: !log);
  Td_sim.Event_queue.schedule q ~at:2.0 (fun () ->
      log := 2 :: !log;
      (* events may schedule events *)
      Td_sim.Event_queue.schedule_after q ~delay:0.5 (fun () -> log := 25 :: !log));
  Td_sim.Event_queue.run q;
  check bool_c "time order" true (List.rev !log = [ 1; 2; 25; 3 ]);
  check int_c "drained" 0 (Td_sim.Event_queue.pending q)

let test_event_queue_horizon () =
  let q = Td_sim.Event_queue.create () in
  let n = ref 0 in
  Td_sim.Event_queue.schedule q ~at:1.0 (fun () -> incr n);
  Td_sim.Event_queue.schedule q ~at:5.0 (fun () -> incr n);
  Td_sim.Event_queue.run_until q 2.0;
  check int_c "only first fired" 1 !n;
  check int_c "one pending" 1 (Td_sim.Event_queue.pending q)

(* The copy out of simulated memory shares copy_to's one checked core:
   a revoked ref, a copy past the page and a dry grant-copy byte bucket
   raise the same typed errors, and each leaves the guest page as it was
   (every check runs before the first byte moves). *)
let test_grant_copy_mem_faults () =
  let m, hyp, _dom0, guest = make_xen () in
  let gspace = Domain.space guest in
  let quota =
    Quota.make
      { Quota.unlimited with Quota.grant_copy_bytes_per_s = 1.; grant_copy_burst_bytes = 100. }
  in
  let gt = Grant_table.create ~quota ~owner:guest () in
  let gpage = Td_mem.Addr_space.heap_alloc gspace 4096 in
  let frame =
    Option.get
      (Td_mem.Addr_space.frame_of_vpage gspace ~vpage:(Td_mem.Layout.page_of gpage))
  in
  let page () = Td_mem.Addr_space.read_block gspace gpage 4096 in
  let src = Td_mem.Addr_space.heap_alloc m.Harness.dom0 4096 in
  Td_mem.Addr_space.write_string m.Harness.dom0 src (String.make 4096 's') ~off:0
    ~len:4096;
  let copy r ~offset ~len =
    Grant_table.copy_mem_to gt ~hyp r ~offset ~space:m.Harness.dom0 ~addr:src ~len
  in
  let r = Grant_table.grant gt ~frame in
  copy r ~offset:10 ~len:64;
  check bool_c "bytes land at the offset" true
    (Bytes.sub_string (page ()) 10 64 = String.make 64 's');
  let before = page () in
  let outcome f =
    match f () with
    | () -> "copied"
    | exception Guest_fault.Fault { op; reason; _ } -> op ^ ": " ^ reason
    | exception Quota.Quota_exceeded { resource; _ } -> "quota " ^ resource
  in
  (* both entry points, same refusal, same untouched page *)
  let same_as_copy_to name ~offset ~len r =
    let mem = outcome (fun () -> copy r ~offset ~len) in
    check bool_c (name ^ ": page untouched") true (page () = before);
    let bytes =
      outcome (fun () -> Grant_table.copy_to gt ~hyp r ~offset ~src:(Bytes.make len 'b'))
    in
    check Alcotest.string (name ^ ": same error as copy_to") bytes mem;
    check bool_c (name ^ ": refused") true (mem <> "copied");
    check bool_c (name ^ ": page still untouched") true (page () = before)
  in
  same_as_copy_to "past the page" ~offset:4090 ~len:8 r;
  (* 64 of the 100-byte bucket are spent: 64 more are refused in full *)
  same_as_copy_to "dry bucket" ~offset:0 ~len:64 r;
  let r2 = Grant_table.grant gt ~frame in
  Grant_table.revoke gt r2;
  same_as_copy_to "revoked ref" ~offset:0 ~len:8 r2

let suite =
  [
    Alcotest.test_case "ledger" `Quick test_ledger;
    Alcotest.test_case "switch charges/flushes" `Quick
      test_switch_charges_and_flushes;
    Alcotest.test_case "run_in restores" `Quick test_run_in_restores;
    Alcotest.test_case "virq masking" `Quick test_virq_masking;
    Alcotest.test_case "vif shared memory" `Quick test_vif_is_shared_memory;
    Alcotest.test_case "grant map/copy" `Quick test_grant_map_copy;
    Alcotest.test_case "grant isolation" `Quick test_grant_isolation;
    Alcotest.test_case "upcall mechanism" `Quick test_upcall_mechanism;
    Alcotest.test_case "scheduler fairness" `Quick test_scheduler_fairness;
    QCheck_alcotest.to_alcotest scheduler_model_prop;
    Alcotest.test_case "scheduler idle pick allocates nothing" `Quick
      test_scheduler_pick_allocates_nothing;
    Alcotest.test_case "event queue order" `Quick test_event_queue;
    Alcotest.test_case "event queue horizon" `Quick test_event_queue_horizon;
    Alcotest.test_case "grant copy from memory faults like copy_to" `Quick
      test_grant_copy_mem_faults;
  ]
