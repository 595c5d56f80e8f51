open Td_xen
open Td_kernel

type report = {
  ops : int;  (** ops actually executed *)
  ok : int;
  guest_faults : int;  (** contained [Guest_fault.Fault] *)
  svm_faults : int;  (** contained [Td_svm.Runtime.Fault] *)
  quota_denials : int;  (** contained [Quota.Quota_exceeded] *)
  churned : int;  (** ephemeral domains created (and later destroyed) *)
  checksum : int;  (** deterministic fold over (surface, outcome) *)
  violations : string list;  (** empty on a clean run *)
  quota : Td_xen.Quota.state option;
      (** the run's quota engine ({!Harness.env.quota}), for reading its
          per-domain counters *)
}

(* one independent xorshift stream per fuzz surface plus a master
   selector, so a seed replays bit-identically *)
module Rng = struct
  include Td_fault.Xorshift

  let below streams i n = next streams i mod n
end

(* stream indices *)
let s_hyp = 0
let s_grant = 1
let s_nic = 2
let s_netio = 3
let s_churn = 4
let s_master = 5
let n_streams = 6

(* Mutable view of the attacker's grant refs so later ops can hit live,
   mapped and revoked refs on purpose. Bounded: revoking trims [live],
   and the tombstone/poison lists keep only the newest few. *)
type gstate = {
  mutable live : (Grant_table.grant_ref * int option) list;
      (** ref, vpage it was last successfully mapped at *)
  mutable revoked : Grant_table.grant_ref list;
  mutable poisoned : int list;  (** dom0 vaddrs torn down by forced revoke *)
}

let keep n l = List.filteri (fun i _ -> i < n) l

let pick streams s l =
  match l with [] -> None | _ -> Some (List.nth l (Rng.below streams s (List.length l)))

(* ---- surface 0: hypercalls and SVM address translation ---- *)

let op_hypercall (env : Harness.env) streams =
  let r = Rng.below streams s_hyp 8 in
  let probe_span = env.dom0_probe_pages * Td_mem.Layout.page_size in
  match r with
  | 0 -> Hypervisor.hypercall env.hyp ~cost:(1 + Rng.below streams s_hyp 500) ()
  | 1 ->
      (* legitimate dom0 address: must translate *)
      ignore
        (Td_svm.Runtime.translate env.svm
           (env.dom0_probe + Rng.below streams s_hyp probe_span))
  | 2 ->
      (* wild addresses: low memory, hypervisor text, the map window
         itself, unmapped dom0 heap — all must fault, not map *)
      let addr =
        match Rng.below streams s_hyp 4 with
        | 0 -> Rng.below streams s_hyp 0x1000
        | 1 -> Td_mem.Layout.hyp_base + Rng.below streams s_hyp 0x10000
        | 2 ->
            Td_mem.Layout.map_window_base
            + Rng.below streams s_hyp
                (Td_mem.Layout.map_window_pages * Td_mem.Layout.page_size)
        | _ ->
            Td_mem.Layout.dom0_heap_limit - 4096
            + Rng.below streams s_hyp 4096
      in
      ignore (Td_svm.Runtime.translate env.svm addr)
  | 3 ->
      ignore
        (Td_svm.Call_table.translate env.calls
           (Td_mem.Layout.vm_driver_code_base
           + Rng.below streams s_hyp Td_mem.Layout.page_size))
  | 4 ->
      (* untranslatable indirect-call target *)
      ignore (Td_svm.Call_table.translate env.calls (Rng.below streams s_hyp 0x0FFF_FFFF))
  | 5 ->
      Td_svm.Runtime.invalidate_page env.svm
        (env.dom0_probe + Rng.below streams s_hyp probe_span)
  | 6 ->
      (* page-straddling translate near the probe's end *)
      ignore
        (Td_svm.Runtime.translate env.svm (env.dom0_probe + probe_span - 2))
  | _ -> Hypervisor.hypercall env.hyp ~cost:(1 + Rng.below streams s_hyp 5000) ()

(* ---- surface 1: grant-table lifecycle ---- *)

let op_grant (env : Harness.env) streams gs =
  let gt = env.att_grants in
  let rand_vpage () =
    Td_mem.Layout.page_of Harness.fuzz_map_base
    + Rng.below streams s_grant Harness.fuzz_map_pages
  in
  (* keep the live set bounded so an unbounded run can't leak refs *)
  let r =
    if List.length gs.live >= 48 then 6 else Rng.below streams s_grant 10
  in
  match r with
  | 0 ->
      let _, frame =
        env.pool.(Rng.below streams s_grant (Array.length env.pool))
      in
      let g = Grant_table.grant gt ~frame in
      gs.live <- (g, None) :: gs.live
  | 1 -> (
      (* map a live ref at a fuzz-window vpage *)
      match pick streams s_grant gs.live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (g, _) ->
          let vp = rand_vpage () in
          Grant_table.map gt ~hyp:env.hyp ~into:env.dom0 ~at_vpage:vp g;
          gs.live <-
            List.map (fun (g', m) -> if g' = g then (g', Some vp) else (g', m)) gs.live)
  | 2 ->
      (* garbage ref *)
      Grant_table.map gt ~hyp:env.hyp ~into:env.dom0 ~at_vpage:(rand_vpage ())
        (1000 + Rng.below streams s_grant 100_000)
  | 3 -> (
      (* reuse-after-revoke: must fault as "revoked", deterministically *)
      match pick streams s_grant gs.revoked with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some g ->
          Grant_table.map gt ~hyp:env.hyp ~into:env.dom0
            ~at_vpage:(rand_vpage ()) g)
  | 4 -> (
      (* correct unmap of a mapped ref *)
      match
        pick streams s_grant
          (List.filter (fun (_, m) -> m <> None) gs.live)
      with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (g, Some vp) ->
          Grant_table.unmap gt ~hyp:env.hyp ~from:env.dom0 ~at_vpage:vp g;
          gs.live <-
            List.map (fun (g', m) -> if g' = g then (g', None) else (g', m)) gs.live
      | Some (_, None) -> ())
  | 5 -> (
      (* unmap at the wrong vpage: must be refused, not silently unmap *)
      match pick streams s_grant gs.live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (g, m) ->
          let vp = rand_vpage () in
          Grant_table.unmap gt ~hyp:env.hyp ~from:env.dom0 ~at_vpage:vp g;
          (* the draw hit a vpage the ref is mapped at, so the unmap was
             legitimate: the ref is no longer mapped where we recorded,
             and a later revoke must not count that vpage as poisoned *)
          if m = Some vp then
            gs.live <-
              List.map
                (fun (g', m') -> if g' = g then (g', None) else (g', m'))
                gs.live)
  | 6 -> (
      (* revoke — possibly while mapped (forced teardown + poison) *)
      match pick streams s_grant gs.live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (g, m) ->
          Grant_table.revoke gt g;
          gs.live <- List.filter (fun (g', _) -> g' <> g) gs.live;
          gs.revoked <- keep 16 (g :: gs.revoked);
          (match m with
          | Some vp ->
              gs.poisoned <-
                keep 16 ((vp * Td_mem.Layout.page_size) :: gs.poisoned)
          | None -> ()))
  | 7 -> (
      (* stale access through a torn-down mapping: typed fault *)
      match pick streams s_grant gs.poisoned with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some vaddr ->
          ignore (Td_mem.Addr_space.read env.dom0_space vaddr Td_misa.Width.W32))
  | 8 -> (
      (* gnttab_copy in, guest-controlled bounds (often past the page) *)
      match pick streams s_grant gs.live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (g, _) ->
          let offset = Rng.below streams s_grant 12288 - 2048 in
          let len = Rng.below streams s_grant 6000 in
          Grant_table.copy_to gt ~hyp:env.hyp g ~offset
            ~src:(Bytes.make len 'F'))
  | _ -> (
      match pick streams s_grant gs.live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (g, _) ->
          let offset = Rng.below streams s_grant 12288 - 2048 in
          let len = Rng.below streams s_grant 6000 in
          ignore (Grant_table.copy_from gt ~hyp:env.hyp g ~offset ~len))

(* ---- surface 2: guest-writable NIC descriptor rings + MMIO ---- *)

let op_nic (env : Harness.env) streams =
  let mmio off v =
    Td_mem.Addr_space.write env.att_space (env.nic_mmio + off) Td_misa.Width.W32 v
  in
  match Rng.below streams s_nic 8 with
  | 0 ->
      (* scribble raw words over the descriptor ring page *)
      let off = 4 * Rng.below streams s_nic 1024 in
      let v =
        if Rng.below streams s_nic 2 = 0 then env.buf_base
        else Rng.next streams s_nic land 0xFFFF_FFFF
      in
      Td_mem.Addr_space.write env.att_space (env.ring_base + off)
        Td_misa.Width.W32 v
  | 1 ->
      (* program the TX ring semi-plausibly, then kick it *)
      let base =
        if Rng.below streams s_nic 3 = 0 then
          Rng.next streams s_nic land 0xFFFF_F000
        else env.ring_base
      in
      mmio Td_nic.Regs.tdbal base;
      mmio Td_nic.Regs.tdlen ((1 + Rng.below streams s_nic 32) * 16);
      mmio Td_nic.Regs.tdh (Rng.below streams s_nic 64);
      mmio Td_nic.Regs.tdt (Rng.below streams s_nic 64)
  | 2 -> mmio Td_nic.Regs.tdt (Rng.below streams s_nic 512)
  | 3 ->
      (* misaligned / narrow MMIO: typed fault *)
      Td_mem.Addr_space.write env.att_space
        (env.nic_mmio + Rng.below streams s_nic Td_mem.Layout.page_size)
        Td_misa.Width.W8
        (Rng.below streams s_nic 256)
  | 4 ->
      ignore
        (Td_mem.Addr_space.read env.att_space
           (env.nic_mmio + (4 * Rng.below streams s_nic 1024))
           Td_misa.Width.W32)
  | 5 ->
      Td_nic.E1000_dev.receive_frame env.nic
        (String.make (1 + Rng.below streams s_nic 1600) 'r')
  | 6 ->
      (* garbage packet bytes for descriptors to point at *)
      Td_mem.Addr_space.write env.att_space
        (env.buf_base + (4 * Rng.below streams s_nic 1024))
        Td_misa.Width.W32
        (Rng.next streams s_nic land 0xFFFF_FFFF)
  | _ ->
      if Rng.below streams s_nic 8 = 0 then ignore (Td_nic.E1000_dev.reset env.nic)
      else ignore (Td_mem.Addr_space.read env.att_space env.nic_mmio Td_misa.Width.W32)

(* ---- surface 3: I/O channel + doorbell sequence words ---- *)

let op_netio (env : Harness.env) streams =
  let io = env.att_netio in
  match Rng.below streams s_netio 8 with
  | 0 -> Xen_netio.guest_transmit io ~hdr:"" (String.make (60 + Rng.below streams s_netio 1440) 'a')
  | 1 ->
      (* oversized frame: typed fault, charged to the attacker *)
      Xen_netio.guest_transmit io ~hdr:""
        (String.make (Td_mem.Layout.page_size + 1 + Rng.below streams s_netio 1000) 'a')
  | 2 -> (
      (* scribble the shared doorbell sequence words *)
      match Xen_netio.doorbell_vaddr io with
      | Some page ->
          Td_mem.Addr_space.write env.att_space
            (page + (4 * Rng.below streams s_netio 2))
            Td_misa.Width.W32
            (Rng.next streams s_netio land 0xFFFF_FFFF)
      | None -> Hypervisor.hypercall env.hyp ())
  | 3 -> Xen_netio.service io
  | 4 -> Xen_netio.on_tick io
  | 5 -> Xen_netio.flush io
  | 6 -> Xen_netio.teardown io
  | _ -> (
      match Xen_netio.doorbell_vaddr io with
      | Some page ->
          ignore (Td_mem.Addr_space.read env.att_space page Td_misa.Width.W32)
      | None -> Hypervisor.hypercall env.hyp ())

(* ---- surface 4: domain lifecycle churn ---- *)

(* Ephemeral guests booted and destroyed mid-run, each with its own
   address space and I/O channel — the create/destroy path the N-domain
   registry exposes. Bounded: at most [churn_cap] live at once, and the
   dead list keeps only the newest few closed channels so later ops can
   hit them use-after-close. *)
type cstate = {
  mutable churn_live : (Domain.t * Td_mem.Addr_space.t * Xen_netio.t) list;
  mutable churn_dead : Xen_netio.t list;  (** closed channels, for stale ops *)
  mutable churn_next : int;  (** next ephemeral domain id *)
  mutable churn_count : int;  (** total ephemeral domains booted *)
}

let churn_cap = 6

let churn_destroy (env : Harness.env) cs ((dom, space, io) as entry) violations
    =
  Xen_netio.close io;
  (* the "no dangling grant" registry invariant, checked at every
     destroy, not just at the end *)
  if Xen_netio.grants_active io <> 0 then
    violations :=
      Printf.sprintf "churn %s: %d grants dangling after close"
        (Domain.name dom) (Xen_netio.grants_active io)
      :: !violations;
  Hypervisor.remove_domain env.hyp dom;
  Option.iter (fun q -> Quota.forget q ~domain:dom) env.quota;
  Td_mem.Addr_space.release space;
  cs.churn_live <- List.filter (fun e -> e != entry) cs.churn_live;
  cs.churn_dead <- keep 8 (io :: cs.churn_dead)

let op_churn (env : Harness.env) streams cs violations =
  match Rng.below streams s_churn 8 with
  | (0 | 1) when List.length cs.churn_live < churn_cap ->
      (* boot an ephemeral guest: own space + heap + I/O channel *)
      let id = cs.churn_next in
      cs.churn_next <- id + 1;
      cs.churn_count <- cs.churn_count + 1;
      let name = Printf.sprintf "churn%d" id in
      let space = Td_mem.Addr_space.create ~name env.phys in
      Td_mem.Addr_space.heap_init space ~base:Td_mem.Layout.guest_heap_base
        ~limit:Td_mem.Layout.guest_heap_limit;
      let dom = Domain.create ~id ~name ~kind:Domain.Guest ~space in
      Hypervisor.add_domain env.hyp dom;
      let io =
        Xen_netio.create ?quota:env.quota ~hyp:env.hyp ~dom0:env.dom0 ~guest:dom
          ~kmem:env.kmem
          ~driver_tx:(Skb.free_at env.kmem (Domain.space env.dom0))
          ()
      in
      Xen_netio.post_rx_buffers io 2;
      cs.churn_live <- (dom, space, io) :: cs.churn_live
  | 0 | 1 -> Hypervisor.hypercall env.hyp ()
  | 2 -> (
      (* full destroy: close the channel, drop the domain, free frames *)
      match pick streams s_churn cs.churn_live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some entry -> churn_destroy env cs entry violations)
  | 3 -> (
      (* frontend entry on a closed channel: typed, attributed fault *)
      match pick streams s_churn cs.churn_dead with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some io ->
          Xen_netio.guest_transmit io ~hdr:""
            (String.make (60 + Rng.below streams s_churn 200) 'c'))
  | 4 -> (
      match pick streams s_churn cs.churn_dead with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some io -> Xen_netio.post_rx_buffers io 1)
  | 5 -> (
      (* traffic on a live ephemeral channel *)
      match pick streams s_churn cs.churn_live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (_, _, io) ->
          Xen_netio.guest_transmit io ~hdr:""
            (String.make (60 + Rng.below streams s_churn 1000) 'c'))
  | 6 -> (
      match pick streams s_churn cs.churn_live with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some (_, _, io) -> Xen_netio.service io)
  | _ -> (
      (* double close must stay an idempotent no-op *)
      match pick streams s_churn cs.churn_dead with
      | None -> Hypervisor.hypercall env.hyp ()
      | Some io -> Xen_netio.close io)

(* ---- the loop ---- *)

let run ?(seed = 1) ?quota ~ops () =
  let env = Harness.make ?quota () in
  let streams = Array.init n_streams (Rng.seed_stream seed) in
  let gs = { live = []; revoked = []; poisoned = [] } in
  let cs =
    { churn_live = []; churn_dead = []; churn_next = 100; churn_count = 0 }
  in
  let ok = ref 0
  and guest_faults = ref 0
  and svm_faults = ref 0
  and quota_denials = ref 0 in
  let violations = ref [] in
  let checksum = ref 0 in
  let att_row () = Ledger.domain_total env.ledger env.attacker in
  let vic_row () = Ledger.domain_total env.ledger env.victim in
  for i = 1 to ops do
    let surface = Rng.below streams s_master 5 in
    let att_before = att_row () and vic_before = vic_row () in
    let outcome =
      (* every op enters through a hypercall in the attacker's context, so
         its cost — including the cost of being rejected — lands in the
         attacker's ledger row *)
      match
        Hypervisor.run_in env.hyp env.attacker (fun () ->
            Hypervisor.hypercall env.hyp ();
            match surface with
            | 0 -> op_hypercall env streams
            | 1 -> op_grant env streams gs
            | 2 -> op_nic env streams
            | 3 -> op_netio env streams
            | _ -> op_churn env streams cs violations)
      with
      | () ->
          incr ok;
          0
      | exception Guest_fault.Fault _ ->
          incr guest_faults;
          1
      | exception Td_svm.Runtime.Fault _ ->
          incr svm_faults;
          2
      | exception Quota.Quota_exceeded _ ->
          incr quota_denials;
          3
      | exception e ->
          (* the containment invariant: anything else escaping is a bug *)
          violations :=
            Printf.sprintf "op %d (surface %d): untyped escape %s" i surface
              (Printexc.to_string e)
            :: !violations;
          4
    in
    checksum := ((!checksum * 31) + (surface * 8) + outcome) land Rng.mask;
    (* attribution: the op cost the attacker something and the victim
       nothing *)
    if att_row () <= att_before then
      violations :=
        Printf.sprintf "op %d (surface %d): no cost in attacker's row" i
          surface
        :: !violations;
    if vic_row () <> vic_before then
      violations :=
        Printf.sprintf "op %d (surface %d): victim's row changed" i surface
        :: !violations;
    if i mod 1024 = 0 then
      violations := Harness.isolation_violations env @ !violations
  done;
  (* quiesce: a teardown here must conserve every staged frame, and the
     surviving ephemeral guests must destroy cleanly (no dangling
     grants) *)
  (match
     Hypervisor.run_in env.hyp env.attacker (fun () ->
         Xen_netio.teardown env.att_netio;
         List.iter
           (fun entry -> churn_destroy env cs entry violations)
           cs.churn_live)
   with
  | () -> ()
  | exception e ->
      violations :=
        Printf.sprintf "final teardown raised %s" (Printexc.to_string e)
        :: !violations);
  violations :=
    Harness.isolation_violations env
    @ Harness.conservation_violations env
    @ !violations;
  let report =
    {
      ops;
      ok = !ok;
      guest_faults = !guest_faults;
      svm_faults = !svm_faults;
      quota_denials = !quota_denials;
      churned = cs.churn_count;
      checksum = !checksum;
      violations = List.rev !violations;
      quota = env.quota;
    }
  in
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump_by "adv.ops" report.ops;
    Td_obs.Metrics.bump_by "adv.ok" report.ok;
    Td_obs.Metrics.bump_by "adv.guest_faults" report.guest_faults;
    Td_obs.Metrics.bump_by "adv.svm_faults" report.svm_faults;
    Td_obs.Metrics.bump_by "adv.quota_denials" report.quota_denials;
    Td_obs.Metrics.bump_by "adv.churned" report.churned;
    Td_obs.Metrics.bump_by "adv.violations" (List.length report.violations)
  end;
  report
