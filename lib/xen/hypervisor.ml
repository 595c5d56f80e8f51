type t = {
  costs : Sys_costs.t;
  ledger : Ledger.t;
  xen_space : Td_mem.Addr_space.t;
  cpu : Td_cpu.State.t;
  mutable domains : Domain.t list;
  mutable current : Domain.t option;
  mutable boxes : Domain.t option array;
      (** by domain id: the [Some d] that [current] holds while [d] runs,
          built when [d] is added, so a world switch allocates nothing *)
  mutable switches : int;
}

let create ?(costs = Sys_costs.default) ~ledger ~xen_space ~cpu () =
  {
    costs;
    ledger;
    xen_space;
    cpu;
    domains = [];
    current = None;
    boxes = [||];
    switches = 0;
  }

let box t d =
  let id = Domain.id d in
  if id < Array.length t.boxes then
    match t.boxes.(id) with Some d' as b when d' == d -> b | Some _ | None -> Some d
  else Some d

let costs t = t.costs
let ledger t = t.ledger
let xen_space t = t.xen_space
let cpu t = t.cpu

exception No_domains of { op : string }

let () =
  Printexc.register_printer (function
    | No_domains { op } ->
        Some (Printf.sprintf "Td_xen.Hypervisor.No_domains(op %s)" op)
    | _ -> None)

let add_domain t d =
  t.domains <- t.domains @ [ d ];
  t.boxes <- Domain.cover t.boxes ~id:(Domain.id d) None;
  t.boxes.(Domain.id d) <- Some d;
  if t.current = None then t.current <- box t d

let remove_domain t d =
  let id = Domain.id d in
  t.domains <- List.filter (fun d' -> Domain.id d' <> id) t.domains;
  if id < Array.length t.boxes then t.boxes.(id) <- None;
  match t.current with
  | Some c when Domain.id c = id ->
      (* fall back to the oldest remaining domain (dom0 in practice);
         no world switch is charged — the departing domain is gone *)
      t.current <- (match t.domains with d0 :: _ -> box t d0 | [] -> None);
      (match t.current with
      | Some d0 -> Td_cpu.State.switch_space t.cpu (Domain.space d0)
      | None -> ())
  | _ -> ()

let current ?(op = "current") t =
  match t.current with
  | Some d -> d
  | None -> raise (No_domains { op })

let domains t = t.domains
let find_domain t id = List.find_opt (fun d -> Domain.id d = id) t.domains
let switches t = t.switches

let category_of d =
  match Domain.kind d with
  | Domain.Driver_domain -> Ledger.Dom0
  | Domain.Guest -> Ledger.DomU

let charge_xen t n = Ledger.charge t.ledger Ledger.Xen n

let charge_xen_for t ~domain n =
  Ledger.charge_for t.ledger Ledger.Xen ~domain n

let charge_domain t d n = Ledger.charge_for t.ledger (category_of d) ~domain:d n

let switch_to t target =
  match t.current with
  | Some d when Domain.id d = Domain.id target -> ()
  | (Some _ | None) as prev ->
      charge_xen t t.costs.Sys_costs.domain_switch;
      t.switches <- t.switches + 1;
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "xen.world_switch";
        Td_obs.Trace.emit
          (Td_obs.Trace.World_switch
             {
               from_dom =
                 (match prev with Some d -> Domain.id d | None -> -1);
               to_dom = Domain.id target;
             })
      end;
      t.current <- box t target;
      Td_cpu.State.switch_space t.cpu (Domain.space target)

let hypercall t ?cost () =
  let cost = Option.value cost ~default:t.costs.Sys_costs.hypercall in
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "xen.hypercall";
    Td_obs.Trace.emit (Td_obs.Trace.Hypercall { cost })
  end;
  (* the hypercall was issued by the current domain: its row pays *)
  match t.current with
  | Some d -> charge_xen_for t ~domain:d cost
  | None -> charge_xen t cost

(* [run_in]'s two halves, for callers that must not build a closure *)
let enter t dom =
  let prev = current ~op:"run_in" t in
  if Domain.id prev <> Domain.id dom then switch_to t dom;
  prev

let leave t ~prev dom =
  if Domain.id prev <> Domain.id dom then switch_to t prev

let run_in t dom f =
  let prev = enter t dom in
  match f () with
  | v ->
      leave t ~prev dom;
      v
  | exception e ->
      leave t ~prev dom;
      raise e

let send_virq t dom handler =
  charge_xen t t.costs.Sys_costs.event_channel;
  let deferred = Domain.interrupts_masked dom in
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "xen.virq";
    Td_obs.Trace.emit (Td_obs.Trace.Virq { dom = Domain.id dom; deferred })
  end;
  if deferred then Domain.defer dom handler else run_in t dom handler

(* a released pair's owner, if still registered, gets its pages back *)
let window_guard t q =
  {
    Td_svm.Runtime.acquire =
      (fun ~pages ->
        let domain = current t in
        Quota.acquire q ~domain Quota.Map_window_pages pages;
        Domain.id domain);
    release =
      (fun ~owner ~pages ->
        Option.iter
          (fun domain -> Quota.release q ~domain Quota.Map_window_pages pages)
          (find_domain t owner));
  }
