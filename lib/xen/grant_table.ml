type grant_ref = int

(* Every active mapping of an entry is recorded as (space, vpage) so that
   revocation can tear each one down and later accessors fault
   deterministically instead of aliasing a page the guest took back. *)
type entry = {
  frame : Td_mem.Phys_mem.frame;
  mutable mappings : (Td_mem.Addr_space.t * int) list;
}

type t = {
  owner : Domain.t;
  quota : Quota.state option;
  entries : entry Td_sim.Int_tbl.t;
  revoked : unit Td_sim.Int_tbl.t;
      (** tombstones: refs that once existed; using one is a typed fault
          ("revoked grant ref"), distinct from a never-issued ref *)
  mutable next : grant_ref;
  mutable map_count : int;
}

let create ?quota ~owner () =
  {
    owner;
    quota;
    entries = Td_sim.Int_tbl.create 64;
    revoked = Td_sim.Int_tbl.create 16;
    next = 1;
    map_count = 0;
  }

let owner_name t = Domain.name t.owner

(* quota gates, charged to the granting domain; no engine, no check *)
let acquire t res =
  match t.quota with
  | Some q -> Quota.acquire q ~domain:t.owner res 1
  | None -> ()

let release t res =
  match t.quota with
  | Some q -> Quota.release q ~domain:t.owner res 1
  | None -> ()

let take_bytes t n =
  match t.quota with
  | Some q -> Quota.take_n q ~domain:t.owner Quota.Grant_copy_bytes n
  | None -> ()

let grant t ~frame =
  acquire t Quota.Grant_entries;
  let r = t.next in
  t.next <- t.next + 1;
  Td_sim.Int_tbl.replace t.entries r { frame; mappings = [] };
  r

(* a bad ref is guest-controlled input, not an invariant violation: the
   hypervisor validates, counts and survives it (typed Guest_fault) *)
let find t ~op r =
  match Td_sim.Int_tbl.find t.entries r with
  | e -> e
  | exception Not_found ->
      if Td_sim.Int_tbl.mem t.revoked r then
        Guest_fault.fail ~domain:(owner_name t) ~op "revoked grant ref %d" r
      else Guest_fault.fail ~domain:(owner_name t) ~op "bad grant ref %d" r

(* Device page installed over a stale mapping when its grant is revoked
   while still mapped: the guest reclaimed the frame, so whoever touches
   the old window address next gets a deterministic typed fault instead of
   silently reading the guest's (possibly reused) page. *)
let revoked_poison t r =
  {
    Td_mem.Addr_space.dev_read =
      (fun _off _w ->
        Guest_fault.fail ~domain:(owner_name t)
          ~op:"Grant_table.access_revoked"
          "access through stale mapping of revoked grant ref %d" r);
    dev_write =
      (fun _off _w _v ->
        Guest_fault.fail ~domain:(owner_name t)
          ~op:"Grant_table.access_revoked"
          "access through stale mapping of revoked grant ref %d" r);
  }

let revoke t r =
  let e = find t ~op:"Grant_table.revoke" r in
  (* Forced revocation: the guest may always take its page back. Any
     mapping still active is torn down and the window vpage poisoned so
     the *later accessor* faults deterministically. *)
  if e.mappings <> [] then begin
    if Td_obs.Control.enabled () then
      Td_obs.Metrics.bump_by "grant.revoke_forced" (List.length e.mappings);
    List.iter
      (fun (space, vpage) ->
        Td_mem.Addr_space.unmap space ~vpage;
        Td_mem.Addr_space.map_device space ~vpage (revoked_poison t r);
        release t Quota.Grant_maps)
      e.mappings;
    e.mappings <- []
  end;
  Td_sim.Int_tbl.remove t.entries r;
  Td_sim.Int_tbl.replace t.revoked r ();
  release t Quota.Grant_entries

let map t ~hyp ~into ~at_vpage r =
  let e = find t ~op:"Grant_table.map" r in
  let space = Domain.space into in
  (* refuse to clobber: mapping over a live page would let a guest-chosen
     vpage redirect what the driver domain already sees there *)
  if Td_mem.Addr_space.is_mapped space ~vpage:at_vpage then
    Guest_fault.fail ~domain:(owner_name t) ~op:"Grant_table.map"
      "grant ref %d: vpage 0x%x is already mapped" r at_vpage;
  acquire t Quota.Grant_maps;
  Hypervisor.charge_xen_for hyp ~domain:t.owner
    (Hypervisor.costs hyp).Sys_costs.grant_map;
  Td_mem.Addr_space.map space ~vpage:at_vpage e.frame;
  e.mappings <- (space, at_vpage) :: e.mappings;
  t.map_count <- t.map_count + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "grant.map";
    Td_obs.Trace.emit (Td_obs.Trace.Grant_map { gref = r })
  end

let unmap t ~hyp ~from ~at_vpage r =
  let e = find t ~op:"Grant_table.unmap" r in
  let space = Domain.space from in
  (* the ref must actually be mapped at this vpage — otherwise an
     attacker-chosen vpage could silently unmap someone else's page *)
  if not (List.exists (fun (s, v) -> s == space && v = at_vpage) e.mappings)
  then
    Guest_fault.fail ~domain:(owner_name t) ~op:"Grant_table.unmap"
      "grant ref %d is not mapped at vpage 0x%x" r at_vpage;
  Hypervisor.charge_xen_for hyp ~domain:t.owner
    (Hypervisor.costs hyp).Sys_costs.grant_unmap;
  Td_mem.Addr_space.unmap space ~vpage:at_vpage;
  let dropped = ref false in
  e.mappings <-
    List.filter
      (fun (s, v) ->
        if (not !dropped) && s == space && v = at_vpage then begin
          dropped := true;
          false
        end
        else true)
      e.mappings;
  release t Quota.Grant_maps;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "grant.unmap";
    Td_obs.Trace.emit (Td_obs.Trace.Grant_unmap { gref = r })
  end

let phys t = Td_mem.Addr_space.phys (Domain.space t.owner)

let check_copy_bounds t ~op ~offset ~len r =
  if offset < 0 || len < 0 || offset + len > Td_mem.Layout.page_size then
    Guest_fault.fail ~domain:(owner_name t) ~op
      "grant ref %d: copy of %d bytes at offset %d exceeds the page" r len
      offset

(* The one checked core of every grant copy, either way: the ref, the
   guest-controlled bounds, then the grant-copy byte bucket billed to the
   granting domain (the guest whose buffer is being filled/drained)
   before any cycle is charged — a throttled copy costs dom0 nothing —
   then the charge and the metric. Returns the granted frame; nothing is
   copied until every check has passed. *)
let checked_copy t ~hyp ~op r ~offset ~len =
  let e = find t ~op r in
  check_copy_bounds t ~op ~offset ~len r;
  take_bytes t len;
  let cost =
    int_of_float
      (float_of_int len *. (Hypervisor.costs hyp).Sys_costs.grant_copy_per_byte)
  in
  Hypervisor.charge_xen_for hyp ~domain:t.owner cost;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump_by "grant.copy_bytes" len;
    Td_obs.Trace.emit (Td_obs.Trace.Grant_copy { gref = r; bytes = len })
  end;
  e.frame

let copy_to t ~hyp r ~offset ~src =
  let len = Bytes.length src in
  let frame = checked_copy t ~hyp ~op:"Grant_table.copy_to" r ~offset ~len in
  Td_mem.Phys_mem.write_bytes (phys t) frame offset src

let copy_mem_to t ~hyp r ~offset ~space ~addr ~len =
  let frame = checked_copy t ~hyp ~op:"Grant_table.copy_to" r ~offset ~len in
  Td_mem.Addr_space.read_into space addr
    (Td_mem.Phys_mem.page (phys t) frame)
    ~pos:offset ~len

let copy_from t ~hyp r ~offset ~len =
  let frame = checked_copy t ~hyp ~op:"Grant_table.copy_from" r ~offset ~len in
  Td_mem.Phys_mem.read_bytes (phys t) frame offset len

let active t = Td_sim.Int_tbl.length t.entries
let maps t = t.map_count
