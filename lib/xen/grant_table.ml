type grant_ref = int

(* Every active mapping of an entry is recorded as (space, vpage) so that
   revocation can tear each one down and later accessors fault
   deterministically instead of aliasing a page the guest took back. The
   pairs sit in two arrays, oldest first, that grow on demand and are
   reused: a map/unmap cycle on a warm entry records nothing on the
   host heap. *)
type entry = {
  frame : Td_mem.Phys_mem.frame;
  mutable map_spaces : Td_mem.Addr_space.t array;
  mutable map_vpages : int array;
  mutable n_maps : int;  (** live pairs: [0 .. n_maps - 1] *)
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
  Td_sim.Int_tbl.replace t.entries r
    { frame; map_spaces = [||]; map_vpages = [||]; n_maps = 0 };
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
  if e.n_maps > 0 then begin
    if Td_obs.Control.enabled () then
      Td_obs.Metrics.bump_by "grant.revoke_forced" e.n_maps;
    (* newest first *)
    for i = e.n_maps - 1 downto 0 do
      let space = e.map_spaces.(i) and vpage = e.map_vpages.(i) in
      Td_mem.Addr_space.unmap space ~vpage;
      Td_mem.Addr_space.map_device space ~vpage (revoked_poison t r);
      release t Quota.Grant_maps
    done;
    e.n_maps <- 0
  end;
  Td_sim.Int_tbl.remove t.entries r;
  Td_sim.Int_tbl.replace t.revoked r ();
  release t Quota.Grant_entries

let record_mapping e space vpage =
  let n = e.n_maps in
  if n = Array.length e.map_spaces then begin
    let cap = Int.max 2 (2 * n) in
    let spaces = Array.make cap space and vpages = Array.make cap 0 in
    Array.blit e.map_spaces 0 spaces 0 n;
    Array.blit e.map_vpages 0 vpages 0 n;
    e.map_spaces <- spaces;
    e.map_vpages <- vpages
  end;
  e.map_spaces.(n) <- space;
  e.map_vpages.(n) <- vpage;
  e.n_maps <- n + 1

(* the newest pair recording ([space], [vpage]), or -1 *)
let find_mapping e space vpage =
  let i = ref (e.n_maps - 1) in
  while
    !i >= 0 && not (e.map_spaces.(!i) == space && e.map_vpages.(!i) = vpage)
  do
    decr i
  done;
  !i

let forget_mapping e i =
  let last = e.n_maps - 1 in
  Array.blit e.map_spaces (i + 1) e.map_spaces i (last - i);
  Array.blit e.map_vpages (i + 1) e.map_vpages i (last - i);
  e.n_maps <- last

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
  record_mapping e space at_vpage;
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
  let i = find_mapping e space at_vpage in
  if i < 0 then
    Guest_fault.fail ~domain:(owner_name t) ~op:"Grant_table.unmap"
      "grant ref %d is not mapped at vpage 0x%x" r at_vpage;
  Hypervisor.charge_xen_for hyp ~domain:t.owner
    (Hypervisor.costs hyp).Sys_costs.grant_unmap;
  Td_mem.Addr_space.unmap space ~vpage:at_vpage;
  forget_mapping e i;
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
