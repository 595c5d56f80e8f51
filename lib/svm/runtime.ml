exception Fault of { addr : int; reason : string }

type mode = Translate | Identity

(* Optional per-domain window accounting, installed from above (the quota
   subsystem lives in td_xen, which depends on td_svm): [acquire] is
   called before a pair is allocated and returns the owner's domain id the
   matching [release] gets when the pair is evicted, invalidated or
   flushed. [acquire] may raise (a typed quota fault) — nothing has been
   evicted or mapped yet at that point. *)
type window_guard = {
  acquire : pages:int -> int;
  release : owner:int -> pages:int -> unit;
}

type t = {
  mode : mode;
  map_pairs : bool;
  dom0 : Td_mem.Addr_space.t;
  target : Td_mem.Addr_space.t;  (** space receiving window mappings *)
  stlb : Stlb.t;
  table : Bytes.t;  (** one [entry] per dom0 page; see [entry] *)
  mutable mapped : int;  (** pages whose entry is a translation *)
  window_pages : int;  (** window size in pages (2 per slot) *)
  (* The window's slots, one per pair of consecutive window pages (the
     unit of mapping: every miss maps two pages so unaligned accesses may
     straddle, §4.2), as flat arrays indexed by slot so that a probe hit
     marks its slot with a page-table load and a store. *)
  slot_page : int array;  (** dom0 page base the pair maps; -1 = free *)
  refbit : bool array;  (** the clock's second-chance bit *)
  pinned : bool array;  (** persistent_map'ed — never reclaimed *)
  owner : int array;  (** guard-attributed owner id; -1 when no guard *)
  mutable window_next : int;  (** next never-used slot index *)
  mutable free_slots : int list;  (** released by invalidate_page *)
  mutable clock_hand : int;
  mutable reclaim_count : int;
  mutable reclaim_hook : (unit -> unit) option;
  mutable window_guard : window_guard option;
  fault_engine : Td_fault.Engine.state option;
      (** injects wild accesses on the slow path *)
  mutable miss_count : int;
  mutable collision_count : int;
  mutable fault_count : int;
}

(* The page table, the model of §4.2's hash chain: one 16-bit entry per
   page of the dom0 range, so every lookup and update is one indexed load
   or store. An entry is [no_translation], [seen] (the VM instance's
   identity translation) or [first_slot + i] (window slot [i] maps the
   page). A page outside the dom0 range reads as [no_translation]. *)
let no_translation = 0
let seen = 1
let first_slot = 2
let max_slots = 0xFFFF - first_slot + 1

let table_offset page =
  2 * ((page - Td_mem.Layout.dom0_kernel_base) lsr Td_mem.Layout.page_shift)

let entry t page =
  if Td_mem.Layout.in_dom0_range page then
    Bytes.get_uint16_le t.table (table_offset page)
  else no_translation

(* [page] is in the dom0 range and has no entry yet *)
let add_entry t page e =
  Bytes.set_uint16_le t.table (table_offset page) e;
  t.mapped <- t.mapped + 1

(* [page] is in the dom0 range and has an entry *)
let remove_entry t page =
  Bytes.set_uint16_le t.table (table_offset page) no_translation;
  t.mapped <- t.mapped - 1

let make mode ~map_pairs ~window_pages ~fault ~dom0 ~target ~stlb_vaddr =
  let nslots = window_pages / 2 in
  {
    mode;
    map_pairs;
    dom0;
    target;
    stlb = Stlb.create ~space:target ~vaddr:stlb_vaddr;
    table =
      Bytes.make (table_offset Td_mem.Layout.vm_driver_code_base) '\000';
    mapped = 0;
    window_pages;
    slot_page = Array.make nslots (-1);
    refbit = Array.make nslots false;
    pinned = Array.make nslots false;
    owner = Array.make nslots (-1);
    window_next = 0;
    free_slots = [];
    clock_hand = 0;
    reclaim_count = 0;
    reclaim_hook = None;
    window_guard = None;
    fault_engine = fault;
    miss_count = 0;
    collision_count = 0;
    fault_count = 0;
  }

let create_hypervisor ?(map_pairs = true)
    ?(window_pages = Td_mem.Layout.map_window_pages)
    ?fault ~dom0 ~hyp () =
  if window_pages < 2 || window_pages land 1 <> 0 then
    invalid_arg "Svm.Runtime: window_pages must be even and >= 2";
  if window_pages / 2 > max_slots then
    invalid_arg
      (Printf.sprintf "Svm.Runtime: window_pages must be at most %d"
         (2 * max_slots));
  make Translate ~map_pairs ~window_pages ~fault ~dom0 ~target:hyp
    ~stlb_vaddr:Td_mem.Layout.stlb_base

let create_identity ?fault ~dom0 ~stlb_vaddr () =
  make Identity ~map_pairs:true ~window_pages:0 ~fault ~dom0 ~target:dom0
    ~stlb_vaddr

let mode t = t.mode
let stlb t = t.stlb
let window_pages t = t.window_pages
let window_reclaims t = t.reclaim_count
let window_pages_in_use t =
  match t.mode with Translate -> 2 * t.mapped | Identity -> 0
let set_reclaim_hook t f = t.reclaim_hook <- Some f
let set_window_guard t g = t.window_guard <- Some g

let guard_release t i =
  match t.window_guard with
  | Some g when t.owner.(i) >= 0 -> g.release ~owner:t.owner.(i) ~pages:2
  | _ -> ()

(* Free slot [i]: its pair maps nothing from here on. *)
let clear_slot t i =
  t.slot_page.(i) <- -1;
  t.refbit.(i) <- false;
  t.pinned.(i) <- false;
  t.owner.(i) <- -1

let fault t addr reason =
  t.fault_count <- t.fault_count + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "svm.fault";
    Td_obs.Trace.emit (Td_obs.Trace.Svm_fault { addr; reason })
  end;
  raise (Fault { addr; reason })

let dom0_mapped t page_base =
  Td_mem.Addr_space.is_mapped t.dom0 ~vpage:(Td_mem.Layout.page_of page_base)

let valid_dom0_page t addr =
  Td_mem.Layout.in_dom0_range addr
  && dom0_mapped t (Td_mem.Layout.page_base addr)

let mapped_base idx =
  Td_mem.Layout.map_window_base + (2 * idx * Td_mem.Layout.page_size)

(* On every probe hit, so it allocates nothing. *)
let mark_referenced t page =
  let e = entry t page in
  if e >= first_slot then t.refbit.(e - first_slot) <- true

let update_inuse_gauge t =
  if Td_obs.Control.enabled () then
    Td_obs.Metrics.set
      (Td_obs.Metrics.gauge "svm.window_inuse")
      (float_of_int (window_pages_in_use t))

(* Evict the page-pair in [idx]: drop its translation from the page table
   and the stlb and unmap both window pages — the software analogue of a
   TLB shootdown, charged through the reclaim hook. *)
let evict_slot t idx =
  guard_release t idx;
  let victim = t.slot_page.(idx) in
  remove_entry t victim;
  Stlb.invalidate t.stlb ~dom0_page:victim;
  let vpage = Td_mem.Layout.page_of (mapped_base idx) in
  Td_mem.Addr_space.unmap t.target ~vpage;
  Td_mem.Addr_space.unmap t.target ~vpage:(vpage + 1);
  clear_slot t idx;
  t.reclaim_count <- t.reclaim_count + 1;
  (match t.reclaim_hook with Some f -> f () | None -> ());
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "svm.window_reclaim";
    Td_obs.Trace.emit
      (Td_obs.Trace.Window_reclaim
         { victim_page = victim; mapped = mapped_base idx })
  end

(* The clock, top-level so that a miss on a full window builds no closure *)
let rec sweep t budget =
  if budget = 0 then
    failwith "Svm.Runtime: mapped-page window exhausted (all pages pinned)";
  let i = t.clock_hand in
  t.clock_hand <- (i + 1) mod Array.length t.slot_page;
  if t.slot_page.(i) < 0 || t.pinned.(i) then sweep t (budget - 1)
  else if t.refbit.(i) then begin
    t.refbit.(i) <- false;
    sweep t (budget - 1)
  end
  else begin
    evict_slot t i;
    i
  end

(* Pick the slot for a new pair: a never-used one, a released one, or —
   when the window is full — the first cold unpinned pair under the clock
   hand (second chance: a referenced pair gets its bit cleared and is
   skipped once). *)
let take_slot t =
  let nslots = Array.length t.slot_page in
  if t.window_next < nslots then begin
    let i = t.window_next in
    t.window_next <- i + 1;
    i
  end
  else
    match t.free_slots with
    | i :: rest ->
        t.free_slots <- rest;
        i
    | [] -> sweep t (2 * nslots)

(* A window page backing a dom0 page with no mapped successor: any access
   reaching it is a straddle past the edge of the dom0 range and must
   fault — never read whatever a previously reclaimed pair left behind. *)
let poison_device t succ_page =
  {
    Td_mem.Addr_space.dev_read =
      (fun offset _w ->
        fault t (succ_page + offset) "straddling access beyond dom0 range");
    dev_write =
      (fun offset _w _v ->
        fault t (succ_page + offset) "straddling access beyond dom0 range");
  }

(* Map window [vpage] as dom0 maps [page]: dom0's entry is copied, so
   the window maps the same frame, or the same MMIO page (the NIC
   register window is mapped through too). *)
let map_dom0_page t ~vpage page =
  Td_mem.Addr_space.map_entry t.target ~vpage ~from:t.dom0
    (Td_mem.Addr_space.lookup t.dom0 ~vpage:(Td_mem.Layout.page_of page))

(* Allocate window pages mapping dom0 [page] (and its successor, because
   unaligned accesses may straddle a page boundary). *)
let map_pair t page =
  (* the guard admits (or typed-faults) before any slot is taken, so a
     denied domain cannot force an eviction of someone else's pair *)
  let owner =
    match t.window_guard with Some g -> g.acquire ~pages:2 | None -> -1
  in
  let idx = take_slot t in
  let mapped = mapped_base idx in
  let vpage = Td_mem.Layout.page_of mapped in
  assert (dom0_mapped t page);
  map_dom0_page t ~vpage page;
  let succ_page = page + Td_mem.Layout.page_size in
  if t.map_pairs && dom0_mapped t succ_page then
    map_dom0_page t ~vpage:(vpage + 1) succ_page
  else
    Td_mem.Addr_space.map_device t.target ~vpage:(vpage + 1)
      (poison_device t succ_page);
  t.slot_page.(idx) <- page;
  t.refbit.(idx) <- true;
  t.pinned.(idx) <- false;
  t.owner.(idx) <- owner;
  add_entry t page (first_slot + idx);
  update_inuse_gauge t;
  mapped

let miss t addr =
  t.miss_count <- t.miss_count + 1;
  let page = Td_mem.Layout.page_base addr in
  match entry t page with
  | e when e <> no_translation ->
      (* hash collision: the translation exists but was evicted from the
         direct-mapped stlb; refill from the page table *)
      let mapped = if e = seen then page else mapped_base (e - first_slot) in
      t.collision_count <- t.collision_count + 1;
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "stlb.miss";
        Td_obs.Metrics.bump "stlb.refill";
        Td_obs.Trace.emit (Td_obs.Trace.Stlb_miss { addr; refill = true })
      end;
      mark_referenced t page;
      Stlb.install t.stlb ~dom0_page:page ~mapped_page:mapped;
      addr lxor (page lxor mapped)
  | _ ->
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "stlb.miss";
        Td_obs.Trace.emit (Td_obs.Trace.Stlb_miss { addr; refill = false })
      end;
      (* fault-injection site: a planned wild access manifests exactly
         like a driver bug — a first-touch address past the dom0 range
         failing validation on the slow path *)
      (match t.fault_engine with
      | Some e when Td_fault.Engine.fire e Td_fault.Svm_wild_access ->
          fault t addr "injected wild access outside dom0 range"
      | Some _ | None -> ());
      let ok = valid_dom0_page t addr in
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "svm.validate";
        Td_obs.Trace.emit (Td_obs.Trace.Svm_validate { addr; ok })
      end;
      if not ok then fault t addr "access outside dom0 address space";
      let mapped = match t.mode with
        | Identity ->
            add_entry t page seen;
            page
        | Translate -> map_pair t page
      in
      Stlb.install t.stlb ~dom0_page:page ~mapped_page:mapped;
      if Td_obs.Control.enabled () then
        Td_obs.Metrics.set
          (Td_obs.Metrics.gauge "svm.pages_mapped")
          (float_of_int t.mapped);
      addr lxor (page lxor mapped)

let translate t addr =
  let a = Stlb.probe t.stlb addr in
  if a >= 0 then begin
    mark_referenced t (Td_mem.Layout.page_base addr);
    if Td_obs.Control.enabled () then begin
      Td_obs.Metrics.bump "stlb.hit";
      Td_obs.Trace.emit (Td_obs.Trace.Stlb_hit { addr })
    end;
    a
  end
  else miss t addr

let persistent_map t addr =
  let mapped = translate t addr in
  let e = entry t (Td_mem.Layout.page_base addr) in
  if e >= first_slot then t.pinned.(e - first_slot) <- true;
  mapped

let note_inline_hit t addr =
  (* An interpreted inline probe (the ten-instruction xor-compare of §4.2)
     matched: mark the pair hot for the clock — always, so reclaim
     behaviour is independent of observability — and credit the hit. *)
  mark_referenced t (Td_mem.Layout.page_base addr);
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "stlb.hit";
    Td_obs.Trace.emit (Td_obs.Trace.Stlb_hit { addr })
  end

let invalidate_page t addr =
  let page = Td_mem.Layout.page_base addr in
  let e = entry t page in
  if e <> no_translation then remove_entry t page;
  Stlb.invalidate t.stlb ~dom0_page:page;
  (* release the window pair so the slot can be reused — otherwise a stale
     slot still claiming [page] could later be reclaimed and tear down a
     NEWER translation of the same page *)
  if e >= first_slot then begin
    let i = e - first_slot in
    guard_release t i;
    let vpage = Td_mem.Layout.page_of (mapped_base i) in
    Td_mem.Addr_space.unmap t.target ~vpage;
    Td_mem.Addr_space.unmap t.target ~vpage:(vpage + 1);
    clear_slot t i;
    t.free_slots <- i :: t.free_slots
  end;
  update_inuse_gauge t

(* Tear down every translation the instance ever established: the
   supervisor's "invalidate stlb, unmap window pairs" step before it
   restarts an aborted driver. Pinned pairs go too — the caller re-pins
   whatever must persist (the sk_buff pool) on the fresh instance. *)
let flush t =
  Bytes.fill t.table 0 (Bytes.length t.table) '\000';
  t.mapped <- 0;
  Stlb.clear t.stlb;
  Array.iteri
    (fun i page ->
      if page >= 0 then begin
        guard_release t i;
        let vpage = Td_mem.Layout.page_of (mapped_base i) in
        Td_mem.Addr_space.unmap t.target ~vpage;
        Td_mem.Addr_space.unmap t.target ~vpage:(vpage + 1);
        clear_slot t i
      end)
    t.slot_page;
  t.window_next <- 0;
  t.free_slots <- [];
  t.clock_hand <- 0;
  update_inuse_gauge t

let window_slots t =
  Array.mapi
    (fun i page -> if page < 0 then None else Some (page, t.refbit.(i)))
    t.slot_page

let slot_of_page t page =
  let e = entry t page in
  if e >= first_slot then Some (e - first_slot) else None

let misses t = t.miss_count
let collisions t = t.collision_count
let faults t = t.fault_count
let pages_mapped t = t.mapped

let mode_suffix t = match t.mode with Translate -> "hyp" | Identity -> "vm"
let miss_symbol t = "__svm_miss@" ^ mode_suffix t
let translate_symbol t = "__svm_translate@" ^ mode_suffix t

let register_natives t natives =
  let handler f st =
    let addr = Td_cpu.State.stack_arg st 0 in
    Td_cpu.State.set st Td_misa.Reg.EAX (f t addr)
  in
  ignore (Td_cpu.Native.register natives (miss_symbol t) (handler miss));
  ignore
    (Td_cpu.Native.register natives (translate_symbol t) (handler translate))
