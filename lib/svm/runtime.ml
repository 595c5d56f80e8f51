exception Fault of { addr : int; reason : string }

(* Both tables are keyed by a dom0 page base. An inline hash (the page
   number, whose low bits spread consecutive pages over the buckets) and
   [Int.equal] keep a probe-hit lookup free of C calls; nothing iterates
   either table, so bucket order never shows. *)
module Page_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash page = page lsr Td_mem.Layout.page_shift
end)

type mode = Translate | Identity

(* One pair of consecutive window pages (the unit of mapping: every miss
   maps two pages so unaligned accesses may straddle, §4.2). *)
type slot = {
  mutable dom0_page : int;  (** dom0 page base this pair currently maps *)
  mutable referenced : bool;  (** clock second-chance bit *)
  mutable pinned : bool;  (** persistent_map'ed — never reclaimed *)
  mutable owner : string;  (** guard-attributed owner; "" when no guard *)
}

(* Optional per-domain window accounting, installed from above (the quota
   subsystem lives in td_xen, which depends on td_svm): [acquire] is
   called before a pair is allocated and returns the owner tag the
   matching [release] gets when the pair is evicted, invalidated or
   flushed. [acquire] may raise (a typed quota fault) — nothing has been
   evicted or mapped yet at that point. *)
type window_guard = {
  acquire : pages:int -> string;
  release : owner:string -> pages:int -> unit;
}

type t = {
  mode : mode;
  map_pairs : bool;
  dom0 : Td_mem.Addr_space.t;
  target : Td_mem.Addr_space.t;  (** space receiving window mappings *)
  stlb : Stlb.t;
  chain : int Page_tbl.t;  (** dom0 page base -> mapped page base *)
  window_pages : int;  (** window size in pages (2 per slot) *)
  slots : slot option array;
  slot_of_page : int Page_tbl.t;  (** dom0 page base -> slot index *)
  hint : int array;
      (** direct-mapped page number -> slot index that last held it;
          -1 = none. Only a guess: see [mark_referenced]. *)
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

(* One hint per slot, rounded up to a power of two so a page number
   indexes it with a mask. *)
let hint_size nslots =
  let rec go n = if n >= nslots then n else go (2 * n) in
  go 1

let create_hypervisor ?(map_pairs = true)
    ?(window_pages = Td_mem.Layout.map_window_pages)
    ?fault ~dom0 ~hyp () =
  if window_pages < 2 || window_pages land 1 <> 0 then
    invalid_arg "Svm.Runtime: window_pages must be even and >= 2";
  {
    mode = Translate;
    map_pairs;
    dom0;
    target = hyp;
    stlb = Stlb.create ~space:hyp ~vaddr:Td_mem.Layout.stlb_base;
    chain = Page_tbl.create 256;
    window_pages;
    slots = Array.make (window_pages / 2) None;
    slot_of_page = Page_tbl.create 256;
    hint = Array.make (hint_size (window_pages / 2)) (-1);
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

let create_identity ?fault ~dom0 ~stlb_vaddr () =
  {
    mode = Identity;
    map_pairs = true;
    dom0;
    target = dom0;
    stlb = Stlb.create ~space:dom0 ~vaddr:stlb_vaddr;
    chain = Page_tbl.create 256;
    window_pages = 0;
    slots = [||];
    slot_of_page = Page_tbl.create 1;
    hint = [| -1 |];
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

let mode t = t.mode
let stlb t = t.stlb
let window_pages t = t.window_pages
let window_reclaims t = t.reclaim_count
let window_pages_in_use t = 2 * Page_tbl.length t.slot_of_page
let set_reclaim_hook t f = t.reclaim_hook <- Some f
let set_window_guard t g = t.window_guard <- Some g

let guard_release t s =
  match t.window_guard with
  | Some g when s.owner <> "" -> g.release ~owner:s.owner ~pages:2
  | _ -> ()

let fault t addr reason =
  t.fault_count <- t.fault_count + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "svm.fault";
    Td_obs.Trace.emit (Td_obs.Trace.Svm_fault { addr; reason })
  end;
  raise (Fault { addr; reason })

let dom0_mapping t page_base =
  Td_mem.Addr_space.lookup t.dom0 ~vpage:(Td_mem.Layout.page_of page_base)

let valid_dom0_page t addr =
  Td_mem.Layout.in_dom0_range addr
  && Option.is_some (dom0_mapping t (Td_mem.Layout.page_base addr))

let mapped_base idx =
  Td_mem.Layout.map_window_base + (2 * idx * Td_mem.Layout.page_size)

let hint_index t page =
  (page lsr Td_mem.Layout.page_shift) land (Array.length t.hint - 1)

(* On every probe hit, so it allocates nothing. The hint is trusted only
   when its slot still maps [page]: every path that releases a slot
   ([evict_slot], [invalidate_page], [flush]) sets it to [None], and no
   two slots ever map the same page, so a slot that maps [page] is the
   one [slot_of_page] names. Otherwise ask the table ([find], not
   [find_opt]: no allocation) and remember its answer. *)
let mark_referenced t page =
  let h = hint_index t page in
  let i = Array.unsafe_get t.hint h in
  match if i >= 0 then t.slots.(i) else None with
  | Some s when s.dom0_page = page -> s.referenced <- true
  | Some _ | None -> (
      match Page_tbl.find t.slot_of_page page with
      | i -> (
          t.hint.(h) <- i;
          match t.slots.(i) with Some s -> s.referenced <- true | None -> ())
      | exception Not_found -> ())

let update_inuse_gauge t =
  if Td_obs.Control.enabled () then
    Td_obs.Metrics.set
      (Td_obs.Metrics.gauge "svm.window_inuse")
      (float_of_int (window_pages_in_use t))

(* Evict the page-pair in [idx]: drop its translation from the hash chain
   and the stlb and unmap both window pages — the software analogue of a
   TLB shootdown, charged through the reclaim hook. *)
let evict_slot t idx =
  let s = match t.slots.(idx) with Some s -> s | None -> assert false in
  guard_release t s;
  let victim = s.dom0_page in
  Page_tbl.remove t.chain victim;
  Page_tbl.remove t.slot_of_page victim;
  Stlb.invalidate t.stlb ~dom0_page:victim;
  let vpage = Td_mem.Layout.page_of (mapped_base idx) in
  Td_mem.Addr_space.unmap t.target ~vpage;
  Td_mem.Addr_space.unmap t.target ~vpage:(vpage + 1);
  t.slots.(idx) <- None;
  t.reclaim_count <- t.reclaim_count + 1;
  (match t.reclaim_hook with Some f -> f () | None -> ());
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "svm.window_reclaim";
    Td_obs.Trace.emit
      (Td_obs.Trace.Window_reclaim
         { victim_page = victim; mapped = mapped_base idx })
  end

(* Pick the slot for a new pair: a never-used one, a released one, or —
   when the window is full — the first cold unpinned pair under the clock
   hand (second chance: a referenced pair gets its bit cleared and is
   skipped once). *)
let take_slot t =
  let nslots = Array.length t.slots in
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
    | [] ->
        let rec sweep budget =
          if budget = 0 then
            failwith
              "Svm.Runtime: mapped-page window exhausted (all pages pinned)";
          let i = t.clock_hand in
          t.clock_hand <- (i + 1) mod nslots;
          match t.slots.(i) with
          | None -> sweep (budget - 1)
          | Some s ->
              if s.pinned then sweep (budget - 1)
              else if s.referenced then begin
                s.referenced <- false;
                sweep (budget - 1)
              end
              else begin
                evict_slot t i;
                i
              end
        in
        sweep (2 * nslots)

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

(* Allocate window pages mapping dom0 [page] (and its successor, because
   unaligned accesses may straddle a page boundary). *)
let map_pair t page =
  (* the guard admits (or typed-faults) before any slot is taken, so a
     denied domain cannot force an eviction of someone else's pair *)
  let owner =
    match t.window_guard with Some g -> g.acquire ~pages:2 | None -> ""
  in
  let idx = take_slot t in
  let mapped = mapped_base idx in
  let vpage = Td_mem.Layout.page_of mapped in
  let install vp = function
    | Td_mem.Addr_space.Frame f -> Td_mem.Addr_space.map t.target ~vpage:vp f
    | Td_mem.Addr_space.Device d ->
        (* MMIO pages (the NIC register window) are mapped through too *)
        Td_mem.Addr_space.map_device t.target ~vpage:vp d
  in
  (match dom0_mapping t page with
  | Some m -> install vpage m
  | None -> assert false);
  let succ_page = page + Td_mem.Layout.page_size in
  (match if t.map_pairs then dom0_mapping t succ_page else None with
  | Some m -> install (vpage + 1) m
  | None ->
      Td_mem.Addr_space.map_device t.target ~vpage:(vpage + 1)
        (poison_device t succ_page));
  t.slots.(idx) <-
    Some { dom0_page = page; referenced = true; pinned = false; owner };
  Page_tbl.replace t.slot_of_page page idx;
  t.hint.(hint_index t page) <- idx;
  update_inuse_gauge t;
  mapped

let miss t addr =
  t.miss_count <- t.miss_count + 1;
  let page = Td_mem.Layout.page_base addr in
  match Page_tbl.find_opt t.chain page with
  | Some mapped ->
      (* hash collision: the translation exists but was evicted from the
         direct-mapped stlb; refill from the chain *)
      t.collision_count <- t.collision_count + 1;
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "stlb.miss";
        Td_obs.Metrics.bump "stlb.refill";
        Td_obs.Trace.emit (Td_obs.Trace.Stlb_miss { addr; refill = true })
      end;
      mark_referenced t page;
      Stlb.install t.stlb ~dom0_page:page ~mapped_page:mapped;
      addr lxor (page lxor mapped)
  | None ->
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
        | Identity -> page
        | Translate -> map_pair t page
      in
      Page_tbl.replace t.chain page mapped;
      Stlb.install t.stlb ~dom0_page:page ~mapped_page:mapped;
      if Td_obs.Control.enabled () then
        Td_obs.Metrics.set
          (Td_obs.Metrics.gauge "svm.pages_mapped")
          (float_of_int (Page_tbl.length t.chain));
      addr lxor (page lxor mapped)

let translate t addr =
  match Stlb.lookup t.stlb addr with
  | Some a ->
      mark_referenced t (Td_mem.Layout.page_base addr);
      if Td_obs.Control.enabled () then begin
        Td_obs.Metrics.bump "stlb.hit";
        Td_obs.Trace.emit (Td_obs.Trace.Stlb_hit { addr })
      end;
      a
  | None -> miss t addr

let persistent_map t addr =
  let mapped = translate t addr in
  (match Page_tbl.find_opt t.slot_of_page (Td_mem.Layout.page_base addr) with
  | Some i -> (
      match t.slots.(i) with Some s -> s.pinned <- true | None -> ())
  | None -> ());
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
  Page_tbl.remove t.chain page;
  Stlb.invalidate t.stlb ~dom0_page:page;
  (* release the window pair so the slot can be reused — otherwise a stale
     slot still claiming [page] could later be reclaimed and tear down a
     NEWER translation of the same page *)
  (match Page_tbl.find_opt t.slot_of_page page with
  | Some i ->
      (match t.slots.(i) with Some s -> guard_release t s | None -> ());
      Page_tbl.remove t.slot_of_page page;
      let vpage = Td_mem.Layout.page_of (mapped_base i) in
      Td_mem.Addr_space.unmap t.target ~vpage;
      Td_mem.Addr_space.unmap t.target ~vpage:(vpage + 1);
      t.slots.(i) <- None;
      t.free_slots <- i :: t.free_slots
  | None -> ());
  update_inuse_gauge t

(* Tear down every translation the instance ever established: the
   supervisor's "invalidate stlb, unmap window pairs" step before it
   restarts an aborted driver. Pinned pairs go too — the caller re-pins
   whatever must persist (the sk_buff pool) on the fresh instance. *)
let flush t =
  Page_tbl.reset t.chain;
  Stlb.clear t.stlb;
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some s ->
          guard_release t s;
          let vpage = Td_mem.Layout.page_of (mapped_base i) in
          Td_mem.Addr_space.unmap t.target ~vpage;
          Td_mem.Addr_space.unmap t.target ~vpage:(vpage + 1);
          t.slots.(i) <- None)
    t.slots;
  Page_tbl.reset t.slot_of_page;
  t.window_next <- 0;
  t.free_slots <- [];
  t.clock_hand <- 0;
  update_inuse_gauge t

let window_slots t =
  Array.map (Option.map (fun s -> (s.dom0_page, s.referenced))) t.slots

let slot_of_page t page = Page_tbl.find_opt t.slot_of_page page

let misses t = t.miss_count
let collisions t = t.collision_count
let faults t = t.fault_count
let pages_mapped t = Page_tbl.length t.chain

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
