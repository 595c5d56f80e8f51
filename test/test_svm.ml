(* Tests for the stlb, the SVM runtime (miss handling, protection) and the
   indirect-call table. *)

open Td_misa
open Td_mem
open Td_svm

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let test_index_bits () =
  (* index uses address bits 12..23, entry offset = index * 8 *)
  check int_c "index of 0" 0 (Stlb.index_of 0xC1000000);
  check int_c "index of page 1" 1 (Stlb.index_of 0xC1001234);
  check int_c "offset" 8 (Stlb.entry_offset 0xC1001234);
  check int_c "wraps at 4096 pages" (Stlb.index_of 0xC1000000)
    (Stlb.index_of 0xC2000000)

let test_stlb_install_lookup () =
  let m = Harness.make_machine () in
  let stlb = Stlb.create ~space:m.Harness.hyp ~vaddr:Layout.stlb_base in
  Stlb.install stlb ~dom0_page:0xC1234000 ~mapped_page:0xFD008000;
  check int_c "offset preserved" 0xFD008ABC (Stlb.probe stlb 0xC1234ABC);
  check int_c "other page misses" (-1) (Stlb.probe stlb 0xC1235ABC);
  (* colliding page (same index bits, different tag) misses *)
  check int_c "collision misses" (-1) (Stlb.probe stlb 0xC2234ABC);
  Stlb.invalidate stlb ~dom0_page:0xC1234000;
  check int_c "invalidated" (-1) (Stlb.probe stlb 0xC1234ABC)

let test_stlb_xor_roundtrip () =
  let m = Harness.make_machine () in
  let stlb = Stlb.create ~space:m.Harness.hyp ~vaddr:Layout.stlb_base in
  (* xor trick must preserve any offset *)
  Stlb.install stlb ~dom0_page:0xC1010000 ~mapped_page:0xFD000000;
  List.iter
    (fun off ->
      check int_c "offset" (0xFD000000 + off) (Stlb.probe stlb (0xC1010000 + off)))
    [ 0; 1; 0xFFF; 0x7FE ]

let test_runtime_miss_maps_pair () =
  let m = Harness.make_machine () in
  let rt = Harness.hyp_runtime m in
  let va = Addr_space.heap_alloc m.Harness.dom0 (2 * Layout.page_size) in
  Addr_space.write m.Harness.dom0 (va + 8) Width.W32 0xCAFE;
  let translated = Runtime.miss rt (va + 8) in
  check bool_c "translated into window" true
    (translated >= Layout.map_window_base);
  check int_c "same data visible through hyp mapping" 0xCAFE
    (Addr_space.read m.Harness.hyp translated Width.W32);
  (* straddling access works because the successor page is mapped too *)
  let boundary = va + Layout.page_size - 2 in
  Addr_space.write m.Harness.dom0 boundary Width.W32 0x55667788;
  let tb = Runtime.translate rt boundary in
  check int_c "straddle through pair" 0x55667788
    (Addr_space.read m.Harness.hyp tb Width.W32)

let test_runtime_protection () =
  let m = Harness.make_machine () in
  let rt = Harness.hyp_runtime m in
  let faulted addr =
    match Runtime.miss rt addr with
    | exception Runtime.Fault _ -> true
    | _ -> false
  in
  check bool_c "hypervisor address rejected" true (faulted Layout.stlb_base);
  check bool_c "stlb itself rejected" true (faulted (Layout.stlb_base + 8));
  check bool_c "guest address rejected" true (faulted 0xF0100000);
  check bool_c "unmapped dom0 address rejected" true (faulted 0xC7FFF000);
  check int_c "faults counted" 4 (Runtime.faults rt)

let test_runtime_collision_chain () =
  let m = Harness.make_machine () in
  let rt = Harness.hyp_runtime m in
  (* map enough memory that two pages share an stlb bucket: pages 16MB
     apart collide (index bits wrap) *)
  let base1 = Layout.dom0_heap_base in
  let base2 = Layout.dom0_heap_base + (16 * 1024 * 1024) in
  Addr_space.alloc_region m.Harness.dom0 ~vaddr:base1 ~pages:1;
  Addr_space.alloc_region m.Harness.dom0 ~vaddr:base2 ~pages:1;
  let t1 = Runtime.translate rt (base1 + 4) in
  let t2 = Runtime.translate rt (base2 + 4) in
  check bool_c "different mappings" true (t1 <> t2);
  (* t1's entry was evicted; translating again goes through the chain and
     returns the same stable mapping *)
  let t1' = Runtime.translate rt (base1 + 4) in
  check int_c "stable translation" t1 t1';
  check bool_c "collision recorded" true (Runtime.collisions rt >= 1)

let test_runtime_identity () =
  let m = Harness.make_machine () in
  let rt, _ = Harness.vm_runtime m in
  let va = Addr_space.heap_alloc m.Harness.dom0 64 in
  check int_c "identity translation" (va + 12) (Runtime.translate rt (va + 12));
  check bool_c "identity still protects" true
    (match Runtime.miss rt Layout.stlb_base with
    | exception Runtime.Fault _ -> true
    | _ -> false)

let test_persistent_map_and_invalidate () =
  let m = Harness.make_machine () in
  let rt = Harness.hyp_runtime m in
  let va = Addr_space.heap_alloc m.Harness.dom0 64 in
  let t = Runtime.persistent_map rt va in
  check int_c "hit after persist" t (Runtime.translate rt va);
  let misses_before = Runtime.misses rt in
  ignore (Runtime.translate rt (va + 32));
  check int_c "no extra miss" misses_before (Runtime.misses rt);
  Runtime.invalidate_page rt va;
  ignore (Runtime.translate rt va);
  check bool_c "miss after invalidate" true (Runtime.misses rt > misses_before)

let test_call_table () =
  let resolved = ref [] in
  let ct =
    Call_table.create ~vm_code_base:Layout.vm_driver_code_base
      ~vm_code_size:0x1000
      ~resolver:(fun addr ->
        resolved := addr :: !resolved;
        if addr = 0xC0001000 then Some 0xFE000040 else None)
  in
  (* driver-internal target: constant offset *)
  check int_c "internal" (Layout.vm_driver_code_base + 0x10 + Layout.code_offset)
    (Call_table.translate ct (Layout.vm_driver_code_base + 0x10));
  (* kernel routine target: resolver *)
  check int_c "kernel routine" 0xFE000040 (Call_table.translate ct 0xC0001000);
  (* cached: second lookup does not consult the resolver *)
  ignore (Call_table.translate ct 0xC0001000);
  check int_c "resolver called once" 1
    (List.length (List.filter (fun a -> a = 0xC0001000) !resolved));
  check bool_c "wild pointer rejected" true
    (match Call_table.translate ct 0xDEAD0000 with
    | exception Runtime.Fault _ -> true
    | _ -> false);
  check bool_c "hits counted" true (Call_table.hits ct >= 1)

(* Window-guard probe: per-domain accounting of map-window pages is wired
   from above (quotas live in td_xen), so the runtime must call acquire
   before anything is evicted or mapped, release on invalidate/flush, and
   abandon the miss cleanly when acquire raises. *)
let test_window_guard () =
  let m = Harness.make_machine () in
  let rt = Runtime.create_hypervisor ~dom0:m.Harness.dom0 ~hyp:m.Harness.hyp () in
  let held = ref 0 and acquires = ref 0 and deny = ref false in
  Runtime.set_window_guard rt
    {
      Runtime.acquire =
        (fun ~pages ->
          if !deny then failwith "window quota exceeded";
          incr acquires;
          held := !held + pages;
          7);
      release = (fun ~owner ~pages ->
          check int_c "owner id round-trips" 7 owner;
          held := !held - pages);
    };
  let va = Addr_space.heap_alloc m.Harness.dom0 (2 * Layout.page_size) in
  ignore (Runtime.translate rt va);
  check int_c "miss acquired a pair" 2 !held;
  check int_c "one acquire per pair" 1 !acquires;
  (* an stlb hit must not re-acquire *)
  ignore (Runtime.translate rt (va + 8));
  check int_c "hit does not acquire" 1 !acquires;
  Runtime.invalidate_page rt va;
  Runtime.invalidate_page rt (va + Layout.page_size);
  check int_c "invalidate released" 0 !held;
  (* a denied acquire aborts the miss before any slot is consumed *)
  deny := true;
  let va2 = Addr_space.heap_alloc m.Harness.dom0 (2 * Layout.page_size) in
  let mapped_before = Runtime.pages_mapped rt in
  check bool_c "acquire failure propagates" true
    (match Runtime.translate rt va2 with
    | exception Failure _ -> true
    | _ -> false);
  check int_c "nothing mapped on denial" mapped_before
    (Runtime.pages_mapped rt);
  check int_c "nothing held on denial" 0 !held;
  (* flush releases everything still held *)
  deny := false;
  ignore (Runtime.translate rt va);
  check int_c "re-acquired" 2 !held;
  Runtime.flush rt;
  check int_c "flush released" 0 !held

(* Probe-hit bookkeeping runs on every inline stlb hit: with
   observability off it allocates nothing, for a mapped pair and for a
   page with no pair alike. *)
let test_probe_hit_allocates_nothing () =
  let m = Harness.make_machine () in
  let rt = Harness.hyp_runtime m in
  let va = Addr_space.heap_alloc m.Harness.dom0 Layout.page_size in
  ignore (Runtime.miss rt va);
  let was_on = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    Runtime.note_inline_hit rt (if i land 1 = 0 then va + 8 else va + 0x100000)
  done;
  let words = Gc.minor_words () -. before in
  if was_on then Td_obs.Control.enable ();
  check bool_c (Printf.sprintf "%.0f minor words < 100" words) true
    (words < 100.)

(* The page table covers the dom0 range and nothing else. An address
   outside it (an arbitrary fuzz argument, or a register value an armed
   bitflip changed) reads as "no translation": invalidating it or
   crediting an inline hit to it changes no counter and no slot, it has
   no slot, and translating it raises the typed fault, counted as one
   miss and one fault. Slot 1's reference bit is clear, so a stray mark
   would show. *)
let test_out_of_range_pages () =
  let m = Harness.make_machine () in
  let rt =
    Runtime.create_hypervisor ~window_pages:4 ~dom0:m.Harness.dom0
      ~hyp:m.Harness.hyp ()
  in
  (* two pages fill both slots; a third sweeps both bits clear and
     evicts the first *)
  for _ = 1 to 3 do
    ignore
      (Runtime.translate rt (Addr_space.heap_alloc m.Harness.dom0 Layout.page_size))
  done;
  check bool_c "slot 1 unreferenced" true
    (match (Runtime.window_slots rt).(1) with
    | Some (_, referenced) -> not referenced
    | None -> false);
  let state () =
    ( (Runtime.misses rt, Runtime.faults rt),
      [ Runtime.collisions rt; Runtime.pages_mapped rt;
        Runtime.window_pages_in_use rt; Runtime.window_reclaims rt ],
      Runtime.window_slots rt )
  in
  List.iter
    (fun addr ->
      let name = Printf.sprintf "%#x" addr in
      let ((misses, faults), others, slots) as before = state () in
      Runtime.invalidate_page rt addr;
      Runtime.note_inline_hit rt addr;
      check bool_c (name ^ ": no slot") true
        (Runtime.slot_of_page rt addr = None);
      check bool_c (name ^ ": nothing changed") true (state () = before);
      check bool_c (name ^ ": translate faults") true
        (match Runtime.translate rt addr with
        | exception Runtime.Fault _ -> true
        | _ -> false);
      check bool_c (name ^ ": one miss and one fault, nothing else") true
        (state () = ((misses + 1, faults + 1), others, slots)))
    [ 0; 0xBFFF_F000; Layout.vm_driver_code_base; -Layout.page_size ]

(* A page-table entry names at most 65,534 slots, so that bounds the
   window a hypervisor runtime accepts. *)
let test_window_bound () =
  let m = Harness.make_machine () in
  let create window_pages =
    Runtime.create_hypervisor ~window_pages ~dom0:m.Harness.dom0
      ~hyp:m.Harness.hyp ()
  in
  check int_c "the widest window" 131_068
    (Runtime.window_pages (create 131_068));
  check bool_c "one pair wider is rejected" true
    (match create 131_070 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The probe-hit reference bit is one page-table load. Over random
   sequences of translations (stlb hits, page-table refills after stlb
   collisions, misses that reclaim), inline hits, invalidations and
   flushes on a 4-slot window, the runtime must keep
   [slot_of_page p = Some i] exactly when slot [i] maps [p], and its
   slots (so its reclaim victims) and reference bits must equal a
   reference window that finds slots through a hash table alone. *)
module Ref_window = struct
  type t = {
    slots : (int * bool) option array;  (* page, referenced *)
    table : (int, int) Hashtbl.t;  (* page -> slot *)
    mutable next : int;
    mutable free : int list;
    mutable hand : int;
    mutable reclaims : int;
  }

  let create n =
    { slots = Array.make n None; table = Hashtbl.create 8; next = 0;
      free = []; hand = 0; reclaims = 0 }

  let mark t p =
    match Hashtbl.find t.table p with
    | i -> t.slots.(i) <- Some (p, true)
    | exception Not_found -> ()

  (* the runtime's clock: the first unreferenced pair under the hand,
     clearing reference bits on the way *)
  let rec sweep t =
    let n = Array.length t.slots in
    let i = t.hand in
    t.hand <- (i + 1) mod n;
    match t.slots.(i) with
    | None -> sweep t
    | Some (q, true) ->
        t.slots.(i) <- Some (q, false);
        sweep t
    | Some (q, false) ->
        Hashtbl.remove t.table q;
        t.reclaims <- t.reclaims + 1;
        i

  let translate t p =
    if Hashtbl.mem t.table p then mark t p
    else begin
      let i =
        if t.next < Array.length t.slots then begin
          t.next <- t.next + 1;
          t.next - 1
        end
        else
          match t.free with
          | i :: rest ->
              t.free <- rest;
              i
          | [] -> sweep t
      in
      t.slots.(i) <- Some (p, true);
      Hashtbl.replace t.table p i
    end

  let invalidate t p =
    match Hashtbl.find_opt t.table p with
    | Some i ->
        Hashtbl.remove t.table p;
        t.slots.(i) <- None;
        t.free <- i :: t.free
    | None -> ()

  let flush t =
    Array.fill t.slots 0 (Array.length t.slots) None;
    Hashtbl.reset t.table;
    t.next <- 0;
    t.free <- [];
    t.hand <- 0
end

type window_op = Tr of int | Hit of int | Inv of int | Flush

let window_op_name = function
  | Tr k -> Printf.sprintf "tr %d" k
  | Hit k -> Printf.sprintf "hit %d" k
  | Inv k -> Printf.sprintf "inv %d" k
  | Flush -> "flush"

(* Twelve dom0 pages: 0-7 consecutive, 8-11 sixteen megabytes above 0-3,
   so they share stlb entries with them and refill from the chain. *)
let window_pages_universe = 12

let window_page k =
  let first = Layout.dom0_heap_base + 0x200_0000 in
  if k < 8 then first + (k * Layout.page_size)
  else first + 0x100_0000 + ((k - 8) * Layout.page_size)

let window_op_gen =
  QCheck.Gen.(
    let page = int_bound (window_pages_universe - 1) in
    frequency
      [ (5, map (fun k -> Tr k) page); (4, map (fun k -> Hit k) page);
        (1, map (fun k -> Inv k) page); (1, return Flush) ])

let page_table_prop =
  QCheck.Test.make ~name:"page table matches a hash-table window"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map window_op_name ops))
       QCheck.Gen.(list_size (int_range 1 60) window_op_gen))
    (fun ops ->
      let m = Harness.make_machine () in
      for k = 0 to window_pages_universe - 1 do
        ignore
          (Addr_space.alloc_page m.Harness.dom0
             ~vpage:(Layout.page_of (window_page k)))
      done;
      let rt =
        Runtime.create_hypervisor ~window_pages:8 ~dom0:m.Harness.dom0
          ~hyp:m.Harness.hyp ()
      in
      let model = Ref_window.create 4 in
      let consistent () =
        let slots = Runtime.window_slots rt in
        let slot_names i p =
          match slots.(i) with Some (q, _) -> q = p | None -> false
        in
        let table_ok =
          List.for_all
            (fun k ->
              let p = window_page k in
              match Runtime.slot_of_page rt p with
              | Some i -> slot_names i p
              | None ->
                  not (Array.exists (fun s -> Option.map fst s = Some p) slots))
            (List.init window_pages_universe Fun.id)
        in
        table_ok
        && slots = model.Ref_window.slots
        && Runtime.window_reclaims rt = model.Ref_window.reclaims
      in
      List.for_all
        (fun op ->
          (match op with
          | Tr k ->
              ignore (Runtime.translate rt (window_page k + 16));
              Ref_window.translate model (window_page k)
          | Hit k ->
              Runtime.note_inline_hit rt (window_page k + 16);
              Ref_window.mark model (window_page k)
          | Inv k ->
              Runtime.invalidate_page rt (window_page k);
              Ref_window.invalidate model (window_page k)
          | Flush ->
              Runtime.flush rt;
              Ref_window.flush model);
          consistent ())
        ops)

let suite =
  [
    Alcotest.test_case "stlb index bits" `Quick test_index_bits;
    Alcotest.test_case "stlb install/lookup" `Quick test_stlb_install_lookup;
    Alcotest.test_case "stlb xor roundtrip" `Quick test_stlb_xor_roundtrip;
    Alcotest.test_case "miss maps page pair" `Quick test_runtime_miss_maps_pair;
    Alcotest.test_case "protection" `Quick test_runtime_protection;
    Alcotest.test_case "collision chain" `Quick test_runtime_collision_chain;
    Alcotest.test_case "identity mode" `Quick test_runtime_identity;
    Alcotest.test_case "persistent map/invalidate" `Quick
      test_persistent_map_and_invalidate;
    Alcotest.test_case "call table" `Quick test_call_table;
    Alcotest.test_case "window guard" `Quick test_window_guard;
    Alcotest.test_case "probe hit allocates nothing" `Quick
      test_probe_hit_allocates_nothing;
    QCheck_alcotest.to_alcotest page_table_prop;
    Alcotest.test_case "out-of-range pages change nothing" `Quick
      test_out_of_range_pages;
    Alcotest.test_case "window bound" `Quick test_window_bound;
  ]
