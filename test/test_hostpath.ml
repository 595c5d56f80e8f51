(* Oracles for the host-side shortcuts on the simulator's hot paths. Each
   one keeps the straightforward formula it replaced and requires the
   shortcut to reproduce it exactly:

   - the epoch-flush TLB against [Ref_tlb], the fill-on-flush original;
   - the compiled tier's TLB and cache hit witnesses against [Ref_tlb]
     and a reference cache;
   - the one-walk stack ops of [Semantics] against the two-walk formula
     (a fresh lookup to charge, then [State.push]/[State.pop]);
   - the id-keyed ledger rows against a by-name ledger;
   - [Shard.run] on persistent helpers against its contract;

   and the exact allocation budget of each steady-state frame path. *)

open Td_misa
open Td_cpu
open Td_mem

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* --- the epoch-flush TLB against the fill-on-flush original --- *)

type tlb_op = Access of int | Flush

(* Vpages crowd a few sets (a multiple of 64 lands in set 0 of the
   default TLB), and the rest are outside [0, 2^20): -1 (the value the
   original used for an empty slot), negatives, 2^20 and up, and the
   vpage a negative address gives under [Layout.page_of]. *)
let tlb_vpage =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> 64 * k) (int_range 0 9));
        (3, map (fun k -> 1 + (64 * k)) (int_range 0 5));
        ( 3,
          oneofl
            [
              -1; -2; -64; -65; 1 lsl 20; (1 lsl 20) + 64; max_int; min_int;
              Layout.page_of (-4);
            ] );
      ])

let tlb_op_gen =
  QCheck.Gen.(frequency [ (8, map (fun v -> Access v) tlb_vpage); (1, return Flush) ])

let print_tlb_op = function
  | Access v -> string_of_int v
  | Flush -> "flush"

let tlb_equivalence_prop =
  QCheck.Test.make ~name:"epoch-flush tlb matches the fill-on-flush tlb"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair (oneofl [ 4; 8; 256 ]) (list_size (int_range 1 200) tlb_op_gen))
       ~print:(fun (entries, ops) ->
         Printf.sprintf "entries=%d [%s]" entries
           (String.concat "; " (List.map print_tlb_op ops))))
    (fun (entries, ops) ->
      let t = Tlb.create ~entries () and r = Ref_tlb.create ~entries () in
      List.for_all
        (function
          | Flush ->
              Tlb.flush t;
              Ref_tlb.flush r;
              true
          | Access v -> Tlb.access t v = Ref_tlb.access r v)
        ops
      && Tlb.hits t = Ref_tlb.hits r
      && Tlb.misses t = Ref_tlb.misses r)

(* --- compiled-tier hit witnesses against the reference TLB and cache --- *)

(* A compiled memory access whose memo hits skips the TLB's set scan and
   the cache's tag check when nothing could have evicted its page or line
   since its last access: the TLB's and the cache's change counters
   read as they did then, and the access is on the same line. Here a random straight-line program
   of loads and stores is called again and again, compiled from the
   third call on, between TLB flushes and charged loads that evict: from
   pages in the same TLB set, and from frames 128 frames (the 512 KiB
   cache) past the program's, whose lines collide with its lines. The
   program's accesses are known, so [Ref_tlb] and a reference cache
   replay each call's access stream (the ret's pop included); the CPU's
   TLB and cache counters must equal theirs after every step, and its
   cycles those of the one-instruction-at-a-time reference. *)

(* Direct-mapped, 64-byte lines, 512 KiB: the model [Cache] implements,
   written as a table of tags. *)
module Ref_cache = struct
  type t = { tags : (int, int) Hashtbl.t; mutable hits : int; mutable misses : int }

  let create () = { tags = Hashtbl.create 64; hits = 0; misses = 0 }

  let access t paddr =
    let line = paddr / 64 in
    let idx = line mod (524288 / 64) in
    if Hashtbl.find_opt t.tags idx = Some line then t.hits <- t.hits + 1
    else begin
      Hashtbl.replace t.tags idx line;
      t.misses <- t.misses + 1
    end
end

let wit_vaddr i = 0xC200_0000 + (i * 64 * Layout.page_size)
let wit_offs = [| 0; 4; 64; 2048; 4092 |]

type wit_op = W_call | W_flush | W_fill of int * int

(* (store?, base-register access?, page 0-2, offset index) *)
let wit_access = QCheck.Gen.(quad bool bool (int_range 0 2) (int_range 0 4))

let wit_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return W_call);
        (1, return W_flush);
        (4, map2 (fun k o -> W_fill (k, o)) (int_range 0 3) (int_range 0 4));
      ])

let wit_regs = Reg.[| EBX; ESI; EDI |]

let wit_run ~reference accesses ops =
  let m = Harness.make_machine () in
  let phys = m.Harness.phys and dom0 = m.Harness.dom0 in
  let b = Builder.create "wit" in
  Builder.label b "entry";
  Array.iteri
    (fun i r -> Builder.movl b (Builder.imm (wit_vaddr i)) (Builder.reg r))
    wit_regs;
  List.iter
    (fun (store, based, page, o) ->
      let off = wit_offs.(o) in
      let at =
        if based then Builder.mem ~base:wit_regs.(page) off
        else Builder.mem (wit_vaddr page + off)
      in
      if store then Builder.movl b (Builder.reg Reg.EAX) at
      else Builder.addl b at (Builder.reg Reg.EAX))
    accesses;
  Builder.ret b;
  let prog =
    Program.assemble ~base:Layout.vm_driver_code_base (Builder.finish b)
  in
  Code_registry.register m.Harness.registry prog;
  let st = Harness.dom0_cpu m in
  let pool = Array.init 132 (fun _ -> Phys_mem.alloc_frame phys) in
  (* pages 0-2: the program's; 3-6: conflict pages on frames 128 on *)
  let frame i = if i < 3 then pool.(i) else pool.(125 + i) in
  for i = 0 to 6 do
    Addr_space.map dom0 ~vpage:(Layout.page_of (wit_vaddr i)) (frame i)
  done;
  let entry = Program.addr_of_label prog "entry" in
  let call =
    if reference then fun () ->
      Ref_interp.call ~natives:m.Harness.natives m.Harness.registry st ~entry
        ~args:[]
    else begin
      let interp = Interp.create st m.Harness.registry m.Harness.natives in
      Interp.set_compile_threshold interp 1;
      fun () -> Interp.call interp ~entry ~args:[]
    end
  in
  let rt = Ref_tlb.create () and rc = Ref_cache.create () in
  let touch vaddr f =
    ignore (Ref_tlb.access rt (Layout.page_of vaddr) : bool);
    Ref_cache.access rc ((f lsl Layout.page_shift) lor Layout.offset_of vaddr)
  in
  let esp0 = State.get st Reg.ESP in
  let stack_frame =
    Option.get
      (Addr_space.frame_of_vpage dom0 ~vpage:(Layout.page_of (esp0 - 4)))
  in
  List.map
    (fun op ->
      (match op with
      | W_call ->
          ignore (call () : int);
          List.iter
            (fun (_, _, page, o) ->
              touch (wit_vaddr page + wit_offs.(o)) (frame page))
            accesses;
          touch (esp0 - 4) stack_frame
      | W_flush ->
          Tlb.flush st.State.tlb;
          Ref_tlb.flush rt
      | W_fill (k, o) ->
          let a = wit_vaddr (3 + k) + wit_offs.(o) in
          ignore (Semantics.load st a Width.W32 : int);
          touch a (frame (3 + k)));
      ( (Tlb.hits st.State.tlb, Tlb.misses st.State.tlb),
        (Ref_tlb.hits rt, Ref_tlb.misses rt),
        (Cache.hits st.State.cache, Cache.misses st.State.cache),
        (rc.Ref_cache.hits, rc.Ref_cache.misses),
        st.State.cycles ))
    ops

let witness_prop =
  QCheck.Test.make
    ~name:"compiled hit witnesses match the reference tlb and cache"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 10) wit_access)
           (list_size (int_range 1 30) wit_op_gen)))
    (fun (accesses, ops) ->
      let ops = W_call :: W_call :: ops in
      let compiled = wit_run ~reference:false accesses ops in
      let reference = wit_run ~reference:true accesses ops in
      List.for_all2
        (fun (tlb, ref_tlb, cache, ref_cache, cycles)
             (_, _, _, _, ref_cycles) ->
          tlb = ref_tlb && cache = ref_cache && cycles = ref_cycles)
        compiled reference)

(* --- one-walk stack ops against the two-walk formula --- *)

let stack_base = 0xC080_0000

(* dom0: two frame pages at [stack_base], an unmapped page, a device
   page, another frame page. The hypervisor overlay has its driver stack
   between unmapped guard pages. Device accesses are logged, so the
   order and width of every device access is compared too. *)
type rig = { st : State.t; natives : Native.t; dev_log : Buffer.t }

let make_rig () =
  let phys = Phys_mem.create () in
  let dom0 = Addr_space.create ~name:"dom0" phys in
  let hyp = Addr_space.create ~name:"xen" phys in
  Addr_space.alloc_region dom0 ~vaddr:stack_base ~pages:2;
  Addr_space.alloc_region dom0 ~vaddr:(stack_base + 0x4000) ~pages:1;
  Addr_space.alloc_region hyp
    ~vaddr:(Layout.hyp_stack_top - (Layout.hyp_stack_pages * Layout.page_size))
    ~pages:Layout.hyp_stack_pages;
  let dev_log = Buffer.create 64 in
  let dev =
    {
      Addr_space.dev_read =
        (fun off w ->
          Printf.bprintf dev_log "r%x/%d;" off (Width.bytes w);
          ((off * 37) + 5) land Width.mask w);
      dev_write =
        (fun off w v -> Printf.bprintf dev_log "w%x/%d=%x;" off (Width.bytes w) v);
    }
  in
  Addr_space.map_device dom0 ~vpage:(Layout.page_of (stack_base + 0x3000)) dev;
  let st = State.create ~hyp_space:hyp dom0 in
  st.State.pc <- 0x1000;
  { st; natives = Native.create (); dev_log }

let esp_choices =
  let top = Layout.hyp_stack_top in
  let hyp_bottom = top - (Layout.hyp_stack_pages * Layout.page_size) in
  [|
    stack_base + 0x800 (* mid-page *);
    stack_base + 0x1002 (* push straddles two frames *);
    stack_base + 0xFFE (* pop straddles two frames *);
    stack_base + 0x2002 (* push straddles frame -> unmapped *);
    stack_base + 0x1FFE (* pop straddles frame -> unmapped *);
    stack_base + 0x2800 (* unmapped *);
    stack_base + 0x3010 (* device *);
    stack_base + 0x3002 (* push straddles unmapped -> device *);
    stack_base + 0x4002 (* push straddles device -> frame *);
    stack_base + 0x3FFE (* pop straddles device -> frame *);
    0;
    2 (* push below address 0 *);
    0xFFFF_FFFE (* pop straddles 2^32 *);
    top (* hypervisor stack top *);
    top - 8;
    hyp_bottom + 2 (* push straddles the lower guard *);
    top - 2 (* pop straddles the upper guard *);
  |]

type stack_op =
  | Set_esp of int
  | Push_reg of int
  | Push_imm of int
  | Pop_reg
  | Ret
  | Pushf of int
  | Popf

let print_stack_op = function
  | Set_esp i -> Printf.sprintf "esp=%#x" esp_choices.(i)
  | Push_reg v -> Printf.sprintf "push ebx=%#x" v
  | Push_imm v -> Printf.sprintf "push $%#x" v
  | Pop_reg -> "pop eax"
  | Ret -> "ret"
  | Pushf f -> Printf.sprintf "pushf flags=%x" f
  | Popf -> "popf"

let stack_op_gen =
  QCheck.Gen.(
    let v = int_range 0 0xFFFF_FFFF in
    frequency
      [
        (3, map (fun i -> Set_esp i) (int_range 0 (Array.length esp_choices - 1)));
        (2, map (fun x -> Push_reg x) v);
        (1, map (fun x -> Push_imm x) v);
        (2, return Pop_reg);
        (1, return Ret);
        (1, map (fun f -> Pushf f) (int_range 0 15));
        (1, return Popf);
      ])

let set_flags (st : State.t) f =
  st.zf <- f land 1 <> 0;
  st.sf <- f land 2 <> 0;
  st.cf <- f land 4 <> 0;
  st.ovf <- f land 8 <> 0

(* The formula the stack ops used before they shared one walk. *)
let two_walk_charge st addr =
  Semantics.charge st addr
    (Addr_space.lookup (State.space_for st addr) ~vpage:(Layout.page_of addr))

let two_walk (st : State.t) = function
  | Insn.Push o ->
      let v =
        match o with
        | Operand.Reg r -> State.get st r
        | Operand.Imm n -> n land 0xFFFFFFFF
        | Operand.Mem _ -> assert false
      in
      two_walk_charge st (State.get st Reg.ESP - 4);
      State.push st v;
      Semantics.advance st
  | Insn.Pop o ->
      two_walk_charge st (State.get st Reg.ESP);
      let v = State.pop st in
      (match o with Operand.Reg r -> State.set st r v | _ -> assert false);
      Semantics.advance st
  | Insn.Ret ->
      two_walk_charge st (State.get st Reg.ESP);
      State.add_cycles st st.costs.Cost_model.call;
      st.pc <- State.pop st
  | Insn.Pushf ->
      let v =
        (if st.zf then 1 else 0)
        lor (if st.sf then 2 else 0)
        lor (if st.cf then 4 else 0)
        lor if st.ovf then 8 else 0
      in
      two_walk_charge st (State.get st Reg.ESP - 4);
      State.push st v;
      Semantics.advance st
  | Insn.Popf ->
      two_walk_charge st (State.get st Reg.ESP);
      set_flags st (State.pop st);
      Semantics.advance st
  | _ -> assert false

(* Everything an op may change: registers, pc, flags, cycles, the TLB
   and cache counters, the outcome, the device log and the bytes of
   every frame-backed stack page. *)
let observe rig outcome =
  let st = rig.st in
  let space_bytes space vaddr pages =
    Digest.to_hex
      (Digest.bytes (Addr_space.read_block space vaddr (pages * Layout.page_size)))
  in
  let hyp = Option.get st.hyp_space in
  ( ( Array.to_list st.regs,
      st.pc,
      (st.zf, st.sf, st.cf, st.ovf),
      st.cycles ),
    ( Tlb.hits st.tlb,
      Tlb.misses st.tlb,
      Cache.hits st.cache,
      Cache.misses st.cache ),
    outcome,
    Buffer.contents rig.dev_log,
    ( space_bytes st.space stack_base 2,
      space_bytes st.space (stack_base + 0x4000) 1,
      space_bytes hyp
        (Layout.hyp_stack_top - (Layout.hyp_stack_pages * Layout.page_size))
        Layout.hyp_stack_pages ) )

let apply rig exec op =
  let st = rig.st in
  let run insn =
    match exec rig insn with
    | () -> "ok"
    | exception e -> Printexc.to_string e
  in
  let outcome =
    match op with
    | Set_esp i ->
        State.set st Reg.ESP esp_choices.(i);
        "ok"
    | Push_reg v ->
        State.set st Reg.EBX v;
        run (Insn.Push (Operand.Reg Reg.EBX))
    | Push_imm v -> run (Insn.Push (Operand.Imm v))
    | Pop_reg -> run (Insn.Pop (Operand.Reg Reg.EAX))
    | Ret -> run Insn.Ret
    | Pushf f ->
        set_flags st f;
        run Insn.Pushf
    | Popf -> run Insn.Popf
  in
  observe rig outcome

let stack_ops_prop =
  QCheck.Test.make ~name:"one-walk stack ops match the two-walk formula"
    ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) stack_op_gen)
       ~print:(fun ops -> String.concat "; " (List.map print_stack_op ops)))
    (fun ops ->
      let one = make_rig () and two = make_rig () in
      List.for_all
        (fun op ->
          apply one (fun r insn -> Semantics.exec_body ~natives:r.natives r.st insn) op
          = apply two (fun r insn -> two_walk r.st insn) op)
        ops)

(* The ops that fault must be among the ones generated: the property
   means little if every stack access landed on a plain frame. *)
let test_stack_ops_cover_faults () =
  let rig = make_rig () in
  let exec r insn = Semantics.exec_body ~natives:r.natives r.st insn in
  let outcome_at i op =
    ignore (apply rig exec (Set_esp i));
    let _, _, outcome, _, _ = apply rig exec op in
    outcome
  in
  let esp_index a =
    let rec go i = if esp_choices.(i) = a then i else go (i + 1) in
    go 0
  in
  check bool_c "plain push ok" true (outcome_at 0 (Push_imm 1) = "ok");
  check bool_c "straddling push into an unmapped page faults" true
    (outcome_at (esp_index (stack_base + 0x2002)) (Push_imm 1) <> "ok");
  check int_c "a faulting push leaves ESP moved" (stack_base + 0x2002 - 4)
    (State.get rig.st Reg.ESP);
  check bool_c "pop from an unmapped page faults" true
    (outcome_at (esp_index (stack_base + 0x2800)) Pop_reg <> "ok");
  check int_c "a faulting pop leaves ESP" (stack_base + 0x2800)
    (State.get rig.st Reg.ESP);
  check bool_c "device push ok" true
    (outcome_at (esp_index (stack_base + 0x3010)) (Push_imm 0xAB) = "ok");
  check bool_c "device write logged" true (Buffer.length rig.dev_log > 0)

(* --- id-keyed ledger rows against a by-name ledger --- *)

module Ledger = Td_xen.Ledger
module Domain = Td_xen.Domain

(* The per-domain rows as they were kept before rows were keyed by
   domain id: one table by name. *)
module Ref_rows = struct
  let charge t domain n =
    match Hashtbl.find_opt t domain with
    | Some v -> Hashtbl.replace t domain (v + n)
    | None -> Hashtbl.replace t domain n

  let retire t domain =
    match Hashtbl.find_opt t domain with
    | None -> ()
    | Some v ->
        Hashtbl.remove t domain;
        if v <> 0 then charge t Ledger.retired_row v

  let merge ~into src = Hashtbl.iter (fun d v -> charge into d v) src

  let snapshot t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare
end

let row_phys = Phys_mem.create ()

let row_domain id name =
  Domain.create ~id ~name ~kind:Domain.Guest
    ~space:(Addr_space.create ~name row_phys)

(* Name order is not id order ("attacker" sorts first but has id 5), and
   ids 37 and 100 make the row arrays grow. Slot 2's id is reused: after
   a [Reuse] retires it in both ledgers, it charges under the other
   name. *)
let ledger_domains =
  [| row_domain 0 "dom0"; row_domain 1 "guest1"; row_domain 2 "guest2";
     row_domain 5 "attacker"; row_domain 37 "churn37";
     row_domain 100 "churn100" |]

let reborn = row_domain 2 "reborn2"

type ledger_op =
  | Charge of bool * int * int  (** into B?, domain slot, n *)
  | Retire of bool * int
  | Reuse  (** retire slot 2 in both ledgers and flip its name *)
  | Reset of bool
  | Merge

let print_ledger_op = function
  | Charge (b, d, n) ->
      Printf.sprintf "charge%s %d %d" (if b then "B" else "A") d n
  | Retire (b, d) -> Printf.sprintf "retire%s %d" (if b then "B" else "A") d
  | Reuse -> "reuse slot 2"
  | Reset b -> if b then "resetB" else "resetA"
  | Merge -> "merge B into A"

let ledger_op_gen =
  QCheck.Gen.(
    let dom = int_range 0 (Array.length ledger_domains - 1) in
    frequency
      [
        (12, map (fun (b, d, n) -> Charge (b, d, n)) (triple bool dom (int_range 0 1000)));
        (2, map2 (fun b d -> Retire (b, d)) bool dom);
        (1, return Reuse);
        (1, map (fun b -> Reset b) bool);
        (2, return Merge);
      ])

(* Both ledgers and both references after [ops], compared after every
   op: snapshots equal, and each live domain's total equal. *)
let rows_agree ops =
  let a = Ledger.create () and b = Ledger.create () in
  let ra = Hashtbl.create 8 and rb = Hashtbl.create 8 in
  let doms = Array.copy ledger_domains in
  let pick side = if side then (b, rb) else (a, ra) in
  List.for_all
    (fun op ->
      (match op with
      | Charge (side, d, n) ->
          let l, r = pick side in
          Ledger.charge_for l Ledger.DomU ~domain:doms.(d) n;
          Ref_rows.charge r (Domain.name doms.(d)) n
      | Retire (side, d) ->
          let l, r = pick side in
          Ledger.retire_domain l ~domain:doms.(d);
          Ref_rows.retire r (Domain.name doms.(d))
      | Reuse ->
          List.iter
            (fun (l, r) ->
              Ledger.retire_domain l ~domain:doms.(2);
              Ref_rows.retire r (Domain.name doms.(2)))
            [ (a, ra); (b, rb) ];
          doms.(2) <- (if doms.(2) == reborn then ledger_domains.(2) else reborn)
      | Reset side ->
          let l, r = pick side in
          Ledger.reset l;
          Hashtbl.reset r
      | Merge ->
          Ledger.merge_into ~into:a b;
          Ref_rows.merge ~into:ra rb);
      Ledger.domain_snapshot a = Ref_rows.snapshot ra
      && Ledger.domain_snapshot b = Ref_rows.snapshot rb
      && Array.for_all
           (fun d ->
             Ledger.domain_total a d
             = Option.value ~default:0 (Hashtbl.find_opt ra (Domain.name d)))
           doms)
    ops

let ledger_rows_prop =
  QCheck.Test.make ~name:"id-keyed ledger rows match a by-name ledger"
    ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 80) ledger_op_gen)
       ~print:(fun ops -> String.concat "; " (List.map print_ledger_op ops)))
    rows_agree

(* A retired id charges afresh, under the name its new domain has, and
   the old row's cycles stay in "<retired>". *)
let test_ledger_id_reuse () =
  check bool_c "reuse after retire" true
    (rows_agree
       [ Charge (false, 2, 40); Charge (false, 3, 1); Retire (false, 2);
         Charge (false, 2, 7); Reuse; Charge (false, 2, 5); Charge (false, 2, 0);
         Reuse; Charge (false, 2, 9) ]);
  let l = Ledger.create () in
  Ledger.charge_for l Ledger.DomU ~domain:ledger_domains.(2) 40;
  Ledger.retire_domain l ~domain:ledger_domains.(2);
  Ledger.charge_for l Ledger.DomU ~domain:reborn 5;
  check
    Alcotest.(list (pair string int))
    "fresh row under the new name"
    [ (Ledger.retired_row, 40); ("reborn2", 5) ]
    (Ledger.domain_snapshot l)

(* Rows created in different orders (and arrays grown at different
   points) merge by id, whichever ledger is the target; a row present
   only in the source is carried over, even one charged with 0. *)
let test_ledger_merge_orders () =
  check bool_c "B's rows created last-id first" true
    (rows_agree
       [ Charge (true, 5, 100); Charge (true, 4, 3); Charge (true, 0, 0);
         Charge (false, 0, 1); Charge (false, 1, 2); Charge (false, 4, 3);
         Merge; Charge (true, 1, 9); Charge (false, 3, 8); Merge ]);
  check bool_c "A holds only rows B lacks" true
    (rows_agree
       [ Charge (false, 2, 11); Retire (false, 2); Charge (true, 3, 0);
         Charge (true, 5, 6); Merge; Merge ])

(* --- Shard.run on persistent helpers --- *)

module Shard = Twindrivers.Shard

let test_shard_order () =
  List.iter
    (fun shards ->
      List.iter
        (fun n ->
          let got = Shard.run ~shards (Array.init n (fun i () -> (i * i) + 1)) in
          check
            Alcotest.(array int)
            (Printf.sprintf "shards=%d jobs=%d" shards n)
            (Array.init n (fun i -> (i * i) + 1))
            got)
        [ 0; 1; 2; 5; 8 ])
    [ 1; 2; 3; 4 ]

let test_shard_helpers_reused () =
  ignore (Shard.run ~shards:4 (Array.init 8 (fun i () -> i)));
  let spawned = Shard.helpers_spawned () in
  check bool_c "helpers spawned for a 4-shard run" true (spawned >= 3);
  for k = 1 to 50 do
    let shards = 2 + (k mod 3) in
    let got = Shard.run ~shards (Array.init 6 (fun i () -> i + k)) in
    check Alcotest.(array int) "results" (Array.init 6 (fun i -> i + k)) got
  done;
  check int_c "no domain spawned by 50 more runs" spawned
    (Shard.helpers_spawned ())

exception Job_failed of int

let test_shard_exceptions () =
  let n = 7 in
  let finished = Array.init n (fun _ -> Atomic.make false) in
  let obs_inside = Array.init n (fun _ -> Atomic.make true) in
  let jobs =
    Array.init n (fun i () ->
        Atomic.set obs_inside.(i) (Td_obs.Control.enabled ());
        if i = 2 || i = 5 then raise (Job_failed i);
        (* the helpers' jobs (i mod 3 <> 0 at 3 shards) are the slow
           ones, so a run that returned when the calling domain's share
           was done would leave them unfinished *)
        let acc = ref 0 in
        for k = 1 to if i mod 3 = 0 then 1 else 2_000_000 do
          acc := !acc + k
        done;
        Atomic.set finished.(i) true;
        !acc)
  in
  Td_obs.Control.enable ();
  let raised =
    match Shard.run ~shards:3 jobs with
    | _ -> None
    | exception Job_failed i -> Some i
  in
  let obs_after = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  check Alcotest.(option int) "lowest-index exception" (Some 2) raised;
  Array.iteri
    (fun i f ->
      if i <> 2 && i <> 5 then
        check bool_c (Printf.sprintf "job %d ran to the end" i) true (Atomic.get f))
    finished;
  check bool_c "obs off inside every job" true
    (Array.for_all (fun a -> not (Atomic.get a)) obs_inside);
  check bool_c "obs restored" true obs_after

let test_shard_nested () =
  let inner i () =
    Shard.run ~shards:2 (Array.init 4 (fun j () -> (10 * i) + j))
    |> Array.fold_left ( + ) 0
  in
  let expect = Array.init 5 (fun i -> (40 * i) + 6) in
  check Alcotest.(array int) "nested runs" expect
    (Shard.run ~shards:3 (Array.init 5 inner));
  check Alcotest.(array int) "nested runs, sequential outer" expect
    (Shard.run ~shards:1 (Array.init 5 inner))

(* --- per-path allocation budgets --- *)

(* Minor words per frame over [frames] steady-state frames of [step],
   after [warm] frames of warm-up (compilation, ring and buffer growth),
   with observability off. [step i] moves frame [i] and returns how many
   frames it moved. Allocation repeats exactly for a given input, so each
   budget below is the words this path allocates now: OCaml's smallest
   block is two words, so a single allocation added per frame anywhere
   on the path breaks its budget. *)
let words_per_frame ?(warm = 256) ?(frames = 1000) step =
  let was_on = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  let moved = ref 0 in
  while !moved < warm do
    moved := !moved + step !moved
  done;
  let start = !moved in
  let before = Gc.minor_words () in
  while !moved - start < frames do
    moved := !moved + step !moved
  done;
  let words = Gc.minor_words () -. before in
  if was_on then Td_obs.Control.enable ();
  words /. float_of_int (!moved - start)

let check_budget ?(per = "frame") name ~budget words =
  check bool_c
    (Printf.sprintf "%s: %.3f words/%s <= %.2f" name words per budget)
    true (words <= budget)

(* The four frame paths of the suite's workloads, at their cadences,
   plus one Mq.run chunk. The budgets hold in the default (release)
   profile and under --profile dev, which compiles every module -opaque:
   each path allocates the same words in both. *)
let mtu = String.make 1500 'm'

open Twindrivers

let twin_tx () =
  let w = World.create ~nics:1 Config.Xen_twin in
  words_per_frame (fun i ->
      ignore (World.transmit w ~nic:0 ~payload:mtu);
      if i mod 8 = 7 then World.pump w;
      1)

let domu_tx () =
  let w = World.create ~nics:1 Config.Xen_domU in
  words_per_frame (fun i ->
      ignore (World.transmit w ~nic:0 ~payload:mtu);
      if i mod 8 = 7 then World.pump w;
      1)

let domu_rx () =
  let w = World.create ~nics:1 Config.Xen_domU in
  let payload = String.make 64 'r' in
  let rec drain () = match World.rx_pop w with Some _ -> drain () | None -> () in
  words_per_frame (fun i ->
      World.inject_rx w ~nic:0 ~payload;
      if i mod 4 = 3 then begin
        World.pump w;
        drain ()
      end;
      1)

(* mq-sharded-tx's chunk, small: two single-queue domU contexts on one
   shard, each sending 256 frames per Mq.run with a pump every 8 and a
   tick every 64. The warm-up covers a dozen watchdog calls per context
   (one per 10 ticks), so the watchdog's superblocks are compiled before
   the count starts. *)
let mq_frames_per_queue = 256

let mq_job ~queue:_ w =
  for i = 0 to mq_frames_per_queue - 1 do
    ignore (World.transmit w ~nic:0 ~payload:mtu);
    if i mod 8 = 7 then World.pump w;
    if i mod 64 = 63 then World.tick w
  done;
  World.pump w

let mq_chunk () =
  let tuning = { Config.default_tuning with Config.queues = 2; shards = 1 } in
  let mq = Mq.create ~nics:1 ~tuning Config.Xen_domU in
  words_per_frame ~warm:16_384 ~frames:8192 (fun _ ->
      ignore (Mq.run mq ~job:mq_job);
      2 * mq_frames_per_queue)

(* fleet-churn's round, small: six guests on two NICs in its three
   shapes (bulk transmit, rpc bursts, incast receive), with quotas,
   doorbells and its lost-interrupt plan; a pump, a drain and a tick per
   round. The warm-up covers a dozen watchdog calls, and each guest's
   [?guest] argument is built once, so a call boxes nothing in either
   profile. *)
let fleet_round () =
  let tuning =
    {
      Config.default_tuning with
      Config.recovery = Config.Restart_replay;
      doorbell = true;
      quota = Some { Td_xen.Quota.default_limits with grant_entries = 512 };
      fault_plan = Some { Td_fault.zero_plan with seed = 1; nic_lost_irq = 2e-5 };
    }
  in
  let w = World.create ~nics:2 ~guests:6 ~tuning Config.Xen_domU in
  let bulk = String.make 1500 'b' and rpc = String.make 64 'p' in
  let fanin = String.make 128 'f' in
  let rec drain () = match World.rx_pop w with Some _ -> drain () | None -> () in
  let guests = Array.init (World.guest_slots w) Option.some in
  let round = ref 0 in
  words_per_frame ~warm:2048 (fun _ ->
      let before = World.wire_tx_frames w + World.delivered_rx_frames w in
      for g = 0 to World.guest_slots w - 1 do
        match g mod 3 with
        | 0 -> ignore (World.transmit_from w ~guest:g ~payload:bulk)
        | 1 ->
            if (!round + g) mod 4 = 0 then
              for _ = 1 to 8 do
                ignore (World.transmit_from w ~guest:g ~payload:rpc)
              done
        | _ ->
            for _ = 1 to 2 do
              World.inject_rx ?guest:guests.(g) w ~nic:(g mod 2) ~payload:fanin
            done
      done;
      World.pump w;
      drain ();
      World.tick w;
      incr round;
      World.wire_tx_frames w + World.delivered_rx_frames w - before)

(* Minor words per supervisor recovery on a small restart soak shaped
   like [Experiments.recovery_soak]'s: five twin NICs, a demoted fast-path
   routine, the seeded soak plan at 0.01 (about one recovery per frame),
   a tick every other frame. The frames themselves allocate next to
   nothing, so this is what one recovery costs, its abort included. *)
let recovery () =
  let tuning =
    {
      Config.default_tuning with
      Config.recovery = Config.Restart;
      fault_plan = Some (Experiments.soak_plan ~seed:1 0.01);
    }
  in
  let w =
    World.create ~nics:5 ~upcall_set:[ "spin_trylock" ] ~tuning Config.Xen_twin
  in
  let payload = String.make 1500 's' in
  let was_on = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  let recoveries = World.recoveries w in
  let before = Gc.minor_words () in
  for i = 0 to 199 do
    (try ignore (World.transmit w ~nic:(i mod 5) ~payload)
     with World.Driver_aborted _ | World.Nic_quarantined _ -> ());
    if i mod 2 = 1 then
      try World.tick w
      with World.Driver_aborted _ | World.Nic_quarantined _ -> ()
  done;
  let words = Gc.minor_words () -. before in
  if was_on then Td_obs.Control.enable ();
  words /. float_of_int (World.recoveries w - recoveries)

(* What is left per frame, and why it stays:
   - twin transmit and domU transmit: nothing. A grant map stores an
     unboxed page-table entry (docs/INTERPRETER.md).
   - domU receive: the payload string the consumer pops (10 words for
     64 B) and [World.rx_pop]'s [Some] (2): the consumer keeps both.
   - an Mq.run chunk: 46 words per run for [Mq.run]'s job array and
     closures and [Shard.run]'s result array and dispatch (0.09
     words/frame over 512 frames). The suite's mq-sharded-tx reads 0.41
     because its warm-up is 16 frames and no tick: the pump's and the
     watchdog's superblocks are compiled inside its measured chunks.
   - the fleet round: its receive frames, a 128 B payload and its
     [Some] (4 a round, 20 words each): 8.0 words/frame. Its transmit
     frames and its quota's bucket draws allocate nothing.
   - a recovery: 1,253 words. Flushing and re-pinning the sk_buff pool
     are one page-table store per page and allocate next to nothing (37
     words a recovery on Experiments.recovery_soak's 1,000-frame seed-1
     soak at 0.01); rebuilding the five ports (teardown, device reset,
     driver init) takes about 330, and the abort, its retry and the
     frames around it the rest (not split further).
   Twin transmit keeps one word of slack, the fleet round 0.1; the
   others are exact. *)
let test_allocation_budgets () =
  check_budget "twin transmit" ~budget:1. (twin_tx ());
  check_budget "domU transmit" ~budget:0. (domu_tx ());
  check_budget "domU receive" ~budget:12. (domu_rx ());
  check_budget "Mq.run chunk" ~budget:0.09 (mq_chunk ());
  check_budget "fleet round" ~budget:8.1 (fleet_round ());
  check_budget "restart soak" ~per:"recovery" ~budget:1253. (recovery ())

let suite =
  [
    Alcotest.test_case "allocation budget per frame path" `Quick
      test_allocation_budgets;
    QCheck_alcotest.to_alcotest tlb_equivalence_prop;
    QCheck_alcotest.to_alcotest witness_prop;
    QCheck_alcotest.to_alcotest stack_ops_prop;
    Alcotest.test_case "stack ops reach faults and devices" `Quick
      test_stack_ops_cover_faults;
    QCheck_alcotest.to_alcotest ledger_rows_prop;
    Alcotest.test_case "ledger id reused after retire" `Quick test_ledger_id_reuse;
    Alcotest.test_case "ledger merges rows made in other orders" `Quick
      test_ledger_merge_orders;
    Alcotest.test_case "shard results in job order" `Quick test_shard_order;
    Alcotest.test_case "shard helpers are reused" `Quick test_shard_helpers_reused;
    Alcotest.test_case "shard exception after all jobs" `Quick
      test_shard_exceptions;
    Alcotest.test_case "shard nested run" `Quick test_shard_nested;
  ]
