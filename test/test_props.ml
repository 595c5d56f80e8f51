(* Model-checking style property tests for the core data structures:
   the stlb against a reference map, the kernel allocator against an
   overlap checker, and decode against byte-level fuzzing. *)

open Td_misa

(* --- stlb vs a reference model --- *)

let stlb_model_prop =
  QCheck.Test.make ~name:"stlb behaves like a direct-mapped map" ~count:50
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 120) (int_range 0 2000))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun page_numbers ->
      let m = Harness.make_machine () in
      let stlb =
        Td_svm.Stlb.create ~space:m.Harness.hyp ~vaddr:Td_mem.Layout.stlb_base
      in
      (* reference: index -> installed page *)
      let model = Hashtbl.create 64 in
      List.iter
        (fun n ->
          let dom0_page = Td_mem.Layout.dom0_heap_base + (n * 4096) in
          let mapped = Td_mem.Layout.map_window_base + (n * 4096) in
          Td_svm.Stlb.install stlb ~dom0_page ~mapped_page:mapped;
          Hashtbl.replace model (Td_svm.Stlb.index_of dom0_page) dom0_page)
        page_numbers;
      (* every probe must agree with the model: hit iff the bucket holds
         that page, and then with offset preserved *)
      List.for_all
        (fun n ->
          let dom0_page = Td_mem.Layout.dom0_heap_base + (n * 4096) in
          let addr = dom0_page + (n * 7 mod 4096) in
          let expect_hit =
            Hashtbl.find_opt model (Td_svm.Stlb.index_of dom0_page)
            = Some dom0_page
          in
          let translated = Td_svm.Stlb.probe stlb addr in
          if translated < 0 then not expect_hit
          else
            expect_hit
            && translated
               = Td_mem.Layout.map_window_base + (n * 4096)
                 + (addr - dom0_page))
        page_numbers)

(* --- kmem: allocations never overlap, frees recycle --- *)

let kmem_no_overlap_prop =
  QCheck.Test.make ~name:"kmem allocations never overlap" ~count:30
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 60) (int_range 1 6000))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun sizes ->
      let m = Harness.make_machine () in
      let km = Td_kernel.Kmem.create m.Harness.dom0 in
      let live = ref [] in
      List.for_all
        (fun size ->
          let addr = Td_kernel.Kmem.alloc km size in
          let disjoint =
            List.for_all
              (fun (a, s) -> addr + size <= a || a + s <= addr)
              !live
          in
          live := (addr, size) :: !live;
          (* occasionally free the oldest to exercise recycling *)
          (if List.length !live > 20 then
             match List.rev !live with
             | (a, s) :: _ ->
                 Td_kernel.Kmem.free km a s;
                 live := List.filter (fun (x, _) -> x <> a) !live
             | [] -> ());
          disjoint)
        sizes)

(* --- decode: random bytes never crash, only Malformed --- *)

let decode_fuzz_prop =
  QCheck.Test.make ~name:"decode rejects noise gracefully" ~count:200
    (QCheck.make
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200))
       ~print:String.escaped)
    (fun noise ->
      match Decode.decode (Bytes.of_string noise) with
      | _ -> true (* a parse of noise is fine as long as it is well-typed *)
      | exception Decode.Malformed _ -> true)

let decode_valid_prefix_prop =
  (* a real binary with flipped trailing bytes must never crash *)
  QCheck.Test.make ~name:"decode survives corrupted driver binaries" ~count:60
    (QCheck.make
       QCheck.Gen.(pair (int_range 0 5000) (int_range 0 255))
       ~print:(fun (i, b) -> Printf.sprintf "flip[%d]=%d" i b))
    (fun (pos, value) ->
      let prog =
        Program.assemble
          ~symbols:(fun _ -> Some Td_mem.Layout.native_base)
          ~base:Td_mem.Layout.vm_driver_code_base
          (Td_driver.E1000_driver.source ())
      in
      let b = Encode.encode prog in
      if pos >= Bytes.length b then true
      else begin
        Bytes.set b pos (Char.chr value);
        match Decode.decode b with
        | _ -> true
        | exception Decode.Malformed _ -> true
        | exception Invalid_argument _ -> false (* must not leak *)
      end)

(* --- interpreter engines: one semantics, two engines and a reference --- *)

(* Random structured programs (forward-only control flow, so every
   program terminates) must produce bit-identical architectural results —
   EAX, every register, cycles, steps, all four flags and data memory —
   under the one-instruction-at-a-time reference ([Ref_interp]),
   basic-block and compiled-superblock dispatch; and, with a drawn
   [interp_bitflip] plan armed, the reference and [Interp.call] must
   flip the same bits before the same instructions. The
   generator emits multi-segment programs whose segments end in
   unconditional jumps to the next segment, so compiled traces stitch
   across block boundaries, and conditional forward jumps give the
   superblocks side exits. Absolute [disp] operands exercise the
   compiled tier's per-page memo, some on an unmapped page so fault
   accounting is compared too (only that page's [Page_fault] is caught;
   any other exception fails the property), and some on a page whose
   frame is freed and allocated again before every call, so each call —
   the compiled ones included — first touches it while it is still on
   the shared zero page. After the runs, a frame nothing ever wrote must
   still read zero: a memo that cached the read-only zero page would
   store into it. Push/pop pairs run through the generic fallback. *)

let prop_dst = Td_misa.Reg.[| EAX; EBX; EDX; ESI; EDI |]
let prop_conds = Cond.[| NE; E; L; GE; A; BE |]

(* Absolute operands: a dom0 word of [buf], a hypervisor scratch word
   (the SVM spill-slot pattern), a word of the never-written hypervisor
   page, or one time in sixteen an unmapped hypervisor page. *)
let prop_scratch = Td_mem.Layout.hyp_scratch_base
let prop_fresh = Td_mem.Layout.hyp_scratch_base + (2 * Td_mem.Layout.page_size)
let prop_unmapped = Td_mem.Layout.hyp_scratch_base + (4 * Td_mem.Layout.page_size)

let prop_abs ~buf k =
  let word = 4 * (k mod 8) in
  match k mod 16 with
  | 0 -> Builder.mem (prop_unmapped + word)
  | j when j < 6 -> Builder.mem (buf + word)
  | j when j < 11 -> Builder.mem (prop_fresh + word)
  | _ -> Builder.mem (prop_scratch + word)

(* Decode one generator int into one instruction (plus an optional
   forward conditional jump, or a push/pop pair). [nsegs] segments exist;
   jump targets are always in [seg+1 .. nsegs], where [nsegs] is the
   final ret. *)
let prop_emit b ~buf ~nsegs ~seg v =
  let lbl j = if j >= nsegs then "done" else Printf.sprintf "seg%d" j in
  let dst = prop_dst.((v / 7) mod 5) in
  let src =
    match (v / 12) mod 3 with
    | 0 -> Builder.imm ((v / 36) land 0xFFFF)
    | 1 -> Builder.reg prop_dst.((v / 36) mod 5)
    | _ -> Builder.mem ~base:Td_misa.Reg.EBP (4 * ((v / 36) mod 8))
  in
  match v mod 16 with
  | 0 -> Builder.addl b src (Builder.reg dst)
  | 1 -> Builder.subl b src (Builder.reg dst)
  | 2 -> Builder.xorl b src (Builder.reg dst)
  | 3 -> Builder.andl b src (Builder.reg dst)
  | 4 -> Builder.orl b src (Builder.reg dst)
  | 5 -> Builder.movl b src (Builder.reg dst)
  | 6 ->
      let s =
        if (v / 12) mod 2 = 0 then Builder.imm ((v / 36) land 0xFFFF)
        else Builder.reg dst
      in
      Builder.movl b s (Builder.mem ~base:Td_misa.Reg.EBP (4 * ((v / 36) mod 8)))
  | 7 -> Builder.incl b (Builder.reg dst)
  | 8 -> Builder.decl b (Builder.reg dst)
  | 9 ->
      Builder.cmpl b src (Builder.reg dst);
      Builder.jcc b
        prop_conds.((v / 5) mod 6)
        (lbl (seg + 1 + ((v / 36) mod (nsegs - seg))))
  | 10 -> Builder.testl b src (Builder.reg dst)
  | 11 -> (
      let c = Builder.imm ((v / 108) mod 5) in
      match (v / 36) mod 3 with
      | 0 -> Builder.shll b c (Builder.reg dst)
      | 1 -> Builder.shrl b c (Builder.reg dst)
      | _ -> Builder.sarl b c (Builder.reg dst))
  | 12 ->
      let a = prop_abs ~buf (v / 36) in
      if (v / 12) mod 2 = 0 then Builder.movl b a (Builder.reg dst)
      else Builder.addl b a (Builder.reg dst)
  | 13 ->
      let s =
        if (v / 12) mod 2 = 0 then Builder.imm ((v / 36) land 0xFFFF)
        else Builder.reg dst
      in
      Builder.movl b s (prop_abs ~buf (v / 36))
  | 14 ->
      Builder.pushl b src;
      Builder.popl b (Builder.reg dst)
  | _ -> Builder.nop b

type prop_engine = Reference | Threshold of int

let prop_run ?plan engine segs =
  let m = Harness.make_machine () in
  let buf = Td_mem.Addr_space.heap_alloc m.Harness.dom0 64 in
  let nsegs = List.length segs in
  let b = Builder.create "prop" in
  Builder.label b "entry";
  Builder.movl b (Builder.imm buf) (Builder.reg Reg.EBP);
  Array.iteri
    (fun i r -> Builder.movl b (Builder.imm ((i * 77) + 5)) (Builder.reg r))
    prop_dst;
  List.iteri
    (fun i ops ->
      Builder.label b (Printf.sprintf "seg%d" i);
      List.iter (prop_emit b ~buf ~nsegs ~seg:i) ops;
      (* segment termination: explicit jump to the next segment (a
         stitch edge for the superblock compiler) or plain fallthrough *)
      if List.fold_left ( + ) i ops mod 2 = 0 then
        Builder.jmp b (if i + 1 >= nsegs then "done" else Printf.sprintf "seg%d" (i + 1)))
    segs;
  Builder.label b "done";
  Builder.ret b;
  let prog =
    Program.assemble ~base:Td_mem.Layout.vm_driver_code_base (Builder.finish b)
  in
  Td_cpu.Code_registry.register m.Harness.registry prog;
  let st = Harness.dom0_cpu m in
  let entry = Program.addr_of_label prog "entry" in
  let fault = Option.map Td_fault.Engine.make plan in
  let call =
    match engine with
    | Reference ->
        fun () ->
          Ref_interp.call ?fault ~natives:m.Harness.natives m.Harness.registry
            st ~entry ~args:[]
    | Threshold n ->
        (* threshold 1: the second call runs compiled code unless a
           bitflip plan keeps it on the block engine; [max_int]: never
           promoted, the basic-block engine only *)
        let interp =
          Td_cpu.Interp.create ?fault st m.Harness.registry m.Harness.natives
        in
        Td_cpu.Interp.set_compile_threshold interp n;
        fun () -> Td_cpu.Interp.call interp ~entry ~args:[]
  in
  let hyp = m.Harness.hyp and phys = m.Harness.phys in
  let fresh_vpage = Td_mem.Layout.page_of prop_fresh in
  let untouched = Td_mem.Phys_mem.alloc_frame phys in
  let r = ref 0 and faults = ref [] in
  for _ = 1 to 3 do
    (* the free list hands back the frame just freed, on the zero page *)
    Option.iter
      (Td_mem.Phys_mem.free_frame phys)
      (Td_mem.Addr_space.frame_of_vpage hyp ~vpage:fresh_vpage);
    ignore (Td_mem.Addr_space.alloc_page hyp ~vpage:fresh_vpage);
    match call () with
    | v -> r := v
    | exception Td_mem.Addr_space.Page_fault { addr; _ }
      when Td_mem.Layout.page_of addr = Td_mem.Layout.page_of prop_unmapped ->
        faults := Printf.sprintf "%#x" addr :: !faults
    | exception ((Td_cpu.Interp.Fault _ | Td_cpu.Interp.Timeout _) as e)
      when plan <> None ->
        faults := Printexc.to_string e :: !faults
  done;
  let open Td_cpu in
  let snapshot =
    ( !r,
      !faults,
      Array.to_list (Array.map (Td_cpu.State.get st) prop_dst),
      st.State.cycles,
      st.State.steps,
      (st.State.zf, st.State.sf, st.State.cf, st.State.ovf),
      Option.map Td_fault.Engine.injected fault )
  in
  (* data memory readback after the architectural snapshot (the loads
     charge cycles, but the snapshot above is already taken) *)
  let mem =
    List.init 24 (fun k ->
        let base = [| buf; prop_scratch; prop_fresh |].(k / 8) in
        Semantics.load st (base + (4 * (k mod 8))) Td_misa.Width.W32)
  in
  let untouched_zero =
    Bytes.for_all
      (fun c -> c = '\000')
      (Td_mem.Phys_mem.read_bytes phys untouched 0 Td_mem.Layout.page_size)
  in
  (snapshot, mem, untouched_zero)

let engine_equivalence_prop =
  QCheck.Test.make
    ~name:"per-step, block and compiled engines are bit-identical" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 2 5)
              (list_size (int_range 1 10) (int_range 0 0xFF_FFFF)))
           (pair (int_range 1 1_000_000) (float_range 0.01 0.3)))
       ~print:(fun (segs, (seed, rate)) ->
         Printf.sprintf "%s seed=%d rate=%g"
           (String.concat ";"
              (List.map
                 (fun ops -> String.concat "," (List.map string_of_int ops))
                 segs))
           seed rate))
    (fun (segs, (seed, rate)) ->
      let reference = prop_run Reference segs in
      let block = prop_run (Threshold max_int) segs in
      let compiled = prop_run (Threshold 1) segs in
      let _, _, zero = compiled in
      let plan =
        { Td_fault.zero_plan with Td_fault.seed; interp_bitflip = rate }
      in
      let flipped = prop_run ~plan Reference segs in
      zero && reference = block && reference = compiled
      && flipped = prop_run ~plan (Threshold 1) segs
      && flipped = prop_run ~plan (Threshold max_int) segs)

(* --- translation memos under a changing memory map --- *)

(* The compiled tier keeps one translation memo per memory operand
   across runs, valid while its vpage maps the frame it cached, in
   whichever space, and no frame has been freed, with TLB and cache hit
   witnesses on top. This property interleaves calls of a random program
   with everything that could make a memo or a witness stale, or keep
   one valid: remapping a page (to the frame it has, or to another),
   mapping the other space's page to the same frame, unmapping it,
   freeing the frame behind it (a stale mapping) and allocating that
   frame again, switching address spaces, flushing the TLB, and charged
   loads that evict TLB entries and cache lines. After every step the
   reference, the block engine and the compiled tier must agree on the
   result or the fault and its pc, every register, the flags, cycles,
   steps and the TLB and cache counters; at the end, on every data
   frame's contents.

   Three data pages and four conflict pages, vpages a multiple of 64
   apart, share one set of the 4-way TLB. Each conflict page's frame is
   128 frames (the 512 KiB cache) past a data frame, so their lines
   collide in the direct-mapped cache. The space switched to maps the
   data pages to three other frames and everything else as dom0 does. *)

let memo_vaddr i = 0xC200_0000 + (i * 64 * Td_mem.Layout.page_size)
let memo_offs = [| 0; 4; 64; 2048; 4092; 4094 (* straddles: faults *) |]

type memo_op =
  | Call
  | Remap of int * int  (** data page, pool frame (0-5): map it again *)
  | Same of int  (** remap a data page to the frame it maps *)
  | Mirror of int
      (** map the other space's data page to the frame this one maps *)
  | Unmap of int
  | Free of int  (** free the frame behind a data page, mapping left stale *)
  | Alloc  (** allocate a frame: the last one freed, if any *)
  | Switch  (** to the other space, flushing the TLB *)
  | Flush
  | Fill of int * int  (** a charged load: conflict page, offset *)

let print_memo_op = function
  | Call -> "call"
  | Remap (i, j) -> Printf.sprintf "remap %d->%d" i j
  | Same i -> Printf.sprintf "same %d" i
  | Mirror i -> Printf.sprintf "mirror %d" i
  | Unmap i -> Printf.sprintf "unmap %d" i
  | Free i -> Printf.sprintf "free %d" i
  | Alloc -> "alloc"
  | Switch -> "switch"
  | Flush -> "flush"
  | Fill (k, o) -> Printf.sprintf "fill %d+%d" k memo_offs.(o)

let memo_off = QCheck.Gen.(frequency [ (12, int_range 0 4); (1, return 5) ])

let memo_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Call);
        (2, map2 (fun i j -> Remap (i, j)) (int_range 0 2) (int_range 0 5));
        (1, map (fun i -> Same i) (int_range 0 2));
        (1, map (fun i -> Mirror i) (int_range 0 2));
        (1, map (fun i -> Unmap i) (int_range 0 2));
        (1, map (fun i -> Free i) (int_range 0 2));
        (1, return Alloc);
        (1, return Switch);
        (1, return Flush);
        (3, map2 (fun k o -> Fill (k, o)) (int_range 0 3) memo_off);
      ])

(* One access of the program: (kind, data page, offset index). *)
let memo_access_gen =
  QCheck.Gen.(triple (int_range 0 6) (int_range 0 2) memo_off)

let memo_base_regs = Reg.[| EBX; ESI; EDI |]

let memo_program accesses =
  let b = Builder.create "memo" in
  Builder.label b "entry";
  Array.iteri
    (fun i r -> Builder.movl b (Builder.imm (memo_vaddr i)) (Builder.reg r))
    memo_base_regs;
  List.iter
    (fun (kind, page, o) ->
      let off = memo_offs.(o) in
      let at = Builder.mem ~base:memo_base_regs.(page) off in
      let abs = Builder.mem (memo_vaddr page + off) in
      match kind with
      | 0 -> Builder.movl b at (Builder.reg Reg.EAX)
      | 1 -> Builder.addl b at (Builder.reg Reg.EAX)
      | 2 -> Builder.movl b (Builder.reg Reg.EAX) at
      | 3 -> Builder.movl b abs (Builder.reg Reg.EDX)
      | 4 -> Builder.movl b (Builder.reg Reg.EDX) abs
      | 5 ->
          Builder.pushl b at;
          Builder.popl b (Builder.reg Reg.ECX)
      | _ ->
          Builder.incl b (Builder.reg Reg.EAX);
          Builder.addl b (Builder.imm 0x9E37) (Builder.reg Reg.EDX))
    accesses;
  Builder.ret b;
  Program.assemble ~base:Td_mem.Layout.vm_driver_code_base (Builder.finish b)

let memo_run engine accesses ops =
  let open Td_mem in
  let m = Harness.make_machine () in
  let phys = m.Harness.phys in
  let prog = memo_program accesses in
  Td_cpu.Code_registry.register m.Harness.registry prog;
  let st = Harness.dom0_cpu m in
  let pool = Array.init 132 (fun _ -> Phys_mem.alloc_frame phys) in
  let alt = Addr_space.create ~name:"alt" phys in
  Addr_space.iter_frames m.Harness.dom0 (fun ~vpage f ->
      Addr_space.map alt ~vpage f);
  let vp i = Layout.page_of (memo_vaddr i) in
  for i = 0 to 2 do
    Addr_space.map m.Harness.dom0 ~vpage:(vp i) pool.(i);
    Addr_space.map alt ~vpage:(vp i) pool.(3 + i)
  done;
  for k = 0 to 3 do
    Addr_space.map m.Harness.dom0 ~vpage:(vp (3 + k)) pool.(128 + k);
    Addr_space.map alt ~vpage:(vp (3 + k)) pool.(128 + k)
  done;
  let entry = Program.addr_of_label prog "entry" in
  let call =
    match engine with
    | Reference ->
        fun () ->
          Ref_interp.call ~natives:m.Harness.natives m.Harness.registry st
            ~entry ~args:[]
    | Threshold n ->
        let interp =
          Td_cpu.Interp.create st m.Harness.registry m.Harness.natives
        in
        Td_cpu.Interp.set_compile_threshold interp n;
        fun () -> Td_cpu.Interp.call interp ~entry ~args:[]
  in
  let attempt f =
    match f () with
    | v -> Printf.sprintf "ok %#x" v
    | exception e ->
        Printf.sprintf "%s at %#x" (Printexc.to_string e) st.Td_cpu.State.pc
  in
  let step op =
    let outcome =
      match op with
      | Call -> attempt call
      | Remap (i, j) ->
          Addr_space.map st.Td_cpu.State.space ~vpage:(vp i) pool.(j);
          ""
      | Same i ->
          let space = st.Td_cpu.State.space in
          Option.iter
            (Addr_space.map space ~vpage:(vp i))
            (Addr_space.frame_of_vpage space ~vpage:(vp i));
          ""
      | Mirror i ->
          let other =
            if st.Td_cpu.State.space == alt then m.Harness.dom0 else alt
          in
          Option.iter
            (Addr_space.map other ~vpage:(vp i))
            (Addr_space.frame_of_vpage st.Td_cpu.State.space ~vpage:(vp i));
          ""
      | Unmap i ->
          Addr_space.unmap st.Td_cpu.State.space ~vpage:(vp i);
          ""
      | Free i ->
          Option.iter (Phys_mem.free_frame phys)
            (Addr_space.frame_of_vpage st.Td_cpu.State.space ~vpage:(vp i));
          ""
      | Alloc -> string_of_int (Phys_mem.alloc_frame phys)
      | Switch ->
          Td_cpu.State.switch_space st
            (if st.Td_cpu.State.space == alt then m.Harness.dom0 else alt);
          ""
      | Flush ->
          Td_cpu.Tlb.flush st.Td_cpu.State.tlb;
          ""
      | Fill (k, o) ->
          attempt (fun () ->
              Td_cpu.Semantics.load st
                (memo_vaddr (3 + k) + memo_offs.(o))
                Width.W32)
    in
    let open Td_cpu in
    ( outcome,
      List.map (State.get st) (Reg.ESP :: Reg.general),
      (st.State.zf, st.State.sf, st.State.cf, st.State.ovf),
      (st.State.cycles, st.State.steps),
      ( Tlb.hits st.State.tlb,
        Tlb.misses st.State.tlb,
        Cache.hits st.State.cache,
        Cache.misses st.State.cache ) )
  in
  let trace = List.map step ops in
  let frames =
    Array.to_list
      (Array.map
         (fun f ->
           match Phys_mem.read_bytes phys f 0 Layout.page_size with
           | b -> Digest.to_hex (Digest.bytes b)
           | exception Phys_mem.Bad_frame _ -> "free")
         (Array.sub pool 0 6))
  in
  (trace, frames)

let memo_exactness_prop =
  QCheck.Test.make
    ~name:
      "memos and witnesses stay exact under remaps, frees, space switches \
       and flushes"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 12) memo_access_gen)
           (list_size (int_range 1 30) memo_op_gen))
       ~print:(fun (accesses, ops) ->
         Printf.sprintf "program [%s]\nops [%s]"
           (String.concat "; "
              (List.map
                 (fun (k, p, o) -> Printf.sprintf "%d@%d+%d" k p memo_offs.(o))
                 accesses))
           (String.concat "; " (List.map print_memo_op ops))))
    (fun (accesses, ops) ->
      (* the first two calls promote the entry; compiled runs follow *)
      let ops = Call :: Call :: ops in
      let reference = memo_run Reference accesses ops in
      reference = memo_run (Threshold max_int) accesses ops
      && reference = memo_run (Threshold 1) accesses ops)

(* --- the array-ring FIFO against Stdlib.Queue --- *)

(* ops: [n >= 0] pushes n, [-1] pops, [-2] clears; every pop and the
   final contents must match the model, through wrap-around and each
   doubling *)
let fifo_model_prop =
  QCheck.Test.make ~name:"fifo ring behaves like Stdlib.Queue" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 300)
           (frequency
              [ (6, int_range 0 1000); (5, return (-1)); (1, return (-2)) ]))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun ops ->
      let q = Td_sim.Fifo.create (-1) and model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | -2 ->
              Td_sim.Fifo.clear q;
              Queue.clear model
          | -1 -> ()
          | n ->
              Td_sim.Fifo.push q n;
              Queue.push n model);
          (op <> -1 || Queue.is_empty model
          || Td_sim.Fifo.pop q = Queue.pop model)
          && Td_sim.Fifo.length q = Queue.length model
          && Td_sim.Fifo.is_empty q = Queue.is_empty model)
        ops
      && List.init (Queue.length model) (fun _ -> Td_sim.Fifo.pop q)
         = List.of_seq (Queue.to_seq model))

(* --- ledger arithmetic --- *)

let ledger_prop =
  QCheck.Test.make ~name:"ledger totals equal the sum of charges" ~count:50
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 80) (pair (int_range 0 3) (int_range 0 10000)))
       ~print:(fun l -> string_of_int (List.length l)))
    (fun charges ->
      let led = Td_xen.Ledger.create () in
      let cat = function
        | 0 -> Td_xen.Ledger.Dom0
        | 1 -> Td_xen.Ledger.DomU
        | 2 -> Td_xen.Ledger.Xen
        | _ -> Td_xen.Ledger.Driver
      in
      List.iter (fun (c, n) -> Td_xen.Ledger.charge led (cat c) n) charges;
      Td_xen.Ledger.grand_total led
      = List.fold_left (fun acc (_, n) -> acc + n) 0 charges)

let suite =
  [
    QCheck_alcotest.to_alcotest stlb_model_prop;
    QCheck_alcotest.to_alcotest kmem_no_overlap_prop;
    QCheck_alcotest.to_alcotest decode_fuzz_prop;
    QCheck_alcotest.to_alcotest decode_valid_prefix_prop;
    QCheck_alcotest.to_alcotest engine_equivalence_prop;
    QCheck_alcotest.to_alcotest memo_exactness_prop;
    QCheck_alcotest.to_alcotest ledger_prop;
    QCheck_alcotest.to_alcotest fifo_model_prop;
  ]
