open Td_misa

exception Rewrite_error of string

type stats = {
  input_instructions : int;
  output_instructions : int;
  heap_sites : int;
  string_sites : int;
  indirect_sites : int;
  spill_sites : int;
  flag_save_sites : int;
  cfi_sites : int;
  cached_sites : int;
}

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>input instructions:  %d@,output instructions: %d (x%.2f)@,\
     heap sites rewritten: %d@,string sites:         %d@,\
     indirect sites:       %d@,spill sites:          %d@,\
     flag-save sites:      %d@,cfi-guarded returns:  %d@,\
     probe reuses:         %d@]"
    s.input_instructions s.output_instructions
    (float_of_int s.output_instructions /. float_of_int (max 1 s.input_instructions))
    s.heap_sites s.string_sites s.indirect_sites s.spill_sites
    s.flag_save_sites s.cfi_sites s.cached_sites

let memory_reference_fraction src =
  let total = Program.instruction_count src in
  if total = 0 then 0.0
  else float_of_int (Program.heap_reference_count src) /. float_of_int total

(* Replace the (single) heap memory operand of an instruction. *)
let replace_heap_operand insn replacement =
  let sub o =
    match o with
    | Operand.Mem m when not (Operand.is_stack_relative m) -> replacement
    | Operand.Mem _ | Operand.Imm _ | Operand.Reg _ -> o
  in
  match insn with
  | Insn.Mov (w, a, b) -> Insn.Mov (w, sub a, sub b)
  | Insn.Movzx (w, a, r) -> Insn.Movzx (w, sub a, r)
  | Insn.Alu (op, a, b) -> Insn.Alu (op, sub a, sub b)
  | Insn.Shift (op, a, b) -> Insn.Shift (op, sub a, sub b)
  | Insn.Cmp (a, b) -> Insn.Cmp (sub a, sub b)
  | Insn.Test (a, b) -> Insn.Test (sub a, sub b)
  | Insn.Inc a -> Insn.Inc (sub a)
  | Insn.Dec a -> Insn.Dec (sub a)
  | Insn.Neg a -> Insn.Neg (sub a)
  | Insn.Not a -> Insn.Not (sub a)
  | Insn.Imul (a, r) -> Insn.Imul (sub a, r)
  | Insn.Xchg (a, r) -> Insn.Xchg (sub a, r)
  | Insn.Push a -> Insn.Push (sub a)
  | Insn.Pop a -> Insn.Pop (sub a)
  | Insn.Lea (_, _) | Insn.Jmp _ | Insn.Jcc (_, _) | Insn.Call _ | Insn.Ret
  | Insn.Str (_, _, _) | Insn.Pushf | Insn.Popf | Insn.Nop | Insn.Hlt ->
      raise (Rewrite_error "replace_heap_operand: instruction has no operand")

let heap_operands insn =
  List.filter
    (fun m -> not (Operand.is_stack_relative m))
    (Insn.mem_operands insn)

type style = Inline_fast_path | Shared_helper

let cfi_symbol = "__cfi_check"

let rewrite_source ?(spill_everything = false) ?(style = Inline_fast_path)
    ?(cfi = false) ?(cache_probes = false) src =
  let live = Liveness.analyse src in
  (* the emitted probes' labels are numbered per rewrite, skipping the
     source's own *)
  let fresh =
    let defined = Hashtbl.create 64 in
    List.iter (fun l -> Hashtbl.replace defined l ()) (Program.entry_points src);
    Builder.namer ~taken:(Hashtbl.mem defined) ()
  in
  let heap_sites = ref 0
  and string_sites = ref 0
  and indirect_sites = ref 0
  and spill_sites = ref 0
  and flag_save_sites = ref 0
  and cfi_sites = ref 0
  and cached_sites = ref 0 in
  let out = ref [] in
  let emit items = out := List.rev_append items !out in
  let free_at i = if spill_everything then [] else Liveness.free_regs live i in
  let note_spills ~free ~used =
    let _, _, _, spilled = Svm_emit.pick_scratch ~free ~used in
    if spilled <> [] then incr spill_sites
  in
  let emit_heap_access =
    match style with
    | Inline_fast_path -> Svm_emit.rewrite_heap_access ~fresh
    | Shared_helper -> Svm_emit.rewrite_heap_access_helper
  in
  (* probe cache: the most recent translation still valid in a register.
     [key] is the (base, index, disp) it translated; validity ends at
     block boundaries, calls, or writes to any involved register. *)
  let cache : (Operand.mem * Reg.t) option ref = ref None in
  let invalidate () = cache := None in
  let invalidate_on_write insn =
    match !cache with
    | None -> ()
    | Some (key, r2) ->
        let written = Insn.regs_written insn in
        let involved = r2 :: Operand.regs_addr key in
        if List.exists (fun w -> List.exists (Reg.equal w) involved) written
        then invalidate ()
  in
  let cache_avoid () = match !cache with Some (_, r) -> [ r ] | None -> [] in
  let try_reuse insn (m : Operand.mem) =
    if not cache_probes then None
    else
      match !cache with
      | Some (key, r2)
        when Option.equal Reg.equal m.Operand.base key.Operand.base
             && m.Operand.index = key.Operand.index
             && m.Operand.sym = None && key.Operand.sym = None
             && m.Operand.disp >= key.Operand.disp
             && m.Operand.disp - key.Operand.disp < Td_mem.Layout.page_size - 8
             && not (List.exists (Reg.equal r2) (Insn.regs_written insn)) ->
          Some (r2, m.Operand.disp - key.Operand.disp)
      | _ -> None
  in
  let heap_load ~free ~insn ~mem =
    emit_heap_access ~free
      ~flags_live:false (* flags are dead at call sites *)
      ~insn ~mem
      ~rebuild:(replace_heap_operand insn)
  in
  let rewrite_insn i insn =
    (match insn with
    | Insn.Call _ | Insn.Jmp _ | Insn.Jcc (_, _) | Insn.Ret
    | Insn.Str (_, _, _) | Insn.Hlt ->
        invalidate ()
    | _ -> invalidate_on_write insn);
    match insn with
    | Insn.Ret when cfi ->
        (* §4.5.1: validate the pending return address before transferring
           control. ECX is dead at a cdecl return. *)
        incr cfi_sites;
        emit
          [
            Program.Ins
              (Insn.Mov (Width.W32, Builder.mem ~base:Reg.ESP 0, Builder.reg Reg.ECX));
            Program.Ins (Insn.Push (Builder.reg Reg.ECX));
            Program.Ins (Insn.Call (Insn.Lbl cfi_symbol));
            Program.Ins (Insn.Alu (Insn.Add, Operand.Imm 4, Builder.reg Reg.ESP));
            Program.Ins Insn.Ret;
          ]
    | Insn.Str (op, width, rep) ->
        incr string_sites;
        let free = free_at i in
        let flags_live = Liveness.flags_live_in live i in
        if flags_live then incr flag_save_sites;
        note_spills ~free
          ~used:(Reg.EAX :: (Insn.regs_read insn @ Insn.regs_written insn));
        emit (Strings_rw.rewrite ~fresh ~free ~flags_live ~op ~width ~rep)
    | Insn.Call (Insn.Ind target) | Insn.Jmp (Insn.Ind target) ->
        incr indirect_sites;
        let is_call = match insn with Insn.Call _ -> true | _ -> false in
        emit (Calls_rw.rewrite ~free:(free_at i) ~is_call ~target ~heap_load)
    | _ -> (
        match heap_operands insn with
        | [] -> emit [ Program.Ins insn ]
        | [ mem ] -> (
            incr heap_sites;
            match try_reuse insn mem with
            | Some (r2, delta) ->
                (* the translated base is still live in r2: the access is
                   just the original instruction through r2+delta (no
                   probe, no flags impact) *)
                incr cached_sites;
                emit
                  [
                    Program.Ins
                      (replace_heap_operand insn
                         (Operand.Mem (Operand.mem ~base:r2 delta)));
                  ];
                invalidate_on_write insn
            | None ->
                let free = free_at i in
                let free =
                  List.filter
                    (fun r ->
                      not (List.exists (Reg.equal r) (cache_avoid ())))
                    free
                in
                let flags_live =
                  Liveness.flags_live_in live i && not (Insn.sets_flags insn)
                in
                if flags_live then incr flag_save_sites;
                note_spills ~free
                  ~used:
                    (cache_avoid ()
                    @ Insn.regs_read insn @ Insn.regs_written insn);
                (match style with
                | Inline_fast_path ->
                    let items, holds =
                      Svm_emit.rewrite_heap_access_into ~fresh ~free ~flags_live
                        ~insn ~mem
                        ~rebuild:(replace_heap_operand insn)
                        ~avoid:(cache_avoid ())
                    in
                    emit items;
                    (match (cache_probes, holds) with
                    | true, Some r2 ->
                        (* r2 holds the translation for [mem]; it stays
                           valid until something clobbers it *)
                        cache := Some (mem, r2);
                        invalidate_on_write insn
                    | _, _ -> invalidate ())
                | Shared_helper ->
                    emit
                      (Svm_emit.rewrite_heap_access_helper ~free ~flags_live
                         ~insn ~mem
                         ~rebuild:(replace_heap_operand insn))))
        | _ :: _ :: _ ->
            raise
              (Rewrite_error
                 (Format.asprintf "two memory operands in: %a" Insn.pp insn)))
  in
  let idx = ref 0 in
  List.iter
    (function
      | Program.Label l ->
          if Symbols.is_reserved l then
            raise (Rewrite_error ("driver defines reserved symbol " ^ l));
          invalidate ();
          emit [ Program.Label l ]
      | Program.Ins insn ->
          (try rewrite_insn !idx insn
           with Svm_emit.Rewrite_error m -> raise (Rewrite_error m));
          incr idx)
    src.Program.items;
  let rewritten =
    Program.source (src.Program.name ^ ".twin") (List.rev !out)
  in
  let stats =
    {
      input_instructions = Program.instruction_count src;
      output_instructions = Program.instruction_count rewritten;
      heap_sites = !heap_sites;
      string_sites = !string_sites;
      indirect_sites = !indirect_sites;
      spill_sites = !spill_sites;
      flag_save_sites = !flag_save_sites;
      cfi_sites = !cfi_sites;
      cached_sites = !cached_sites;
    }
  in
  (rewritten, stats)
