(* tdctl — command-line front end to the TwinDrivers framework.

   Subcommands:
     rewrite   derive a hypervisor driver from an assembly file (the
               semi-automatic step of the paper, §5.1)
     bench     run one netperf-like measurement
     metrics   run one measurement and dump the td_obs metric registry
     trace     run one measurement and dump the td_obs trace ring
     inspect   static facts about the bundled e1000 driver
     table1    trace the fast-path support routines *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- rewrite --- *)

let rewrite_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DRIVER.s" ~doc:"Assembly source of the guest OS driver.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT.s"
          ~doc:"Write the hypervisor driver here (default: stdout).")
  in
  let spill =
    Arg.(
      value & flag
      & info [ "spill-everything" ]
          ~doc:"Disable register liveness analysis (always spill).")
  in
  let helper =
    Arg.(
      value & flag
      & info [ "shared-helper" ]
          ~doc:
            "Use the shared __svm_translate helper instead of the inline \
             ten-instruction fast path.")
  in
  let stats_only =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print statistics only.")
  in
  let run input output spill helper stats_only =
    let text = read_file input in
    let style =
      if helper then Some Td_rewriter.Rewrite.Shared_helper else None
    in
    match
      Td_rewriter.Twin.derive ~spill_everything:spill ?style
        (Td_misa.Parser.parse ~name:(Filename.basename input) text)
    with
    | twin ->
        if stats_only then
          Format.printf "%a@." Td_rewriter.Rewrite.pp_stats
            twin.Td_rewriter.Twin.stats
        else begin
          let out = Td_rewriter.Twin.rewritten_text twin in
          (match output with
          | Some path ->
              let oc = open_out path in
              output_string oc out;
              close_out oc;
              Format.eprintf "%a@." Td_rewriter.Rewrite.pp_stats
                twin.Td_rewriter.Twin.stats
          | None -> print_string out)
        end;
        0
    | exception Td_misa.Parser.Syntax_error (line, msg) ->
        Format.eprintf "%s:%d: syntax error: %s@." input line msg;
        1
    | exception Td_rewriter.Rewrite.Rewrite_error msg ->
        Format.eprintf "rewrite error: %s@." msg;
        1
  in
  let doc = "derive a hypervisor driver from guest-OS driver assembly" in
  Cmd.v
    (Cmd.info "rewrite" ~doc)
    Term.(const run $ input $ output $ spill $ helper $ stats_only)

(* --- bench --- *)

let config_conv =
  let parse s =
    match Twindrivers.Config.of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg ("unknown configuration " ^ s))
  in
  Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt (Twindrivers.Config.name c))

let bench_cmd =
  let config =
    Arg.(
      value
      & opt config_conv Twindrivers.Config.Xen_twin
      & info [ "c"; "config" ] ~docv:"CONFIG"
          ~doc:"One of linux, dom0, domU, twin.")
  in
  let direction =
    Arg.(
      value & opt string "tx"
      & info [ "d"; "direction" ] ~docv:"DIR" ~doc:"tx or rx.")
  in
  let packets =
    Arg.(value & opt int 800 & info [ "n"; "packets" ] ~docv:"N" ~doc:"Packets.")
  in
  let nics =
    Arg.(value & opt int 5 & info [ "nics" ] ~docv:"N" ~doc:"NIC count.")
  in
  let run config direction packets nics =
    let w = Twindrivers.World.create ~nics config in
    let r =
      match direction with
      | "rx" -> Twindrivers.Measure.run_receive ~packets w
      | _ -> Twindrivers.Measure.run_transmit ~packets w
    in
    Format.printf "%a@.%a@." Twindrivers.Measure.pp_result r
      Twindrivers.Measure.pp_breakdown r;
    0
  in
  let doc = "run a netperf-like measurement on one configuration" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(const run $ config $ direction $ packets $ nics)

(* --- metrics / trace: run a measurement with observability enabled --- *)

let direction_arg =
  Arg.(
    value & opt string "tx"
    & info [ "d"; "direction" ] ~docv:"DIR" ~doc:"tx or rx.")

let packets_arg =
  Arg.(value & opt int 800 & info [ "n"; "packets" ] ~docv:"N" ~doc:"Packets.")

let nics_arg =
  Arg.(value & opt int 5 & info [ "nics" ] ~docv:"N" ~doc:"NIC count.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of a table.")

let observed_run config direction packets nics =
  Td_obs.Control.enable ();
  let w = Twindrivers.World.create ~nics config in
  match direction with
  | "rx" -> Twindrivers.Measure.run_receive ~packets w
  | _ -> Twindrivers.Measure.run_transmit ~packets w

let metrics_cmd =
  let config =
    Arg.(
      value
      & opt config_conv Twindrivers.Config.Xen_twin
      & info [ "c"; "config" ] ~docv:"CONFIG"
          ~doc:"One of linux, dom0, domU, twin.")
  in
  let run config direction packets nics json =
    let r = observed_run config direction packets nics in
    if json then
      print_string
        (Td_obs.Json.to_string_pretty
           (Td_obs.Json.Obj
              [
                ("config", Td_obs.Json.String (Twindrivers.Config.name config));
                ("direction", Td_obs.Json.String direction);
                ("packets", Td_obs.Json.Int packets);
                ("metrics", Td_obs.Metrics.to_json ());
              ]))
    else begin
      Format.printf "%a@." Twindrivers.Measure.pp_result r;
      Format.printf "%a@." Td_obs.Metrics.pp ()
    end;
    0
  in
  let doc =
    "run one measurement with observability on and dump the metric registry"
  in
  Cmd.v
    (Cmd.info "metrics" ~doc)
    Term.(
      const run $ config $ direction_arg $ packets_arg $ nics_arg $ json_arg)

let trace_cmd =
  let config =
    Arg.(
      value
      & opt config_conv Twindrivers.Config.Xen_twin
      & info [ "c"; "config" ] ~docv:"CONFIG"
          ~doc:"One of linux, dom0, domU, twin.")
  in
  let limit =
    Arg.(
      value & opt int 64
      & info [ "limit" ] ~docv:"K"
          ~doc:"Print only the last K retained records (0 = all).")
  in
  let capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~docv:"N" ~doc:"Resize the trace ring first.")
  in
  let run config direction packets nics json limit capacity =
    match capacity with
    | Some n when n <= 0 ->
        Format.eprintf "tdctl: --capacity must be positive (got %d)@." n;
        1
    | _ ->
    Option.iter Td_obs.Trace.set_capacity capacity;
    ignore (observed_run config direction packets nics);
    if json then print_string (Td_obs.Json.to_string_pretty (Td_obs.Trace.to_json ()))
    else begin
      let records = Td_obs.Trace.records () in
      let retained = List.length records in
      let shown =
        if limit <= 0 || retained <= limit then records
        else
          (* drop the oldest, keep the last [limit] *)
          List.filteri (fun i _ -> i >= retained - limit) records
      in
      List.iter (fun r -> Format.printf "%a@." Td_obs.Trace.pp_record r) shown;
      Format.printf "-- %d of %d retained records shown (%d emitted, ring %d)@."
        (List.length shown) retained (Td_obs.Trace.emitted ())
        (Td_obs.Trace.capacity ())
    end;
    0
  in
  let doc =
    "run one measurement with observability on and dump the trace ring"
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run $ config $ direction_arg $ packets_arg $ nics_arg $ json_arg
      $ limit $ capacity)

(* --- inspect --- *)

let inspect_cmd =
  let run () =
    let source = Td_driver.E1000_driver.source () in
    let twin = Td_rewriter.Twin.derive source in
    Format.printf "bundled driver: %d instructions, %d entry points@."
      (Td_misa.Program.instruction_count source)
      (List.length (Td_misa.Program.entry_points source));
    Format.printf "memory-referencing instructions: %.1f%% (paper: ~25%%)@."
      (100. *. Td_rewriter.Rewrite.memory_reference_fraction source);
    Format.printf "%a@." Td_rewriter.Rewrite.pp_stats twin.Td_rewriter.Twin.stats;
    0
  in
  let doc = "static facts about the bundled e1000-style driver" in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ const ())

(* --- verify --- *)

let verify_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DRIVER.s" ~doc:"Assembly source to inspect.")
  in
  let run input =
    match Td_misa.Parser.parse ~name:input (read_file input) with
    | exception Td_misa.Parser.Syntax_error (line, msg) ->
        Format.eprintf "%s:%d: syntax error: %s@." input line msg;
        1
    | src -> (
        match Td_rewriter.Verifier.inspect src with
        | [] ->
            print_endline "clean: no findings";
            0
        | findings ->
            List.iter
              (fun f ->
                Format.printf "%a@." Td_rewriter.Verifier.pp_finding f)
              findings;
            if Td_rewriter.Verifier.admissible src then 0 else 1)
  in
  let doc = "static inspection of driver code (S4.5 checks)" in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ input)

(* --- disasm --- *)

let disasm_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DRIVER.bin"
          ~doc:"Driver binary (the MISA encoding; see tdctl assemble).")
  in
  let run input =
    match Td_misa.Decode.decode (Bytes.of_string (read_file input)) with
    | src, base ->
        Format.printf "# load address: 0x%x@.%s" base
          (Td_misa.Program.to_string_source src);
        0
    | exception Td_misa.Decode.Malformed msg ->
        Format.eprintf "malformed binary: %s@." msg;
        1
  in
  let doc = "disassemble a driver binary back to rewritable assembly" in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ input)

(* --- assemble --- *)

let assemble_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DRIVER.s" ~doc:"Assembly source.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT.bin" ~doc:"Output binary.")
  in
  let base =
    Arg.(
      value
      & opt int Td_mem.Layout.vm_driver_code_base
      & info [ "base" ] ~docv:"ADDR" ~doc:"Load address.")
  in
  let run input output base =
    match Td_misa.Parser.parse ~name:input (read_file input) with
    | exception Td_misa.Parser.Syntax_error (line, msg) ->
        Format.eprintf "%s:%d: syntax error: %s@." input line msg;
        1
    | src -> (
        match Td_misa.Program.assemble ~base src with
        | exception Td_misa.Program.Unresolved sym ->
            Format.eprintf "unresolved symbol: %s@." sym;
            1
        | prog ->
            let oc = open_out_bin output in
            output_bytes oc (Td_misa.Encode.encode prog);
            close_out oc;
            Format.eprintf "wrote %d bytes@." (Td_misa.Encode.encoded_size prog);
            0)
  in
  let doc = "assemble driver source into the MISA binary encoding" in
  Cmd.v (Cmd.info "assemble" ~doc) Term.(const run $ input $ output $ base)

(* --- profile --- *)

let profile_cmd =
  let packets =
    Arg.(value & opt int 300 & info [ "n"; "packets" ] ~docv:"N" ~doc:"Packets.")
  in
  let run packets =
    let prof = Twindrivers.Experiments.profile_tx ~packets () in
    Format.printf "%a@." Td_cpu.Profiler.pp prof;
    0
  in
  let doc = "per-routine cycle profile of the twin transmit path" in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ packets)

(* --- run: derive a driver and execute an entry point under SVM --- *)

let run_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DRIVER.s" ~doc:"Assembly source of the driver.")
  in
  let entry =
    Arg.(
      required
      & opt (some string) None
      & info [ "e"; "entry" ] ~docv:"LABEL" ~doc:"Entry point to call.")
  in
  let args =
    Arg.(
      value & opt_all int []
      & info [ "a"; "arg" ] ~docv:"N"
          ~doc:
            "Integer argument (repeatable; pushed cdecl). Use --data-arg              for a pointer to fresh dom0 memory.")
  in
  let data_args =
    Arg.(
      value & opt_all int []
      & info [ "d"; "data-arg" ] ~docv:"BYTES"
          ~doc:
            "Allocate BYTES of zeroed dom0 memory and pass its address              (repeatable; data arguments precede integer arguments).")
  in
  let run input entry args data_args =
    let text = read_file input in
    match Td_rewriter.Twin.derive_text ~name:(Filename.basename input) text with
    | exception Td_misa.Parser.Syntax_error (line, msg) ->
        Format.eprintf "%s:%d: syntax error: %s@." input line msg;
        1
    | exception Td_rewriter.Rewrite.Rewrite_error msg ->
        Format.eprintf "rewrite error: %s@." msg;
        1
    | twin -> (
        (* a minimal machine: dom0 + hypervisor + SVM runtime *)
        let phys = Td_mem.Phys_mem.create () in
        let dom0 = Td_mem.Addr_space.create ~name:"dom0" phys in
        Td_mem.Addr_space.heap_init dom0 ~base:Td_mem.Layout.dom0_heap_base
          ~limit:Td_mem.Layout.dom0_heap_limit;
        let xen = Td_mem.Addr_space.create ~name:"xen" phys in
        Td_mem.Addr_space.alloc_region xen
          ~vaddr:
            (Td_mem.Layout.hyp_stack_top
            - (Td_mem.Layout.hyp_stack_pages * Td_mem.Layout.page_size))
          ~pages:Td_mem.Layout.hyp_stack_pages;
        Td_mem.Addr_space.alloc_region xen
          ~vaddr:Td_mem.Layout.hyp_scratch_base ~pages:1;
        let natives = Td_cpu.Native.create () in
        let registry = Td_cpu.Code_registry.create () in
        let svm = Td_svm.Runtime.create_hypervisor ~dom0 ~hyp:xen () in
        Td_svm.Runtime.register_natives svm natives;
        let symbols =
          Td_rewriter.Loader.svm_symbols ~runtime:svm ~natives
            ~stlb_vaddr:Td_mem.Layout.stlb_base
            ~scratch_vaddr:Td_mem.Layout.hyp_scratch_base
        in
        let prog =
          Td_rewriter.Loader.load ~name:"driver.hyp"
            ~source:twin.Td_rewriter.Twin.rewritten
            ~base:Td_mem.Layout.hyp_driver_code_base ~symbols ~registry
        in
        let data_ptrs =
          List.map (fun bytes -> Td_mem.Addr_space.heap_alloc dom0 bytes) data_args
        in
        let guest = Td_mem.Addr_space.create ~name:"guest" phys in
        let st = Td_cpu.State.create ~hyp_space:xen guest in
        Td_cpu.State.set st Td_misa.Reg.ESP Td_mem.Layout.hyp_stack_top;
        let interp = Td_cpu.Interp.create st registry natives in
        match
          Td_cpu.Interp.call ~max_steps:5_000_000 interp
            ~entry:(Td_misa.Program.addr_of_label prog entry)
            ~args:(data_ptrs @ args)
        with
        | result ->
            Format.printf "returned %d (0x%x)@." result result;
            Format.printf
              "cycles: %d; stlb slow paths: %d; dom0 pages mapped: %d@."
              st.Td_cpu.State.cycles
              (Td_svm.Runtime.misses svm)
              (Td_svm.Runtime.pages_mapped svm);
            List.iteri
              (fun i ptr ->
                Format.printf "data-arg %d at 0x%x, first words: %x %x %x %x@."
                  i ptr
                  (Td_mem.Addr_space.read dom0 ptr Td_misa.Width.W32)
                  (Td_mem.Addr_space.read dom0 (ptr + 4) Td_misa.Width.W32)
                  (Td_mem.Addr_space.read dom0 (ptr + 8) Td_misa.Width.W32)
                  (Td_mem.Addr_space.read dom0 (ptr + 12) Td_misa.Width.W32))
              data_ptrs;
            0
        | exception Td_svm.Runtime.Fault { addr; reason } ->
            Format.printf "driver aborted: SVM fault at 0x%x (%s)@." addr reason;
            2
        | exception Td_cpu.Interp.Timeout _ ->
            Format.printf "driver aborted: watchdog timeout@.";
            2
        | exception Td_misa.Program.Unresolved l ->
            Format.eprintf "no such entry point: %s@." l;
            1)
  in
  let doc = "derive a driver and run an entry point in the hypervisor" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ input $ entry $ args $ data_args)

(* --- table1 --- *)

let table1_cmd =
  let run () =
    let t = Twindrivers.Experiments.table1_fast_path () in
    Format.printf "fast-path support routines (Table 1):@.";
    List.iter (Format.printf "  %s@.") t.Twindrivers.Experiments.fast_path_called;
    Format.printf "registry: %d routines; %d exercised across all operations@."
      t.Twindrivers.Experiments.registry_size
      (List.length t.Twindrivers.Experiments.all_called);
    0
  in
  let doc = "trace the support routines used on the error-free fast path" in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ const ())

(* --- faults --- *)

let faults_cmd =
  let policy_conv =
    let parse s =
      match Twindrivers.Config.recovery_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg ("unknown recovery policy " ^ s))
    in
    Arg.conv
      ( parse,
        fun fmt p ->
          Format.pp_print_string fmt (Twindrivers.Config.recovery_name p) )
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Twindrivers.Config.Restart_replay
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Recovery policy: fail-stop, restart or restart-replay.")
  in
  let rate =
    Arg.(
      value & opt float 0.004
      & info [ "r"; "rate" ] ~docv:"RATE"
          ~doc:
            "Fault-rate knob feeding the per-site plan (0 disables \
             injection entirely).")
  in
  let frames =
    Arg.(
      value & opt int 10_000
      & info [ "n"; "frames" ] ~docv:"N" ~doc:"Frames to offer in the soak.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"Deterministic seed: same seed + same workload, same faults.")
  in
  let run policy rate frames seed =
    Td_obs.Control.enable ();
    let p =
      Twindrivers.Experiments.recovery_soak ~frames ~seed ~policy ~rate ()
    in
    let e = p.Twindrivers.Experiments.availability in
    Format.printf "policy            %s@."
      (Twindrivers.Config.recovery_name p.Twindrivers.Experiments.policy);
    Format.printf "fault rate        %g (seed %d)@."
      p.Twindrivers.Experiments.fault_rate seed;
    Format.printf "offered           %d frames@."
      p.Twindrivers.Experiments.offered;
    Format.printf "delivered         %d frames (availability %.4f%%)@."
      p.Twindrivers.Experiments.delivered (100. *. e);
    Format.printf "faults injected   %d@." p.Twindrivers.Experiments.injected;
    if p.Twindrivers.Experiments.aborted + p.Twindrivers.Experiments.refused > 0
    then begin
      Format.printf "tx aborted        %d frames (driver aborted)@."
        p.Twindrivers.Experiments.aborted;
      Format.printf "tx refused        %d frames (NIC quarantined)@."
        p.Twindrivers.Experiments.refused
    end;
    Format.printf "recoveries        %d (mean %s frames to recover)@."
      p.Twindrivers.Experiments.recoveries
      (match p.Twindrivers.Experiments.frames_to_recover with
      | Some f -> Printf.sprintf "%.1f" f
      | None -> "-");
    Format.printf "frames replayed   %d@." p.Twindrivers.Experiments.replayed;
    Format.printf "frames lost       %d@." p.Twindrivers.Experiments.lost;
    Format.printf "guest faults      %d@."
      p.Twindrivers.Experiments.guest_faults;
    if p.Twindrivers.Experiments.contained > 0 then
      Format.printf "other aborts      %d (receive, pump, tick, shutdown)@."
        p.Twindrivers.Experiments.contained;
    (match p.Twindrivers.Experiments.failed with
    | [] -> Format.printf "end state         all NICs serviceable@."
    | failed ->
        List.iteri
          (fun i (nic, reason) ->
            Format.printf "%-18sNIC %d failed: %s@."
              (if i = 0 then "end state" else "")
              nic reason)
          failed);
    if p.Twindrivers.Experiments.failed = [] then 0 else 1
  in
  let doc = "run a fault-injection soak and report the recovery ledger" in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const run $ policy $ rate $ frames $ seed)

let quotas_cmd =
  let ops =
    Arg.(
      value & opt int 20_000
      & info [ "n"; "ops" ] ~docv:"N"
          ~doc:"Adversarial ops to drive before reporting.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"Deterministic seed: same seed, same op stream, same report.")
  in
  let rate =
    Arg.(
      value & opt float 5_000.
      & info [ "r"; "rate" ] ~docv:"PER_S"
          ~doc:
            "Notification-rate cap per domain per simulated second (the \
             other caps come from the defaults).")
  in
  let run ops seed rate =
    let quota =
      { Td_xen.Quota.default_limits with Td_xen.Quota.notifications_per_s = rate }
    in
    let r = Td_adv.Fuzz.run ~seed ~quota ~ops () in
    Format.printf "adversarial ops   %d (seed %d)@." r.Td_adv.Fuzz.ops seed;
    Format.printf "  ok              %d@." r.Td_adv.Fuzz.ok;
    Format.printf "  guest faults    %d@." r.Td_adv.Fuzz.guest_faults;
    Format.printf "  svm faults      %d@." r.Td_adv.Fuzz.svm_faults;
    Format.printf "  quota denials   %d@." r.Td_adv.Fuzz.quota_denials;
    Format.printf "  checksum        0x%x@." r.Td_adv.Fuzz.checksum;
    List.iter
      (fun v -> Format.printf "  VIOLATION       %s@." v)
      r.Td_adv.Fuzz.violations;
    Format.printf "@.%-10s %-18s %8s %10s@." "domain" "resource" "inuse"
      "throttled";
    let q = Option.get r.Td_adv.Fuzz.quota in
    List.iter
      (fun domain ->
        List.iter
          (fun res ->
            let inuse = Td_xen.Quota.inuse q ~domain res in
            let thr = Td_xen.Quota.throttled_for q ~domain res in
            if inuse > 0 || thr > 0 then
              Format.printf "%-10s %-18s %8d %10d@."
                (Td_xen.Domain.name domain)
                (Td_xen.Quota.resource_name res)
                inuse thr)
          Td_xen.Quota.all_resources)
      (Td_xen.Quota.domains q);
    Format.printf "@.total throttled   %d@." (Td_xen.Quota.throttled q);
    if r.Td_adv.Fuzz.violations = [] then 0 else 1
  in
  let doc =
    "drive the adversarial fuzzer against per-domain quotas and report \
     in-use/throttled counters"
  in
  Cmd.v (Cmd.info "quotas" ~doc) Term.(const run $ ops $ seed $ rate)

let () =
  let doc = "TwinDrivers: derive fast and safe hypervisor drivers" in
  let info = Cmd.info "tdctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            rewrite_cmd; bench_cmd; inspect_cmd; table1_cmd; verify_cmd;
            assemble_cmd; disasm_cmd; profile_cmd; run_cmd; metrics_cmd;
            trace_cmd; faults_cmd; quotas_cmd;
          ]))
