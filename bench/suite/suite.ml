(* The benchmark suite's command line.

     suite.exe [--seed N] [--seconds S] [--trace 0|1]
       every workload, each in its own child process, one at a time;
       merged report in BENCH_suite.json (BENCH_suite_trace.json traced)
     suite.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process; the last stdout line is the result
       object {"correct", "attempted", "failed", "metrics"}
     suite.exe compare PARENT_DIR CHANGE_DIR
       medians, quartiles, pair wins and verdicts of two sets of reports

   Exit status is non-zero when any correctness check fails. *)

open Td_suite
module J = Td_obs.Json

let report_file trace = if trace then "BENCH_suite_trace.json" else "BENCH_suite.json"

let write_report ~seed ~seconds ~trace workloads =
  let path = report_file trace in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string_pretty
           (J.Obj
              [
                ("suite", J.String "bench/suite");
                ("schema_version", J.Int 1);
                ("seed", J.Int seed);
                ("seconds", J.Float seconds);
                ("trace", J.Bool trace);
                ("workloads", J.Obj workloads);
              ])));
  Printf.eprintf "[wrote %s]\n%!" path

let run_one (w : Workload.t) ~seed ~seconds ~trace =
  let r = Runner.run w ~seed ~seconds ~scale:1 ~trace in
  Runner.print_lines r;
  write_report ~seed ~seconds ~trace [ (w.name, Runner.to_json r) ];
  print_endline (Runner.result_line r);
  if Runner.correct r then 0 else 1

(* Each workload in a fresh child process, so no workload inherits
   another's heap, caches or counters. The child's metric lines pass
   through; its result line is replaced by the merged summary. *)
let run_all ~seed ~seconds ~trace =
  let results =
    List.map
      (fun (w : Workload.t) ->
        let args =
          [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
             "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
        in
        let path = report_file trace in
        if Sys.file_exists path then Sys.remove path;
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let lines = In_channel.input_all ic |> String.split_on_char '\n' in
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        (match List.rev (List.filter (fun l -> l <> "") lines) with
        | _result :: rest -> List.iter print_endline (List.rev rest)
        | [] -> ());
        flush stdout;
        (* a child that crashed wrote no report *)
        let body =
          if not (Sys.file_exists path) then J.Null
          else
            Option.bind (J.member "workloads" (Json_read.of_file path)) (J.member w.name)
            |> Option.value ~default:J.Null
        in
        (w.name, ok, body))
      Workload.all
  in
  write_report ~seed ~seconds ~trace (List.map (fun (n, _, b) -> (n, b)) results);
  let failed = List.filter (fun (_, ok, _) -> not ok) results in
  List.iter (fun (n, _, _) -> Printf.printf "%s FAILED\n" n) failed;
  Printf.printf "suite: %d workload(s), %s\n" (List.length results)
    (if failed = [] then "all checks passed" else "FAILED");
  if failed = [] then 0 else 1

let usage =
  "suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
   suite.exe compare PARENT_DIR CHANGE_DIR\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; parent; change ] -> exit (Compare.run parent change)
  | _ ->
      let workload = ref None and seed = ref 1 and seconds = ref 10. in
      let trace = ref false in
      let spec =
        [
          ("--workload", Arg.String (fun s -> workload := Some s), "NAME one workload");
          ("--seed", Arg.Set_int seed, "N input seed (default 1)");
          ("--seconds", Arg.Set_float seconds, "S time budget per run (default 10)");
          ( "--trace",
            Arg.Int
              (function
              | 0 -> trace := false
              | 1 -> trace := true
              | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
            "0|1 per-layer traced run" );
        ]
      in
      Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
      let seed = !seed and seconds = !seconds and trace = !trace in
      exit
        (match !workload with
        | None -> run_all ~seed ~seconds ~trace
        | Some name -> (
            match Workload.find name with
            | Some w -> run_one w ~seed ~seconds ~trace
            | None ->
                prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
                2))
