(* A flat host profile of one benchmark workload: a SIGPROF sampler
   (sampler.c) records the interrupted instruction pointer on every
   process-CPU tick while the workload's chunks run, and each sample is
   attributed to the executable's text symbol (as `nm -n -S` lists them,
   with their sizes) that contains it. Samples in shared libraries, such
   as libc's memcpy, fall outside every symbol.

   Usage: hostprof.exe WORKLOAD [PASSES]

   Runs PASSES (default 30) seed-1 passes of a bench/suite workload and
   prints the 15 symbols with the largest share of samples. The kernel
   delivers ITIMER_PROF at its tick (4 ms at HZ=250), so a twin-tx-mtu
   pass gives about 100 samples; 30 passes give a few thousand. *)

external install : unit -> unit = "hostprof_install"
external timer : int -> unit = "hostprof_timer"
external anchor : unit -> int = "hostprof_anchor"
external samples : unit -> int array = "hostprof_samples"

let usage () =
  prerr_endline "usage: hostprof.exe WORKLOAD [PASSES]";
  exit 2

(* Sized text symbols of the running executable, as (start, end, name)
   sorted by start. *)
let symbols () =
  let ic =
    Unix.open_process_args_in "nm" [| "nm"; "-n"; "-S"; Sys.executable_name |]
  in
  let hex s = int_of_string ("0x" ^ s) in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ addr; size; ("t" | "T"); name ] ->
            go ((hex addr, hex addr + hex size, name) :: acc)
        | _ -> go acc)
    | exception End_of_file -> List.rev acc
  in
  let syms = Array.of_list (go []) in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "hostprof: nm failed");
  syms

(* OCaml appends a unique stamp to every function symbol; drop it so the
   names read as the source does. *)
let strip_stamp name =
  match String.rindex_opt name '_' with
  | Some i
    when i + 1 < String.length name
         && String.for_all
              (function '0' .. '9' -> true | _ -> false)
              (String.sub name (i + 1) (String.length name - i - 1)) ->
      String.sub name 0 i
  | _ -> name

(* The symbol containing [addr]: the last one starting at or below it,
   if [addr] is before its end. *)
let containing syms addr =
  let start (a, _, _) = a in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if start syms.(mid) <= addr then go mid hi else go lo (mid - 1)
  in
  let outside = "[outside the executable's symbols]" in
  if Array.length syms = 0 || addr < start syms.(0) then outside
  else
    let _, stop, name = syms.(go 0 (Array.length syms - 1)) in
    if addr < stop then strip_stamp name else outside

let () =
  let name, passes =
    match Array.to_list Sys.argv with
    | [ _; w ] -> (w, 30)
    | [ _; w; p ] -> (w, int_of_string p)
    | _ -> usage ()
  in
  let w =
    match Td_suite.Workload.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "hostprof: unknown workload %s\n" name;
        exit 2
  in
  let build = w.Td_suite.Workload.prepare ~seed:1 ~scale:1 in
  install ();
  for _ = 1 to passes do
    let p = build () in
    while p.Td_suite.Workload.more () do
      timer 1000;
      ignore (p.Td_suite.Workload.chunk () : int);
      timer 0
    done;
    let o = p.Td_suite.Workload.finish () in
    List.iter
      (fun (check, ok) ->
        if not ok then Printf.eprintf "hostprof: check %s failed\n" check)
      o.Td_suite.Workload.checks
  done;
  let syms = symbols () in
  let bias =
    match Array.find_opt (fun (_, _, n) -> n = "hostprof_install") syms with
    | Some (a, _, _) -> anchor () - a
    | None -> failwith "hostprof: anchor symbol not found"
  in
  let counts = Hashtbl.create 256 in
  let s = samples () in
  Array.iter
    (fun pc ->
      let sym = containing syms (pc - bias) in
      Hashtbl.replace counts sym
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts sym)))
    s;
  let total = Array.length s in
  Printf.printf "%s: %d samples over %d passes\n" name total passes;
  Hashtbl.fold (fun sym n acc -> (n, sym) :: acc) counts []
  |> List.sort (fun (a, x) (b, y) -> if a <> b then compare b a else compare x y)
  |> List.iteri (fun i (n, sym) ->
         if i < 15 then
           Printf.printf "%6.2f%% %6d  %s\n"
             (100. *. float_of_int n /. float_of_int (max 1 total))
             n sym)
