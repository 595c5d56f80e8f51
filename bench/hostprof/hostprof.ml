(* A flat host profile of one benchmark workload: a SIGPROF sampler
   (sampler.c) records the interrupted instruction pointer on every
   process-CPU tick while the workload's chunks run, and each sample is
   attributed to the executable's text symbol (as `nm -n -S` lists them,
   with their sizes) that contains it. Samples in shared libraries, such
   as libc's memcpy, fall outside every symbol.

   Usage: hostprof.exe WORKLOAD [PASSES [TOP]]

   Runs PASSES (default 30) seed-1 passes of a bench/suite workload and
   prints the TOP (default 15) symbols with the largest share of
   samples, then the TOP modules: the same samples summed by the OCaml
   module a symbol belongs to (Td_cpu__Interp, Stdlib__Hashtbl, ...),
   with every C symbol (the runtime, libc, the sampler) under one row.
   The kernel delivers ITIMER_PROF at its tick (4 ms at HZ=250), so a
   twin-tx-mtu pass gives about 100 samples; 30 passes give a few
   thousand. *)

external install : unit -> unit = "hostprof_install"
external timer : int -> unit = "hostprof_timer"
external record : bool -> unit = "hostprof_record"
external anchor : unit -> int = "hostprof_anchor"
external samples : unit -> int array = "hostprof_samples"

let usage () =
  prerr_endline "usage: hostprof.exe WORKLOAD [PASSES [TOP]]";
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
   names read as the source does (see [display_names]). *)
let strip_stamp name =
  match String.rindex_opt name '_' with
  | Some i
    when i + 1 < String.length name
         && String.for_all
              (function '0' .. '9' -> true | _ -> false)
              (String.sub name (i + 1) (String.length name - i - 1)) ->
      String.sub name 0 i
  | _ -> name

(* The name each symbol is listed under: without its stamp, unless
   another symbol strips to the same name — say the generic
   [Hashtbl.find] and a functor instance's [find] — in which case every
   symbol of that name keeps its stamp, so their samples stay apart. *)
let display_names syms =
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun (_, _, name) ->
      let s = strip_stamp name in
      Hashtbl.replace seen s
        (1 + Option.value ~default:0 (Hashtbl.find_opt seen s)))
    syms;
  Array.map
    (fun (a, b, name) ->
      let s = strip_stamp name in
      (a, b, if Hashtbl.find seen s > 1 then name else s))
    syms

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
    if addr < stop then name else outside

let c_symbols = "[C: runtime, libc and stubs]"

(* The module an OCaml symbol belongs to: [camlTd_cpu__Interp.exec_block]
   is in [Td_cpu__Interp], [camlStdlib.min] in [Stdlib]. *)
let module_of sym =
  let prefix = "caml" in
  let p = String.length prefix in
  if
    String.length sym > p
    && String.sub sym 0 p = prefix
    && Char.uppercase_ascii sym.[p] = sym.[p]
    && sym.[p] <> '_'
  then
    match String.index_from_opt sym p '.' with
    | Some i -> String.sub sym p (i - p)
    | None -> String.sub sym p (String.length sym - p)
  else if sym.[0] = '[' then sym
  else c_symbols

(* [counts] as (samples, name), most samples first, ties by name *)
let ranked counts =
  Hashtbl.fold (fun sym n acc -> (n, sym) :: acc) counts []
  |> List.sort (fun (a, x) (b, y) -> if a <> b then compare b a else compare x y)

let print_top ~top ~total rows =
  List.iteri
    (fun i (n, sym) ->
      if i < top then
        Printf.printf "%6.2f%% %6d  %s\n"
          (100. *. float_of_int n /. float_of_int (Int.max 1 total))
          n sym)
    rows

let bump counts key n =
  Hashtbl.replace counts key (n + Option.value ~default:0 (Hashtbl.find_opt counts key))

let () =
  let name, passes, top =
    match Array.to_list Sys.argv with
    | [ _; w ] -> (w, 30, 15)
    | [ _; w; p ] -> (w, int_of_string p, 15)
    | [ _; w; p; t ] -> (w, int_of_string p, int_of_string t)
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
  timer 1000;
  for _ = 1 to passes do
    let p = build () in
    while p.Td_suite.Workload.more () do
      record true;
      ignore (p.Td_suite.Workload.chunk () : int);
      record false
    done;
    let o = p.Td_suite.Workload.finish () in
    List.iter
      (fun (check, ok) ->
        if not ok then Printf.eprintf "hostprof: check %s failed\n" check)
      o.Td_suite.Workload.checks
  done;
  timer 0;
  let syms = display_names (symbols ()) in
  let bias =
    match Array.find_opt (fun (_, _, n) -> n = "hostprof_install") syms with
    | Some (a, _, _) -> anchor () - a
    | None -> failwith "hostprof: anchor symbol not found"
  in
  let counts = Hashtbl.create 256 in
  let s = samples () in
  Array.iter (fun pc -> bump counts (containing syms (pc - bias)) 1) s;
  let total = Array.length s in
  Printf.printf "%s: %d samples over %d passes\n" name total passes;
  print_top ~top ~total (ranked counts);
  let modules = Hashtbl.create 64 in
  Hashtbl.iter (fun sym n -> bump modules (module_of sym) n) counts;
  Printf.printf "by module:\n";
  print_top ~top ~total (ranked modules)
