(* The per-world state rule: a world's engines, counters and tables
   belong to the world, so two worlds in one process — sequential,
   sharded or in a fleet — never see each other's state. A top-level
   binding in lib/ whose value makes a mutable cell (a [ref],
   [Atomic.make], [Hashtbl.create], [Array.make], [Bytes.make] or
   [Bytes.create], [Queue.create], [Mutex.create]) is state every world
   in the process shares, so it must be on [allowed] with a reason.

   Each lib/**/*.ml is parsed with the compiler's own parser. A binding
   counts when it sits at the top of the file or of a nested [struct],
   and when one of those calls appears in its value outside any [fun] or
   [function] (a function's body allocates per call, not once).

   Usage: check_globals.exe ROOT — exits 1, listing the offenders, when
   a global is not on [allowed], or when an [allowed] entry matches no
   global. *)

(* (file, binding, why it is process-wide) *)
let allowed =
  [
    ( "lib/obs/metrics.ml",
      "registry",
      "the observability sink; moves into a per-world context with the \
       suite's traced pass" );
    ( "lib/obs/control.ml",
      "on",
      "the TD_OBS switch of the observability sink; moves with it" );
    ( "lib/obs/trace.ml",
      "ring",
      "the observability trace ring; moves with the sink" );
    ( "lib/core/shard.ml",
      "claimed",
      "the helper-domain pool is a process resource; the run that holds \
       the claim owns it" );
    ("lib/core/shard.ml", "helpers", "the process's helper domains");
    ("lib/core/shard.ml", "spawned", "helper domains spawned by the process");
    ( "lib/mem/phys_mem.ml",
      "zero",
      "identity sentinel: the shared never-written page, never written" );
    ( "lib/mem/addr_space.ml",
      "empty_leaf",
      "identity sentinel: the shared unmapped page-table leaf, never \
       written" );
  ]

let constructors =
  [
    "ref";
    "Atomic.make";
    "Hashtbl.create";
    "Array.make";
    "Bytes.make";
    "Bytes.create";
    "Queue.create";
    "Mutex.create";
  ]

let makes_state lid =
  let name = String.concat "." (Longident.flatten lid) in
  let name =
    let p = "Stdlib." in
    let k = String.length p in
    if String.length name > k && String.sub name 0 k = p then
      String.sub name k (String.length name - k)
    else name
  in
  List.mem name constructors

(* does [e] call a constructor outside any function body? *)
let allocates e =
  let found = ref false in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> ()
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when makes_state txt ->
        found := true
    | _ -> default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

let rec bound_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> bound_name p
  | _ -> None

(* the names of [items]' state-making bindings, [prefix]ed with the
   nested module path *)
let rec globals prefix (items : Parsetree.structure) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun (vb : Parsetree.value_binding) ->
              match bound_name vb.pvb_pat with
              | Some name when allocates vb.pvb_expr ->
                  Some (prefix ^ name, vb.pvb_loc.loc_start.pos_lnum)
              | _ -> None)
            vbs
      | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } ->
          module_globals (prefix ^ m ^ ".") pmb_expr
      | _ -> [])
    items

and module_globals prefix (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure items -> globals prefix items
  | Pmod_constraint (me, _) -> module_globals prefix me
  | _ -> []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec sources root dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun n ->
         let rel = Filename.concat dir n in
         if Sys.is_directory (Filename.concat root rel) then sources root rel
         else if Filename.check_suffix n ".ml" then [ rel ]
         else [])

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let found =
    sources root "lib"
    |> List.concat_map (fun path ->
           let lexbuf = Lexing.from_string (read_file (Filename.concat root path)) in
           Lexing.set_filename lexbuf path;
           globals "" (Parse.implementation lexbuf)
           |> List.map (fun (name, line) -> (path, name, line)))
  in
  let is_allowed (path, name, _) =
    List.exists (fun (p, n, _) -> p = path && n = name) allowed
  in
  let offenders = List.filter (fun g -> not (is_allowed g)) found in
  let stale =
    List.filter
      (fun (p, n, _) -> not (List.exists (fun (p', n', _) -> p = p' && n = n') found))
      allowed
  in
  List.iter
    (fun (path, name, line) ->
      Printf.printf
        "%s:%d: %s is process-global mutable state (give it to the world, \
         or allow-list it with a reason)\n"
        path line name)
    offenders;
  List.iter
    (fun (path, name, _) ->
      Printf.printf "%s: allow-listed global %s is gone; drop the entry\n" path name)
    stale;
  if offenders <> [] || stale <> [] then exit 1
  else
    Printf.printf "globals: %d process-global cells in lib/, all allow-listed\n"
      (List.length found)
