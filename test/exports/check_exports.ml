(* The export rule: every [val] declared in a library interface
   (lib/<library>/<module>.mli) is named somewhere outside its own module
   — in another module of lib/, or in bin/, bench/, examples/ or test/.

   A use is the name as a whole word (a maximal run of identifier
   characters) in any .ml or .mli file other than the module's own pair.
   That over-counts: a comment, a record field or a same-named value
   elsewhere all count. So the check can miss an unused export, but it
   never flags a used one.

   Usage: check_exports.exe ROOT — exits 1, listing the offenders, when
   an export has no user and is not on [allowed], or when an [allowed]
   entry has a user after all. *)

(* (interface, value, why it stays exported with no user) *)
let allowed : (string * string * string) list = []
let scanned_dirs = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* .ml/.mli files under [dir], as paths relative to [root], sorted *)
let rec sources root dir =
  let full = Filename.concat root dir in
  if not (Sys.file_exists full && Sys.is_directory full) then []
  else
    Sys.readdir full |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let rel = Filename.concat dir name in
           if Sys.is_directory (Filename.concat root rel) then
             if name = "_build" || name.[0] = '.' then [] else sources root rel
           else if
             Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
           then [ rel ]
           else [])

let iter_words text f =
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_ident_char text.[!i] then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      f (String.sub text start (!i - start))
    end
    else incr i
  done

(* names declared by [val name :] lines, operators excluded *)
let declared_vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line > 4 && String.sub line 0 4 = "val " then
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           let len = ref 0 in
           while !len < String.length rest && is_ident_char rest.[!len] do
             incr len
           done;
           if !len > 0 then Some (String.sub rest 0 !len) else None
         else None)

let module_of path = Filename.remove_extension path

(* a library interface sits exactly one directory below lib/ *)
let is_library_interface path =
  Filename.check_suffix path ".mli"
  && Filename.dirname (Filename.dirname path) = "lib"

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files = List.concat_map (sources root) scanned_dirs in
  (* word -> modules (path without extension) whose text contains it *)
  let users : (string, string list) Hashtbl.t = Hashtbl.create 65536 in
  let texts = Hashtbl.create 512 in
  List.iter
    (fun path ->
      let text = read_file (Filename.concat root path) in
      Hashtbl.replace texts path text;
      let m = module_of path in
      iter_words text (fun w ->
          match Hashtbl.find_opt users w with
          | Some (m' :: _) when m' = m -> ()
          | Some ms -> Hashtbl.replace users w (m :: ms)
          | None -> Hashtbl.replace users w [ m ]))
    files;
  let decls =
    List.filter is_library_interface files
    |> List.map (fun mli ->
           (mli, List.sort_uniq compare (declared_vals (Hashtbl.find texts mli))))
  in
  let unused =
    List.concat_map
      (fun (mli, vals) ->
        let own = module_of mli in
        List.filter
          (fun v ->
            Hashtbl.find_opt users v
            |> Option.value ~default:[]
            |> List.for_all (fun m -> m = own))
          vals
        |> List.map (fun v -> (mli, v)))
      decls
  in
  let is_allowed (mli, v) =
    List.exists (fun (m, v', _) -> m = mli && v' = v) allowed
  in
  let offenders = List.filter (fun e -> not (is_allowed e)) unused in
  let stale =
    List.filter (fun (m, v, _) -> not (List.mem (m, v) unused)) allowed
  in
  List.iter
    (fun (mli, v) ->
      Printf.printf
        "%s: val %s has no user outside its module (delete it, make it \
         private, or allow-list it with a reason)\n"
        mli v)
    offenders;
  List.iter
    (fun (mli, v, _) ->
      Printf.printf "%s: allow-listed val %s is used now; drop the entry\n"
        mli v)
    stale;
  let n_vals =
    List.fold_left (fun acc (_, vals) -> acc + List.length vals) 0 decls
  in
  if offenders <> [] || stale <> [] then exit 1
  else
    Printf.printf "exports: %d vals in lib/*/*.mli, %d allow-listed, all used\n"
      n_vals (List.length allowed)
