(* The domain-identity rule: per-domain state in lib/xen and lib/kernel
   is keyed by the domain's int id, and a domain's name is only printed.
   So no [(string, _) Hashtbl.t] type may appear there unless [allowed]
   names it with a reason.

   A table is found by its type: [Hashtbl.t] (or [Stdlib.Hashtbl.t])
   applied to a parenthesised argument list whose first type is
   [string], with comments and string literals skipped. It is named by
   the identifier declared just before its type ([field :], [val v :]
   or [let x :]). A table whose type is never written is not seen.

   Usage: check_string_tables.exe ROOT — exits 1, listing the offenders,
   when a table is not on [allowed], or when an [allowed] entry matches
   no table. *)

(* (file, name, why a string key is right there) *)
let allowed =
  [
    ( "lib/kernel/support.ml",
      "routines",
      "the support-routine registry, keyed by the driver's symbol names \
       and looked up when natives are linked, not per-domain state" );
  ]

let scanned_dirs = [ "lib/xen"; "lib/kernel" ]
let read_file path = In_channel.with_open_bin path In_channel.input_all

let sources root dir =
  let full = Filename.concat root dir in
  if not (Sys.file_exists full) then []
  else
    Sys.readdir full |> Array.to_list |> List.sort compare
    |> List.filter (fun n ->
           Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli")
    |> List.map (Filename.concat dir)

(* [text] with comments (nested) and string literals blanked to spaces,
   so offsets and line numbers are kept *)
let strip text =
  let b = Bytes.of_string text in
  let n = Bytes.length b in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec skip_string i =
    if i >= n then i
    else
      match text.[i] with
      | '"' -> blank i; i + 1
      | '\\' when i + 1 < n -> blank i; blank (i + 1); skip_string (i + 2)
      | _ -> blank i; skip_string (i + 1)
  in
  let rec code i =
    if i < n then
      if text.[i] = '(' && i + 1 < n && text.[i + 1] = '*' then
        code (comment 1 (i + 2) i)
      else if text.[i] = '"' then (
        blank i;
        code (skip_string (i + 1)))
      else code (i + 1)
  and comment depth i start =
    if i >= n then (
      for j = start to n - 1 do blank j done;
      n)
    else if text.[i] = '(' && i + 1 < n && text.[i + 1] = '*' then
      comment (depth + 1) (i + 2) start
    else if text.[i] = '*' && i + 1 < n && text.[i + 1] = ')' then
      if depth = 1 then (
        for j = start to i + 1 do blank j done;
        i + 2)
      else comment (depth - 1) (i + 2) start
    else comment depth (i + 1) start
  in
  code 0;
  Bytes.to_string b

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

let rec back_space s i = if i >= 0 && is_space s.[i] then back_space s (i - 1) else i

(* the identifier before the ':' that precedes offset [i], if any *)
let declared_name s i =
  match String.rindex_from_opt s i ':' with
  | None -> "?"
  | Some c ->
      let e = back_space s (c - 1) in
      let st = ref e in
      while !st >= 0 && is_ident_char s.[!st] do decr st done;
      if e > !st then String.sub s (!st + 1) (e - !st) else "?"

let stdlib = "Stdlib."

let preceded_by s i w =
  let k = String.length w in
  i >= k && String.sub s (i - k) k = w

(* the offset of the '(' matching the ')' at [j] *)
let open_paren s j =
  let depth = ref 1 and p = ref (j - 1) in
  while !p >= 0 && !depth > 0 do
    (match s.[!p] with ')' -> incr depth | '(' -> decr depth | _ -> ());
    if !depth > 0 then decr p
  done;
  !p

(* every [(string, _) Hashtbl.t] in [s]: (offset, declared name) *)
let string_tables s =
  let key = "Hashtbl.t" in
  let k = String.length key in
  let found = ref [] in
  for i = 0 to String.length s - k do
    if
      String.sub s i k = key
      && (i + k = String.length s || not (is_ident_char s.[i + k]))
      && (i = 0 || not (is_ident_char s.[i - 1]))
    then begin
      let start = if preceded_by s i stdlib then i - String.length stdlib else i in
      let j = back_space s (start - 1) in
      let p = if j >= 0 && s.[j] = ')' then open_paren s j else -1 in
      if p >= 0 then begin
        let args = String.sub s (p + 1) (j - p - 1) in
        let first =
          match String.index_opt args ',' with
          | Some c -> String.trim (String.sub args 0 c)
          | None -> ""
        in
        if List.mem first [ "string"; "String.t"; "Stdlib.String.t" ] then
          found := (p, declared_name s (p - 1)) :: !found
      end
    end
  done;
  List.rev !found

let line_of s off =
  let l = ref 1 in
  for i = 0 to off - 1 do if s.[i] = '\n' then incr l done;
  !l

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let tables =
    List.concat_map (sources root) scanned_dirs
    |> List.concat_map (fun path ->
           let s = strip (read_file (Filename.concat root path)) in
           List.map (fun (off, name) -> (path, name, line_of s off)) (string_tables s))
  in
  let is_allowed (path, name, _) =
    List.exists (fun (p, n, _) -> p = path && n = name) allowed
  in
  let offenders = List.filter (fun t -> not (is_allowed t)) tables in
  let stale =
    List.filter
      (fun (p, n, _) -> not (List.exists (fun (p', n', _) -> p = p' && n = n') tables))
      allowed
  in
  List.iter
    (fun (path, name, line) ->
      Printf.printf
        "%s:%d: %s is a (string, _) Hashtbl.t (key per-domain state by \
         Domain.id, or allow-list it with a reason)\n"
        path line name)
    offenders;
  List.iter
    (fun (path, name, _) ->
      Printf.printf "%s: allow-listed table %s is gone; drop the entry\n" path name)
    stale;
  if offenders <> [] || stale <> [] then exit 1
  else
    Printf.printf "stringtables: %d string-keyed tables in %s, all allow-listed\n"
      (List.length tables) (String.concat " and " scanned_dirs)
