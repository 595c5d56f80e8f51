(* The metric-name check: the names in docs/METRICS.md's tables must
   equal the names lib/ registers, in both directions.

   Documented names are the backquoted names in the first cell of each
   table row, with [a.{b,c}] expanded to [a.b] and [a.c]; a row may list
   several names separated by " / ".

   Registered names are the string literals lib/*/*.ml passes to
   [Metrics.bump], [bump_by], [counter], [gauge] or [histogram]: directly,
   through [Printf.sprintf], or as the prefix of a [^]. A name passed
   through a variable X is found where X gets its literal: a labelled
   argument [~X:"..."], a call ["F" "..."] of a local [let F ... X ... =],
   or the literals of [let X = [| ... |]].

   A placeholder ([<site>] in the docs, [%s] or a [^] suffix in the
   code) compares as [<>]. Usage: check_metric_names.exe ROOT — exits 1,
   listing every name found on one side only. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then ml_files p
         else if Filename.check_suffix f ".ml" then [ p ]
         else [])

(* [f ()] at every match of [re] in [text]; [f] reads its groups first *)
let all_matches re text f =
  let rec go i acc =
    match Str.search_forward re text i with
    | exception Not_found -> List.rev acc
    | j ->
        let stop = Str.match_end () in
        let v = f () in
        go (if stop = j then stop + 1 else stop) (v :: acc)
  in
  go 0 []

let placeholder = Str.regexp "<[^>]*>\\|%[a-z]"
let normalise name = Str.global_replace placeholder "<>" name

(* ---- documented names ---- *)

let braces = Str.regexp "{\\([^}]*\\)}"

let rec expand name =
  match Str.search_forward braces name 0 with
  | _ ->
      let pre = Str.string_before name (Str.match_beginning ()) in
      let post = Str.string_after name (Str.match_end ()) in
      String.split_on_char ',' (Str.matched_group 1 name)
      |> List.concat_map (fun alt -> expand (pre ^ String.trim alt ^ post))
  | exception Not_found -> [ name ]

let backquoted = Str.regexp "`\\([^`]*\\)`"

let doc_names text =
  String.split_on_char '\n' text
  |> List.concat_map (fun line ->
         match String.split_on_char '|' line with
         | "" :: first :: _ :: _ when String.starts_with ~prefix:"|" line ->
             all_matches backquoted first (fun () ->
                 Str.matched_group 1 first)
             |> List.concat_map expand
         | _ -> [])
  |> List.map normalise

(* ---- registered names ---- *)

let ident = "\\([a-z_][A-Za-z0-9_']*\\)"

let call =
  Str.regexp
    ("Metrics\\.\\(bump_by\\|bump\\|counter\\|gauge\\|histogram\\)[ \t\n(]+"
   ^ "\\(Printf\\.sprintf[ \t\n]+\\)?\\(\"\\([^\"]*\\)\"\\([ \t\n]*\\^\\)?\\|"
   ^ ident ^ "\\)")

let literal = Str.regexp "\"\\([^\"]*\\)\""
let literals text = all_matches literal text (fun () -> Str.matched_group 1 text)
let group n text = try Some (Str.matched_group n text) with Not_found -> None

(* the literals a variable [x] forwarded to a registration call takes *)
let forwarded text x =
  let labelled =
    all_matches (Str.regexp ("~" ^ x ^ ":\"\\([^\"]*\\)\"")) text (fun () ->
        Str.matched_group 1 text)
  in
  let helpers =
    all_matches
      (Str.regexp ("let " ^ ident ^ " \\([^=]*\\)="))
      text
      (fun () -> (Str.matched_group 1 text, Str.matched_group 2 text))
    |> List.filter (fun (_, params) ->
           List.mem x (String.split_on_char ' ' params))
    |> List.concat_map (fun (f, _) ->
           all_matches
             (Str.regexp ("[^A-Za-z0-9_.']" ^ f ^ "[ \t\n]+\"\\([^\"]*\\)\""))
             text
             (fun () -> Str.matched_group 1 text))
  in
  let arrays =
    all_matches
      (Str.regexp ("let " ^ x ^ " =[ \t\n]*\\[|\\([^|]*\\)|\\]"))
      text
      (fun () -> Str.matched_group 1 text)
    |> List.concat_map literals
  in
  labelled @ helpers @ arrays

let code_names text =
  all_matches call text (fun () ->
      match (group 4 text, group 6 text) with
      | Some name, _ ->
          [ (if group 5 text = None then name else name ^ "<>") ]
      | None, Some x -> forwarded text x
      | None, None -> [])
  |> List.concat |> List.map normalise

let () =
  let root = Sys.argv.(1) in
  let documented =
    List.sort_uniq compare (doc_names (read (Filename.concat root "docs/METRICS.md")))
  in
  let registered =
    ml_files (Filename.concat root "lib")
    |> List.filter (fun f -> Filename.basename f <> "metrics.ml")
    |> List.concat_map (fun f -> code_names (read f))
    |> List.sort_uniq compare
  in
  let missing from names =
    List.filter (fun n -> not (List.mem n from)) names
  in
  let undocumented = missing documented registered in
  let unregistered = missing registered documented in
  List.iter (Printf.printf "registered in lib/ but not in docs/METRICS.md: %s\n")
    undocumented;
  List.iter (Printf.printf "in docs/METRICS.md but not registered in lib/: %s\n")
    unregistered;
  Printf.printf "metricnames: %d documented, %d registered, %d mismatched\n"
    (List.length documented) (List.length registered)
    (List.length undocumented + List.length unregistered);
  if undocumented <> [] || unregistered <> [] then exit 1
