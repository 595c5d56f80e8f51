(* The docs link check: every relative link target in README.md,
   ARCHITECTURE.md, EXPERIMENTS.md, ROADMAP.md and docs/*.md must exist,
   resolved against the directory of the file that links it. Links to
   http://, https:// and mailto: are not checked.

   A link is [text](target) with no ']' in the text; the target ends at
   the first ')', '#' or '?', and a '#' or '?' part runs to the next ')'.
   An empty target (a same-page anchor) is not a link here.

   Usage: check_doclinks.exe ROOT — exits 1, listing the dead links, when
   there is one (the docs_dead_links row of the bound table). *)

let top_docs = [ "README.md"; "ARCHITECTURE.md"; "EXPERIMENTS.md"; "ROADMAP.md" ]

let docs root =
  let in_docs =
    Sys.readdir (Filename.concat root "docs")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.sort compare
    |> List.map (Filename.concat "docs")
  in
  top_docs @ in_docs

(* link targets of [text], in order *)
let targets text =
  let n = String.length text in
  let index_from i c = String.index_from_opt text i c in
  let rec scan i acc =
    match index_from i '[' with
    | None -> List.rev acc
    | Some lb -> (
        match index_from (lb + 1) ']' with
        | Some rb when rb + 1 < n && text.[rb + 1] = '(' -> (
            let start = rb + 2 in
            let stop = ref start in
            while !stop < n && not (String.contains ")#?" text.[!stop]) do
              incr stop
            done;
            let close =
              if !stop = start || !stop >= n then None
              else if text.[!stop] = ')' then Some !stop
              else index_from !stop ')'
            in
            match close with
            | Some c -> scan (c + 1) (String.sub text start (!stop - start) :: acc)
            | None -> scan (lb + 1) acc)
        | Some _ | None -> scan (lb + 1) acc)
  in
  scan 0 []

let external_link t =
  List.exists
    (fun scheme -> String.starts_with ~prefix:scheme t)
    [ "http://"; "https://"; "mailto:" ]

let () =
  let root = Sys.argv.(1) in
  let docs = docs root in
  let dead =
    List.concat_map
      (fun doc ->
        let text =
          In_channel.with_open_bin (Filename.concat root doc) In_channel.input_all
        in
        let base = Filename.dirname doc in
        List.filter_map
          (fun t ->
            let path =
              if Filename.is_relative t then
                Filename.concat root (Filename.concat base t)
              else t
            in
            if external_link t || Sys.file_exists path then None
            else Some (Printf.sprintf "%s: dead relative link -> %s" doc t))
          (targets text))
      docs
  in
  let ok = Gates.report [ Gates.docs_dead_links dead ] in
  Printf.printf "doclinks: checked %d files, %d dead links\n" (List.length docs)
    (List.length dead);
  if not ok then exit 1
