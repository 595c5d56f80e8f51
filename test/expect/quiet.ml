(* quiet.exe CMD ARG...: run CMD with its stdout passed straight through
   and its stderr held back. On exit code 0 the held stderr is dropped;
   on any other exit it is printed on stderr, so a failed gate row shows
   under `dune runtest`, and the exit code is passed on. *)

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: quiet.exe CMD [ARG...]";
    exit 2
  end;
  let argv = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout w in
  Unix.close w;
  (* read to EOF before waiting: the child may write more than a pipe
     holds *)
  let held = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes held chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close r;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 2
  in
  if code <> 0 then begin
    prerr_string (Buffer.contents held);
    Printf.eprintf "quiet.exe: %s exited with code %d\n%!"
      (String.concat " " (Array.to_list argv))
      code
  end;
  exit code
