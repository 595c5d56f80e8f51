(* Deterministic job runner for the sharded simulation: an array of
   independent jobs either runs in order on the calling domain
   (shards <= 1) or is spread round-robin over [shards] OCaml domains.
   Job i's result lands in slot i and joins happen in index order, so
   the caller sees identical results — and, because the jobs themselves
   are deterministic and share no mutable state, identical side effects —
   whichever path ran.

   Observability is the one process-global the jobs would otherwise
   race on (the metric registry is an unsynchronised Hashtbl): it is
   switched off around the whole run — in BOTH paths, so the sequential
   engine stays bit-identical to the parallel one — and restored after.
   The fault and quota engines are plain values owned by each world and
   handed to its components, so jobs confined to their own world race
   on neither. *)

(* NOTE: Stdlib.Domain (OCaml 5 threading domains), not Td_xen.Domain. *)

let available_parallelism () = Stdlib.Domain.recommended_domain_count ()

let run (type a) ~shards (jobs : (unit -> a) array) : a array =
  let n = Array.length jobs in
  let obs_was = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  Fun.protect
    ~finally:(fun () -> if obs_was then Td_obs.Control.enable ())
    (fun () ->
      if shards <= 1 || n <= 1 then Array.map (fun job -> job ()) jobs
      else begin
        let workers = min shards n in
        let results : a option array = Array.make n None in
        let worker w () =
          let i = ref w in
          while !i < n do
            results.(!i) <- Some (jobs.(!i) ());
            i := !i + workers
          done
        in
        let handles =
          Array.init workers (fun w -> Stdlib.Domain.spawn (worker w))
        in
        Array.iter Stdlib.Domain.join handles;
        Array.map Option.get results
      end)
