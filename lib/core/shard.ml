(* Deterministic job runner for the sharded simulation: an array of
   independent jobs either runs in order on the calling domain
   (shards <= 1) or is spread round-robin over [min shards n] workers —
   the caller is worker 0 and runs jobs 0, w, 2w, ...; helper k runs
   k, k+w, .... Job i's result (or exception) lands in slot i and the
   caller reads the slots in index order once every worker is done, so
   it sees identical results — and, because the jobs themselves are
   deterministic and share no mutable state, identical side effects —
   whichever path ran.

   The helpers are OCaml domains kept for the life of the process and
   grown lazily to the largest [min shards n - 1] asked for so far.
   Between runs each one blocks on its own condition variable, so a
   run hands a helper its share of the jobs without spawning or joining
   a domain. One run owns the helpers at a time: a nested run (from
   inside a job) or a concurrent one (from another domain) finds them
   claimed and runs its jobs in order on its own domain, which the
   contract already makes result-identical.

   Observability is the one process-global the jobs would otherwise
   race on (the metric registry is an unsynchronised Hashtbl): it is
   switched off around the whole run — in BOTH paths, so the sequential
   engine stays bit-identical to the parallel one — and restored after.
   The fault and quota engines are plain values owned by each world and
   handed to its components, so jobs confined to their own world race
   on neither. *)

(* NOTE: Stdlib.Domain (OCaml 5 threading domains), not Td_xen.Domain. *)

let available_parallelism () = Stdlib.Domain.recommended_domain_count ()

(* A helper's mailbox: [task] is set by the owner of the pool and taken
   by the helper, both under [lock]. *)
type helper = {
  lock : Mutex.t;
  posted : Condition.t;
  mutable task : (unit -> unit) option;
}

(* Counts a run's outstanding helpers down to zero. *)
type latch = { l_lock : Mutex.t; l_done : Condition.t; mutable left : int }

let rec serve h =
  Mutex.lock h.lock;
  while Option.is_none h.task do
    Condition.wait h.posted h.lock
  done;
  let task = Option.get h.task in
  h.task <- None;
  Mutex.unlock h.lock;
  (* A task stores its jobs' exceptions in their slots; nothing may end
     the loop, or the next run posting here would wait forever. *)
  (try task () with _ -> ());
  serve h

(* Only the run that holds [claimed] reads or grows [helpers]. *)
let claimed = Atomic.make false
let helpers : helper array ref = ref [||]
let spawned = Atomic.make 0

(* One at a time, so a failed spawn keeps the helpers already started. *)
let grow_helpers k =
  while Array.length !helpers < k do
    let h =
      { lock = Mutex.create (); posted = Condition.create (); task = None }
    in
    ignore (Stdlib.Domain.spawn (fun () -> serve h));
    Atomic.incr spawned;
    helpers := Array.append !helpers [| h |]
  done

let helpers_spawned () = Atomic.get spawned

let post h task =
  Mutex.lock h.lock;
  h.task <- Some task;
  Condition.signal h.posted;
  Mutex.unlock h.lock

let release l =
  Mutex.lock l.l_lock;
  l.left <- l.left - 1;
  if l.left = 0 then Condition.signal l.l_done;
  Mutex.unlock l.l_lock

let await l =
  Mutex.lock l.l_lock;
  while l.left > 0 do
    Condition.wait l.l_done l.l_lock
  done;
  Mutex.unlock l.l_lock

let parallel (type a) ~workers (jobs : (unit -> a) array) : a array =
  let n = Array.length jobs in
  let slots : (a, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let worker w () =
    let i = ref w in
    while !i < n do
      (slots.(!i) <-
         Some
           (match jobs.(!i) () with
           | v -> Ok v
           | exception e -> Error (e, Printexc.get_raw_backtrace ())));
      i := !i + workers
    done
  in
  grow_helpers (workers - 1);
  let latch =
    { l_lock = Mutex.create (); l_done = Condition.create (); left = workers - 1 }
  in
  for k = 1 to workers - 1 do
    post !helpers.(k - 1) (fun () ->
        Fun.protect ~finally:(fun () -> release latch) (worker k))
  done;
  worker 0 ();
  await latch;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    slots

let run ~shards jobs =
  let n = Array.length jobs in
  let obs_was = Td_obs.Control.enabled () in
  Td_obs.Control.disable ();
  Fun.protect
    ~finally:(fun () -> if obs_was then Td_obs.Control.enable ())
    (fun () ->
      if shards <= 1 || n <= 1 || not (Atomic.compare_and_set claimed false true)
      then Array.map (fun job -> job ()) jobs
      else
        Fun.protect
          ~finally:(fun () -> Atomic.set claimed false)
          (fun () -> parallel ~workers:(Int.min shards n) jobs))
