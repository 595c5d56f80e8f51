type entry = { dom : Domain.t; mutable credit : int; mutable slices : int }

(* [entries.(0 .. count - 1)] are the run queue, in no particular order:
   [pick]'s choice depends only on credits and ids. [slot.(id)] is the
   index of domain [id]'s entry, -1 when it has none; it doubles when a
   larger id is added. *)
type t = {
  initial : int;
  mutable entries : entry array;
  mutable count : int;
  mutable slot : int array;
}

let create ?(initial_credit = 100) () =
  { initial = initial_credit; entries = [||]; count = 0; slot = [||] }

let slot_of t id = if id < Array.length t.slot then t.slot.(id) else -1

let add t dom =
  let e = { dom; credit = t.initial; slices = 0 } in
  let id = Domain.id dom in
  let i = slot_of t id in
  if i >= 0 then t.entries.(i) <- e
  else begin
    if t.count = Array.length t.entries then begin
      let grown = Array.make (Int.max 8 (2 * t.count)) e in
      Array.blit t.entries 0 grown 0 t.count;
      t.entries <- grown
    end;
    t.slot <- Domain.cover t.slot ~id (-1);
    t.entries.(t.count) <- e;
    t.slot.(id) <- t.count;
    t.count <- t.count + 1
  end

(* an unknown domain is guest-reachable input (a stale or forged domain
   handle in a scheduling hypercall), so it faults typed and attributed,
   not with a process-killing invalid_arg *)
let find t dom =
  let i = slot_of t (Domain.id dom) in
  if i >= 0 then t.entries.(i)
  else
    Guest_fault.fail ~domain:(Domain.name dom) ~op:"Scheduler.find"
      "unknown domain %d (%s)" (Domain.id dom) (Domain.name dom)

(* the last entry moves into the removed one's index *)
let remove t dom =
  let id = Domain.id dom in
  let i = slot_of t id in
  if i >= 0 then begin
    t.slot.(id) <- -1;
    let last = t.count - 1 in
    if i < last then begin
      let moved = t.entries.(last) in
      t.entries.(i) <- moved;
      t.slot.(Domain.id moved.dom) <- i
    end;
    t.count <- last
  end

let refill t =
  Td_obs.Metrics.bump "sched.refills";
  for i = 0 to t.count - 1 do
    t.entries.(i).credit <- t.initial
  done

(* One pass, no allocation until a domain is picked: the best runnable
   entry (most credit, ties to the lowest id) and the lowest-id runnable
   entry, which is the best after a refill sets every credit equal. *)
let pick t ~runnable env =
  let best = ref (-1) and lowest = ref (-1) in
  for i = 0 to t.count - 1 do
    let e = t.entries.(i) in
    if runnable env e.dom then begin
      let id = Domain.id e.dom in
      (if !best < 0 then best := i
       else
         let b = t.entries.(!best) in
         if e.credit > b.credit || (e.credit = b.credit && id < Domain.id b.dom)
         then best := i);
      if !lowest < 0 || id < Domain.id t.entries.(!lowest).dom then lowest := i
    end
  done;
  if !best < 0 then None
  else begin
    let chosen =
      if t.entries.(!best).credit <= 0 then begin
        refill t;
        t.entries.(!lowest)
      end
      else t.entries.(!best)
    in
    chosen.credit <- chosen.credit - 1;
    chosen.slices <- chosen.slices + 1;
    Td_obs.Metrics.bump "sched.slices";
    Some chosen.dom
  end

let credit t dom = (find t dom).credit
let slices t dom = (find t dom).slices
