type timer = {
  name : string;
  period : int;
  fn : unit -> unit;
  mutable next_due : int;
  mutable fire_count : int;
  mutable live : bool;  (** false once cancelled or replaced *)
}

(* A handful of timers at most: a list in registration order, looked up
   by name with a linear scan. A tick walks it with a static loop, so it
   builds no closure. *)
type t = { mutable timers : timer list; mutable now : int }

let create () = { timers = []; now = 0 }

let find t name = List.find_opt (fun timer -> timer.name = name) t.timers

let cancel t ~name =
  match find t name with
  | None -> ()
  | Some old ->
      (* a tick already walking the list skips it from here on *)
      old.live <- false;
      t.timers <- List.filter (fun timer -> timer != old) t.timers

let add t ~period ~name fn =
  if period <= 0 then invalid_arg "Timer_wheel.add: period must be positive";
  cancel t ~name;
  t.timers <-
    t.timers
    @ [ { name; period; fn; next_due = t.now + period; fire_count = 0; live = true } ]

let rec fire_due now = function
  | [] -> ()
  | timer :: rest ->
      if timer.live && now >= timer.next_due then begin
        timer.next_due <- now + timer.period;
        timer.fire_count <- timer.fire_count + 1;
        timer.fn ()
      end;
      fire_due now rest

let tick t =
  t.now <- t.now + 1;
  fire_due t.now t.timers

let ticks t = t.now

let fired t ~name =
  match find t name with Some timer -> timer.fire_count | None -> 0
