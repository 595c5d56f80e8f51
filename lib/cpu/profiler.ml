type region = { name : string; mutable cycles : int }

type t = {
  interp : Interp.t;
  regions : (string, region) Hashtbl.t;
  (* per program: qualified region names sorted by start index, the
     prologue before the first label first *)
  label_maps : (string, (int * string) array) Hashtbl.t;
  mutable last_cycles : int;
  mutable current : region option;
}

let label_map (prog : Td_misa.Program.t) =
  let qualify l = prog.Td_misa.Program.name ^ ":" ^ l in
  Hashtbl.fold
    (fun l idx acc -> (idx, qualify l) :: acc)
    prog.Td_misa.Program.label_index
    [ (-1, qualify "<prologue>") ]
  |> List.sort compare |> Array.of_list

(* position of the innermost label at or before [idx] *)
let enclosing map idx =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if fst map.(mid) <= idx then go mid hi else go lo (mid - 1)
  in
  go 0 (Array.length map - 1)

let region t name =
  match Hashtbl.find_opt t.regions name with
  | Some r -> r
  | None ->
      let r = { name; cycles = 0 } in
      Hashtbl.replace t.regions name r;
      r

(* charge the cycles spent since the last settlement to the region that
   was executing *)
let settle t =
  let now = (Interp.state t.interp).State.cycles in
  (match t.current with
  | Some r -> r.cycles <- r.cycles + (now - t.last_cycles)
  | None -> ());
  t.last_cycles <- now

let attach interp =
  let t =
    {
      interp;
      regions = Hashtbl.create 64;
      label_maps = Hashtbl.create 8;
      last_cycles = (Interp.state interp).State.cycles;
      current = None;
    }
  in
  (* every block ends before the next label start, so all of its cycles
     belong to the region it starts in *)
  Interp.observe_blocks interp (fun _ prog idx ->
      settle t;
      let pname = prog.Td_misa.Program.name in
      let map =
        match Hashtbl.find_opt t.label_maps pname with
        | Some m -> m
        | None ->
            let m = label_map prog in
            Hashtbl.replace t.label_maps pname m;
            m
      in
      let k = enclosing map idx in
      t.current <- Some (region t (snd map.(k)));
      if k + 1 < Array.length map then fst map.(k + 1) - 1 else max_int);
  t

let cycles_by_label t =
  settle t;
  Hashtbl.fold (fun _ r acc -> (r.name, r.cycles) :: acc) t.regions []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let total_cycles t =
  settle t;
  Hashtbl.fold (fun _ r acc -> acc + r.cycles) t.regions 0

let reset t =
  Hashtbl.reset t.regions;
  t.current <- None;
  t.last_cycles <- (Interp.state t.interp).State.cycles

let publish t =
  List.iter
    (fun (name, cycles) ->
      Td_obs.Metrics.set
        (Td_obs.Metrics.gauge ("profile.cycles." ^ name))
        (float_of_int cycles))
    (cycles_by_label t)

let pp fmt t =
  let total = Int.max 1 (total_cycles t) in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (name, cycles) ->
      if i < 12 && cycles > 0 then
        Format.fprintf fmt "%-44s %10d  %5.1f%%@," name cycles
          (100.0 *. float_of_int cycles /. float_of_int total))
    (cycles_by_label t);
  Format.fprintf fmt "@]"
