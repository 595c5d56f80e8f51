type region = { name : string; mutable cycles : int }

type t = {
  interp : Interp.t;
  regions : (string, region) Hashtbl.t;
  (* per program: label starts sorted by instruction index *)
  label_maps : (string, (int * string) array) Hashtbl.t;
  mutable last_cycles : int;
  mutable current : region option;
}

let label_map (prog : Td_misa.Program.t) =
  Hashtbl.fold (fun l idx acc -> (idx, l) :: acc) prog.Td_misa.Program.label_index []
  |> List.sort compare |> Array.of_list

(* innermost label at or before [idx] *)
let enclosing map idx =
  let n = Array.length map in
  let rec go lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let start, name = map.(mid) in
      if start <= idx then go (mid + 1) hi (Some name) else go lo (mid - 1) best
  in
  go 0 (n - 1) None

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
  let hook (st : State.t) _insn =
    (* charge the cycles spent since the previous step to the region that
       was executing *)
    (match t.current with
    | Some r -> r.cycles <- r.cycles + (st.State.cycles - t.last_cycles)
    | None -> ());
    t.last_cycles <- st.State.cycles;
    match Code_registry.find (Interp.registry t.interp) st.State.pc with
    | None -> t.current <- None
    | Some prog ->
        let pname = prog.Td_misa.Program.name in
        let map =
          match Hashtbl.find_opt t.label_maps pname with
          | Some m -> m
          | None ->
              let m = label_map prog in
              Hashtbl.replace t.label_maps pname m;
              m
        in
        let idx = Td_misa.Program.index_of_addr prog st.State.pc in
        let label =
          match enclosing map idx with Some l -> l | None -> "<prologue>"
        in
        let qualified = pname ^ ":" ^ label in
        let region =
          match Hashtbl.find_opt t.regions qualified with
          | Some r -> r
          | None ->
              let r = { name = qualified; cycles = 0 } in
              Hashtbl.replace t.regions qualified r;
              r
        in
        t.current <- Some region
  in
  Interp.add_hook interp hook;
  t

let cycles_by_label t =
  Hashtbl.fold (fun _ r acc -> (r.name, r.cycles) :: acc) t.regions []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let total_cycles t =
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
  let total = max 1 (total_cycles t) in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (name, cycles) ->
      if i < 12 && cycles > 0 then
        Format.fprintf fmt "%-44s %10d  %5.1f%%@," name cycles
          (100.0 *. float_of_int cycles /. float_of_int total))
    (cycles_by_label t);
  Format.fprintf fmt "@]"
