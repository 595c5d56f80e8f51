(* [suite.exe compare PARENT_DIR CHANGE_DIR]: each directory holds one
   untraced report per run (BENCH_suite.json files renamed, one per
   seed or repetition). For every workload and end-to-end metric this
   prints each side's median and quartiles, the bound, the share of
   (parent, change) pairs the change wins — the i-th file of one side
   against the i-th of the other, in name order — and a verdict by the
   rule of the choosing-metrics guide:

   - better: the change wins at least nine tenths of the pairs, ties
     counting for neither, and the medians differ by more than the
     parent's own quartile distance;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - unresolved: not worse by the bound, but the parent's own spread is
     wider than the bound and the change does not read better than the
     parent on every run;
   - unchanged: otherwise. *)

module J = Td_obs.Json

(* workload -> metric -> value, for one report file *)
let read_report path =
  let workloads =
    match J.member "workloads" (Json_read.of_file path) with
    | Some (J.Obj ws) -> ws
    | _ -> failwith (path ^ ": not a suite report (no \"workloads\")")
  in
  List.map
    (fun (w, body) ->
      let metrics =
        match J.member "metrics" body with Some (J.Obj ms) -> ms | _ -> []
      in
      ( w,
        List.filter_map
          (fun (m, v) ->
            Option.bind (J.member "value" v) Json_read.to_float
            |> Option.map (fun x -> (m, x)))
          metrics ))
    workloads

let reports_in dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f -> read_report (Filename.concat dir f))

let values reports ~workload ~metric =
  List.filter_map
    (fun r -> Option.bind (List.assoc_opt workload r) (List.assoc_opt metric))
    reports
  |> Array.of_list

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [gain x y] > 0 when [y] is better than [x] *)
let judge ~(better : Catalog.better) ~bound parent change =
  let gain x y = match better with Lower -> x -. y | Higher -> y -. x in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if gain parent.(i) change.(i) > 0. then incr wins
  done;
  let win_share = float_of_int !wins /. float_of_int (max 1 pairs) in
  let mp = Stats.median parent and mc = Stats.median change in
  let q1, q3 = Stats.quartiles parent in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> gain p c > 0.) parent) change
  in
  let v =
    if win_share >= 0.9 && gain mp mc > q3 -. q1 then Better
    else if -.gain mp mc > bound *. Float.abs mp then Worse
    else if (q3 -. q1) > bound *. Float.abs mp && not all_better then Unresolved
    else Unchanged
  in
  (v, win_share)

let run parent_dir change_dir =
  let parent = reports_in parent_dir and change = reports_in change_dir in
  if parent = [] || change = [] then
    failwith "compare: each directory needs at least one .json report";
  Printf.printf "%d parent run(s), %d change run(s)\n" (List.length parent)
    (List.length change);
  Printf.printf "%-14s %-22s %-36s %-36s %6s %5s %s\n" "workload" "metric"
    "parent median [q1 q3]" "change median [q1 q3]" "bound" "wins" "verdict";
  let show a =
    let q1, q3 = Stats.quartiles a in
    Printf.sprintf "%.6g [%.6g %.6g]" (Stats.median a) q1 q3
  in
  let worse = ref false in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (m : Catalog.metric) ->
          let p = values parent ~workload:w.name ~metric:m.name
          and c = values change ~workload:w.name ~metric:m.name in
          if Array.length p > 0 && Array.length c > 0 then begin
            let bound = Option.value m.bound ~default:0. in
            let v, share = judge ~better:m.better ~bound p c in
            if v = Worse then worse := true;
            Printf.printf "%-14s %-22s %-36s %-36s %6.2f %5.2f %s\n" w.name m.name
              (show p) (show c) bound share (verdict_name v)
          end)
        Catalog.end_to_end)
    Workload.all;
  if !worse then 1 else 0
