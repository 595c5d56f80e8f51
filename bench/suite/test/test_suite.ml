(* The benchmark suite at 1/100 scale: every metric BENCHMARK.json names
   is emitted with its unit, runs repeat bit for bit, a traced run
   digests as the untraced one does, and the allocation a sharded run
   counts does not depend on the shard count. *)

open Td_suite
module J = Td_obs.Json

let scale = 100
let benchmark = lazy (Json_read.of_file "../../../BENCHMARK.json")

let field key v =
  match J.member key v with
  | Some x -> x
  | None -> Alcotest.failf "missing key %S" key

let str v = match v with J.String s -> s | _ -> Alcotest.fail "expected a string"
let items v = match v with J.List l -> l | _ -> Alcotest.fail "expected a list"

let declared key =
  List.map
    (fun d ->
      let bound =
        match J.member "bound" d with
        | Some b -> Printf.sprintf "%g" (Option.get (Json_read.to_float b))
        | None -> "-"
      in
      ( str (field "name" d),
        Printf.sprintf "%s %s %s" (str (field "unit" d)) (str (field "better" d)) bound ))
    (items (field key (Lazy.force benchmark)))

let catalogue_matches key metrics () =
  let ours =
    List.map
      (fun (m : Catalog.metric) ->
        ( m.name,
          Printf.sprintf "%s %s %s" m.unit_ (Catalog.better_name m.better)
            (match m.bound with Some b -> Printf.sprintf "%g" b | None -> "-") ))
      metrics
  in
  Alcotest.(check (list (pair string string))) key ours (declared key)

let workloads_match () =
  let ours = List.map (fun (w : Workload.t) -> (w.name, w.why)) Workload.all in
  let theirs =
    List.map
      (fun d -> (str (field "name" d), str (field "why" d)))
      (items (field "workloads" (Lazy.force benchmark)))
  in
  Alcotest.(check (list (pair string string))) "workloads" ours theirs

(* The result line a driver reads carries every declared metric as a
   finite number with the declared unit. *)
let check_emitted key (r : Runner.report) =
  let line = Json_read.parse (Runner.result_line r) in
  Alcotest.(check bool) "correct" true (field "correct" line = J.Bool true);
  Alcotest.(check bool) "nothing failed" true (field "failed" line = J.Int 0);
  let metrics = field "metrics" line in
  List.iter
    (fun (name, spec) ->
      let m = field name metrics in
      let unit_ = List.hd (String.split_on_char ' ' spec) in
      Alcotest.(check string) (name ^ " unit") unit_ (str (field "unit" m));
      match Json_read.to_float (field "value" m) with
      | Some v when Float.is_finite v -> ()
      | _ -> Alcotest.failf "%s has no finite value" name)
    (declared key)

let metric (r : Runner.report) name =
  match List.find_opt (fun ((m : Catalog.metric), _) -> m.name = name) r.metrics with
  | Some (_, Some v) -> v
  | _ -> Alcotest.failf "no %s" name

let untraced (w : Workload.t) () =
  let run () = Runner.run w ~seed:1 ~seconds:0. ~scale ~trace:false in
  let a = run () and b = run () in
  check_emitted "end_to_end" a;
  Alcotest.(check string) "digest repeats" a.digest b.digest;
  List.iter
    (fun name ->
      Alcotest.(check (float 0.)) (name ^ " repeats") (metric a name) (metric b name))
    [ "sim_cycles_per_frame"; "alloc_words_per_frame" ]

let traced (w : Workload.t) () =
  let r = Runner.run w ~seed:2 ~seconds:0. ~scale ~trace:true in
  check_emitted "per_layer" r;
  Alcotest.(check (option bool)) "traced digest equals untraced" (Some true)
    (List.assoc_opt "traced_digest_equals_untraced" r.checks)

(* Each Mq.run job reads Gc.minor_words on the domain it runs on, so the
   sum counts every domain's share; reading the main domain alone would
   miss nearly all of it. The sum may differ from the sequential one only
   by the domain-local slots each freshly spawned domain allocates on its
   first World call (4 words today), never by per-frame work. *)
let shard_alloc () =
  let words shards =
    let w = Workload.mq_sharded_tx ~shards in
    let m = Runner.run_pass (w.prepare ~seed:1 ~scale) in
    (m.Runner.words, m.Runner.samples, m.Runner.outcome.Workload.digest)
  in
  let w1, _, d1 = words 1 in
  List.iter
    (fun shards ->
      let w, chunks, d = words shards in
      let spawned = float_of_int (shards * Array.length chunks) in
      let extra = w -. w1 in
      if extra < 0. || extra > 16. *. spawned then
        Alcotest.failf "%d shards counted %.0f words, sequential %.0f" shards w w1;
      Alcotest.(check string) (Printf.sprintf "digest at %d shards" shards) d1 d)
    [ 2; 3 ]

let () =
  Alcotest.run "suite"
    [
      ( "benchmark.json",
        [
          Alcotest.test_case "end-to-end metrics" `Quick
            (catalogue_matches "end_to_end" Catalog.end_to_end);
          Alcotest.test_case "per-layer metrics" `Quick
            (catalogue_matches "per_layer" Catalog.per_layer);
          Alcotest.test_case "workloads" `Quick workloads_match;
        ] );
      ( "workloads",
        List.concat_map
          (fun (w : Workload.t) ->
            [
              Alcotest.test_case (w.name ^ " untraced") `Quick (untraced w);
              Alcotest.test_case (w.name ^ " traced") `Quick (traced w);
            ])
          Workload.all );
      ("shards", [ Alcotest.test_case "mq alloc independent of shard count" `Quick shard_alloc ]);
    ]
