(* The four workloads. Each is a fixed, seeded scenario ("pass"): build
   the initial state (the timed set-up), then move a fixed number of
   frames in chunks the runner times one by one, then drain and check.
   Frame counts never depend on the host, so every commit does the same
   simulated work and its simulated results repeat bit for bit. *)

open Twindrivers

type outcome = {
  offered : int;  (** frames offered in the measured phase *)
  delivered : int;  (** frames that reached the wire or the guest *)
  ledger : Td_xen.Ledger.t;  (** simulated cycles of the measured phase *)
  digest : string;
  checks : (string * bool) list;
}

type pass = {
  worlds : World.t array;
  more : unit -> bool;
  chunk : unit -> int;
      (** move the next chunk of frames; returns how many were offered *)
  words : unit -> float;
      (** minor words allocated inside chunks so far, summed over every
          OCaml domain that ran workload code *)
  finish : unit -> outcome;
      (** drain, shut down, check; only after [more ()] is false *)
  diagnostics : unit -> (string * float * string) list;
}

type t = {
  name : string;
  why : string;
  paper_cycles_per_frame : float option;
      (** the paper's cycles/packet for this path, when it reports one *)
  shard_variant : (int -> t) option;
      (** the same workload at another shard count (sharded only) *)
  prepare : seed:int -> scale:int -> unit -> pass;
      (** [prepare ~seed ~scale] generates the inputs; the returned
          function builds one pass. [scale] divides the frame count
          (1 in the benchmark, 100 in the tests). *)
}

(* xorshift32, as the fleet soak paces itself: the inputs are a function
   of the seed alone *)
let rng seed =
  let s = ref ((seed * 2654435761) land 0x3FFFFFFF lor 1) in
  fun bound ->
    let x = !s in
    let x = x lxor (x lsl 13) land 0xFFFFFFFF in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0x3FFFFFFF in
    s := x;
    x mod bound

let random_string rand n = String.init n (fun _ -> Char.chr (rand 256))

let digest ledger extra =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun (c, v) -> add "%s=%d;" (Td_xen.Ledger.category_name c) v)
    (Td_xen.Ledger.snapshot ledger);
  List.iter (fun (d, v) -> add "%s=%d;" d v) (Td_xen.Ledger.domain_snapshot ledger);
  List.iter
    (fun dir ->
      add "lat:%d" (Td_xen.Ledger.latency_count ledger dir);
      List.iter
        (fun p ->
          match Td_xen.Ledger.latency_percentile ledger dir p with
          | None -> add "/-"
          | Some v -> add "/%.0f" v)
        [ 50.; 99.; 99.9 ];
      add ";")
    [ `Tx; `Rx ];
  List.iter (fun (k, v) -> add "%s=%d;" k v) extra;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Checks every workload makes on its worlds once they are shut down. *)
let world_checks ws =
  let all f = Array.for_all f ws in
  [
    ("netio_conserved", all World.netio_conserved);
    ("staged_frames_zero_after_shutdown", all (fun w -> World.staged_frames w = 0));
    ("rx_drops_zero", all (fun w -> World.rx_drops w = 0));
    ("all_nics_serviceable", all World.all_serviceable);
  ]

let words_since w0 = Gc.minor_words () -. w0

(* ---- twin-tx-mtu ---- *)

let twin_chunk = 256

let twin_tx_mtu =
  let prepare ~seed ~scale =
    let payload = random_string (rng seed) Measure.mtu_payload in
    let frames = max 8 (16_384 / scale) in
    fun () ->
      let w = Call.create ~nics:1 Config.Xen_twin in
      (* Measure.run_transmit's warm-up and cadence, so the per-frame
         cycles match Figure 7 *)
      for i = 0 to 63 do
        ignore (Call.transmit w ~nic:0 ~payload);
        if i mod 8 = 7 then Call.pump w
      done;
      Call.pump w;
      Call.reset_measurement w;
      let sent = ref 0 and accepted = ref 0 and words = [| 0. |] in
      let chunk () =
        let n = min twin_chunk (frames - !sent) in
        let w0 = Gc.minor_words () in
        for i = !sent to !sent + n - 1 do
          if Call.transmit w ~nic:0 ~payload then incr accepted;
          if i mod 8 = 7 then Call.pump w
        done;
        words.(0) <- words.(0) +. words_since w0;
        sent := !sent + n;
        n
      in
      let finish () =
        Call.pump w;
        Call.shutdown w;
        let delivered = World.wire_tx_frames w in
        {
          offered = frames;
          delivered;
          ledger = World.ledger w;
          digest =
            digest (World.ledger w)
              [ ("wire", delivered); ("bytes", World.wire_tx_bytes w) ];
          checks =
            ("transmits_accepted", !accepted = frames)
            :: ("wire_frames_equal_offered", delivered = frames)
            :: world_checks [| w |];
        }
      in
      {
        worlds = [| w |];
        more = (fun () -> !sent < frames);
        chunk;
        words = (fun () -> words.(0));
        finish;
        diagnostics = (fun () -> []);
      }
  in
  {
    name = "twin-tx-mtu";
    why =
      "the paper's headline path (Fig 7 cadence): 1500 B transmit through the \
       rewritten driver in Xen; host time is the interpreter on the stlb \
       watcher's per-step path";
    paper_cycles_per_frame = Some 9972.;
    shard_variant = None;
    prepare;
  }

(* ---- domu-rx-small ---- *)

let rx_chunk = 2048
let rx_payload_bytes = 64

let domu_rx_small =
  let prepare ~seed ~scale =
    let rand = rng seed in
    (* distinct payloads, so the consumer can check content and order *)
    let payloads =
      Array.init rx_chunk (fun i ->
          let body = random_string rand (rx_payload_bytes - 2) in
          String.make 1 (Char.chr (i land 0xff))
          ^ String.make 1 (Char.chr (i lsr 8))
          ^ body)
    in
    let frames = max 8 (65_536 / scale) in
    fun () ->
      let w = Call.create ~nics:1 Config.Xen_domU in
      let popped = ref 0 and misordered = ref 0 in
      let rec drain () =
        match Call.rx_pop w with
        | None -> ()
        | Some p ->
            if not (String.equal p payloads.(!popped mod rx_chunk)) then
              incr misordered;
            incr popped;
            drain ()
      in
      for i = 0 to 63 do
        Call.inject_rx w ~nic:0 ~payload:payloads.(i);
        if i mod 4 = 3 then Call.pump w
      done;
      Call.pump w;
      drain ();
      Call.reset_measurement w;
      popped := 0;
      misordered := 0;
      let sent = ref 0 and words = [| 0. |] in
      let chunk () =
        let n = min rx_chunk (frames - !sent) in
        let w0 = Gc.minor_words () in
        for i = !sent to !sent + n - 1 do
          Call.inject_rx w ~nic:0 ~payload:payloads.(i mod rx_chunk);
          (* the NIC raises RXT0 per frame; service in batches of four
             (Measure.run_receive's cadence), then the consumer drains *)
          if i mod 4 = 3 then begin
            Call.pump w;
            drain ()
          end
        done;
        words.(0) <- words.(0) +. words_since w0;
        sent := !sent + n;
        n
      in
      let finish () =
        Call.pump w;
        Call.shutdown w;
        drain ();
        let delivered = World.delivered_rx_frames w in
        {
          offered = frames;
          delivered;
          ledger = World.ledger w;
          digest =
            digest (World.ledger w)
              [ ("rx", delivered); ("bytes", World.delivered_rx_bytes w) ];
          checks =
            ("rx_payloads_in_order", !misordered = 0)
            :: ("rx_all_consumed", !popped = frames && delivered = frames)
            :: world_checks [| w |];
        }
      in
      {
        worlds = [| w |];
        more = (fun () -> !sent < frames);
        chunk;
        words = (fun () -> words.(0));
        finish;
        diagnostics = (fun () -> []);
      }
  in
  {
    name = "domu-rx-small";
    why =
      "64 B receive on the unmodified guest path, where per-packet cost \
       peaks: netback, bridge, grant copy, virqs and latency samples; the \
       interpreter already runs compiled here";
    paper_cycles_per_frame = None;
    shard_variant = None;
    prepare;
  }

(* ---- fleet-churn ---- *)

let fleet_domains = 200
let fleet_nics = 4
let fleet_churns = 32
let fleet_lost_irq_rate = 2e-5
let fleet_rounds_per_chunk = 2

(* Experiments.fleet_run's open-loop soak (shape by slot: bulk, rpc,
   incast; a pump and a tick per round; a churn every
   frames/(churns+1)) plus a consumer that drains every delivered frame,
   with three changes that keep every frame delivered and the traffic mix
   the same on every seed:
   - the fault plan arms only the lost-interrupt site. It fires a few
     times per pass and costs latency, never frames; the lossy sites drop
     thousands of frames on some seeds. Armed, the engine still keeps the
     interpreter on its per-step path;
   - an rpc guest bursts every fourth round at a seeded phase rather than
     with probability 1/4;
   - churn replaces a guest with one of the same shape. *)
let fleet_churn =
  let prepare ~seed ~scale =
    let rand = rng seed in
    let bulk = random_string rand 1500 in
    let rpc = random_string rand 64 in
    let fanin = random_string rand 128 in
    let phase = Array.init 256 (fun _ -> rand 4) in
    let frames = max 300 (60_000 / scale) in
    let tuning =
      {
        Config.default_tuning with
        Config.recovery = Config.Restart_replay;
        doorbell = true;
        quota = Some { Td_xen.Quota.default_limits with grant_entries = 512 };
        fault_plan =
          Some { Td_fault.zero_plan with seed; nic_lost_irq = fleet_lost_irq_rate };
      }
    in
    fun () ->
      let w = Call.create ~nics:fleet_nics ~guests:1 ~tuning Config.Xen_domU in
      for _ = 2 to fleet_domains do
        ignore (Call.create_guest w)
      done;
      Call.reset_measurement w;
      let rand = rng (seed + 1) in
      let offered_tx = ref 0 and rx_injected = ref 0 in
      let rounds = ref 0 and churned = ref 0 in
      let popped = ref 0 and foreign = ref 0 in
      let moved () = !offered_tx + !rx_injected in
      let churn_every = max 1 (frames / (fleet_churns + 1)) in
      let next_churn = ref churn_every in
      let words = [| 0. |] in
      let rec drain () =
        match Call.rx_pop w with
        | None -> ()
        | Some p ->
            if not (String.equal p fanin) then incr foreign;
            incr popped;
            drain ()
      in
      let churn () =
        (* the replacement takes the next slot; its victim shares its shape *)
        let shape = World.guest_slots w mod 3 in
        let live = ref [] in
        for g = World.guest_slots w - 1 downto 1 do
          if g mod 3 = shape && World.guest_alive w ~guest:g then live := g :: !live
        done;
        Call.destroy_guest w ~guest:(List.nth !live (rand (List.length !live)));
        ignore (Call.create_guest w);
        incr churned
      in
      let round () =
        for g = 0 to World.guest_slots w - 1 do
          if World.guest_alive w ~guest:g then
            match g mod 3 with
            | 0 ->
                incr offered_tx;
                ignore (Call.transmit_from w ~guest:g ~payload:bulk)
            | 1 ->
                if (!rounds + phase.(g)) mod 4 = 0 then
                  for _ = 1 to 8 do
                    incr offered_tx;
                    ignore (Call.transmit_from w ~guest:g ~payload:rpc)
                  done
            | _ ->
                for _ = 1 to 2 do
                  incr rx_injected;
                  Call.inject_rx ~guest:g w ~nic:(g mod fleet_nics) ~payload:fanin
                done
        done;
        Call.pump w;
        drain ();
        Call.tick w;
        incr rounds;
        if moved () >= !next_churn then begin
          next_churn := !next_churn + churn_every;
          churn ()
        end
      in
      let chunk () =
        let before = moved () in
        let w0 = Gc.minor_words () in
        let r = ref 0 in
        while !r < fleet_rounds_per_chunk && moved () < frames do
          round ();
          incr r
        done;
        words.(0) <- words.(0) +. words_since w0;
        moved () - before
      in
      let finish () =
        Call.pump w;
        Call.tick w;
        Call.shutdown w;
        drain ();
        let open_channels = ref 0 in
        for g = 0 to World.guest_slots w - 1 do
          if World.guest_alive w ~guest:g then
            open_channels :=
              !open_channels + if g = 0 then fleet_nics else 1
        done;
        let delivered = World.wire_tx_frames w + World.delivered_rx_frames w in
        {
          offered = moved ();
          delivered;
          ledger = World.ledger w;
          digest =
            digest (World.ledger w)
              [
                ("offered_tx", !offered_tx);
                ("rx_injected", !rx_injected);
                ("wire", World.wire_tx_frames w);
                ("rx", World.delivered_rx_frames w);
                ("throttled", World.quota_throttled w);
                ("faults", World.fault_injected w);
                ("recoveries", World.recoveries w);
                ("churned", !churned);
              ];
          checks =
            ("no_dangling_doorbells", World.doorbell_pages_mapped w = !open_channels)
            :: ("rx_all_consumed", !popped = World.delivered_rx_frames w)
            :: ("rx_payloads_intact", !foreign = 0)
            :: world_checks [| w |];
        }
      in
      {
        worlds = [| w |];
        more = (fun () -> moved () < frames);
        chunk;
        words = (fun () -> words.(0));
        finish;
        diagnostics = (fun () -> []);
      }
  in
  {
    name = "fleet-churn";
    why =
      "200 domains on 4 NICs (bulk/rpc/incast) with quotas, doorbells, a \
       seeded fault plan and 32 churns: the only load on the registry, \
       churn and per-world quota and fault scoping";
    paper_cycles_per_frame = None;
    shard_variant = None;
    prepare;
  }

(* ---- mq-sharded-tx ---- *)

let mq_queues = 8
let mq_flows = 1024
let mq_chunk = 4096
let default_shards = min 2 (Shard.available_parallelism ())

let rec mq_sharded_tx ~shards =
  let prepare ~seed ~scale =
    let rand = rng seed in
    let flows =
      Array.init mq_flows (fun _ ->
          Td_nic.Rss.ipv4_udp_payload ~len:Measure.mtu_payload
            {
              Td_nic.Rss.src_ip = 0x0a000000 lor rand 0xFFFFFF;
              dst_ip = 0x0a000001;
              src_port = 1024 + rand 60_000;
              dst_port = 80;
            })
    in
    let rss = Td_nic.Rss.of_seed Config.default_tuning.Config.rss_seed in
    let queue_of p = Td_nic.Rss.queue_of_payload rss ~queues:mq_queues p in
    let frames = max 64 (131_072 / scale) in
    let chunks = (frames + mq_chunk - 1) / mq_chunk in
    (* buckets.(c).(q): chunk c's frames steered to queue q, in order —
       the same split Mq.transmit would make *)
    let buckets =
      Array.init chunks (fun c ->
          let lists = Array.make mq_queues [] in
          for _ = 1 to min mq_chunk (frames - (c * mq_chunk)) do
            let p = flows.(rand mq_flows) in
            let q = queue_of p in
            lists.(q) <- p :: lists.(q)
          done;
          Array.map (fun l -> Array.of_list (List.rev l)) lists)
    in
    let warm =
      Array.init mq_queues (fun q ->
          let l = List.filter (fun p -> queue_of p = q) (Array.to_list flows) in
          Array.of_list (List.filteri (fun i _ -> i < 16) l))
    in
    let per_queue =
      Array.init mq_queues (fun q ->
          Array.fold_left (fun acc b -> acc + Array.length b.(q)) 0 buckets)
    in
    fun () ->
      let tuning =
        { Config.default_tuning with Config.queues = mq_queues; shards }
      in
      let mq = Call.mq_create ~nics:1 ~tuning Config.Xen_domU in
      ignore
        (Call.mq_run mq ~job:(fun ~queue w ->
             Array.iter
               (fun payload -> ignore (Call.transmit w ~nic:0 ~payload))
               warm.(queue);
             Call.pump w));
      Call.mq_reset_measurement mq;
      let worlds = Array.init mq_queues (fun queue -> Mq.world mq ~queue) in
      let next = ref 0 and accepted = ref 0 and words = [| 0. |] in
      let chunk () =
        let b = buckets.(!next) in
        let job ~queue w =
          let ok = ref 0 in
          let w0 = Gc.minor_words () in
          let frames = b.(queue) in
          for i = 0 to Array.length frames - 1 do
            if Call.transmit w ~nic:0 ~payload:frames.(i) then incr ok;
            if i mod 8 = 7 then Call.pump w;
            if i mod 64 = 63 then Call.tick w
          done;
          Call.pump w;
          let words = words_since w0 in
          (words, !ok)
        in
        Array.iter
          (fun (w, ok) ->
            words.(0) <- words.(0) +. w;
            accepted := !accepted + ok)
          (Call.mq_run mq ~job);
        incr next;
        Array.fold_left (fun acc q -> acc + Array.length q) 0 b
      in
      let finish () =
        Call.mq_shutdown mq;
        let ledger = Mq.merged_ledger mq in
        let delivered = Mq.wire_tx_frames mq in
        {
          offered = frames;
          delivered;
          ledger;
          digest =
            digest ledger [ ("wire", delivered); ("bytes", Mq.wire_tx_bytes mq) ];
          checks =
            ("transmits_accepted", !accepted = frames)
            :: ("wire_frames_equal_offered", delivered = frames)
            :: world_checks worlds;
        }
      in
      {
        worlds;
        more = (fun () -> !next < chunks);
        chunk;
        words = (fun () -> words.(0));
        finish;
        diagnostics =
          (fun () ->
            let mean = float_of_int frames /. float_of_int mq_queues in
            [
              ( "mq.merge_ns",
                Clock.median_ns (fun () -> ignore (Sys.opaque_identity (Mq.merged_ledger mq))),
                "ns" );
              ( "mq.queue_imbalance",
                float_of_int (Array.fold_left max 0 per_queue) /. mean,
                "ratio" );
              ( "mq.elapsed_cycles_per_frame",
                float_of_int (Mq.elapsed_cycles mq) /. float_of_int frames,
                "cycles" );
            ]);
      }
  in
  {
    name = "mq-sharded-tx";
    why =
      "8-queue domU transmit of 1024 seeded UDP flows steered by RSS, one \
       Mq.run per chunk on min(2, nproc) shards: the only parallel path and \
       the only domU transmit path";
    paper_cycles_per_frame = None;
    shard_variant = Some (fun shards -> mq_sharded_tx ~shards);
    prepare;
  }

let all =
  [ twin_tx_mtu; domu_rx_small; fleet_churn; mq_sharded_tx ~shards:default_shards ]

let find name = List.find_opt (fun w -> w.name = name) all
