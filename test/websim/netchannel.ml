type t = {
  world : World.t;
  nic : int;
  server : Tcp_lite.t;
  client : Tcp_lite.t;
  server_out : Tcp_lite.segment Queue.t;
  client_out : Tcp_lite.segment Queue.t;
  mutable frames : int;
}

let create ?(nic = 0) world =
  let server_out = Queue.create () and client_out = Queue.create () in
  let server =
    Tcp_lite.create ~send:(fun seg -> Queue.push seg server_out) ()
  in
  let client =
    Tcp_lite.create ~send:(fun seg -> Queue.push seg client_out) ()
  in
  { world; nic; server; client; server_out; client_out; frames = 0 }

let server t = t.server
let client t = t.client
let frames_carried t = t.frames

let relay_once t =
  let moved = ref false in
  (* server -> transmit path -> wire -> client *)
  while not (Queue.is_empty t.server_out) do
    moved := true;
    let seg = Queue.pop t.server_out in
    ignore
      (World.transmit t.world ~nic:t.nic
         ~payload:(Tcp_lite.encode_segment seg));
    t.frames <- t.frames + 1;
    Tcp_lite.on_segment t.client seg
  done;
  World.pump t.world;
  (* drain every delivered payload, not just the most recent one — with
     batched notifications a single pump can complete several frames *)
  let drain_rx () =
    let continue = ref true in
    while !continue do
      match World.rx_pop t.world with
      | None -> continue := false
      | Some payload -> (
          moved := true;
          match Tcp_lite.decode_segment payload with
          | Some seg -> Tcp_lite.on_segment t.server seg
          | None -> ())
    done
  in
  drain_rx ();
  (* client -> wire -> receive path -> guest -> server *)
  while not (Queue.is_empty t.client_out) do
    moved := true;
    World.inject_rx t.world ~nic:t.nic
      ~payload:(Tcp_lite.encode_segment (Queue.pop t.client_out));
    t.frames <- t.frames + 1;
    World.pump t.world;
    drain_rx ()
  done;
  !moved

let run ?(max_rounds = 2000) ?(on_round = fun _ -> ()) t ~until =
  let rounds = ref 0 in
  let done_ = ref (until t) in
  while (not !done_) && !rounds < max_rounds do
    incr rounds;
    ignore (relay_once t);
    on_round t;
    Tcp_lite.tick t.server;
    Tcp_lite.tick t.client;
    done_ := until t
  done;
  !done_
