(* Receive-side scaling: a Toeplitz hash over the connection 4-tuple
   selects the queue, as multi-queue NICs do it; {!Mq} uses it to steer
   flows onto its per-queue worlds. The 40-byte key is expanded
   deterministically from a small seed, so the same (seed, 4-tuple)
   pair maps to the same queue on every run, on every host, and for
   every shard count — the property the sharded simulation's
   deterministic merge rests on. *)

type tuple = {
  src_ip : int;
  dst_ip : int;
  src_port : int;
  dst_port : int;
}

let key_bytes = 40

type t = { key : Bytes.t }

(* xorshift64 expansion (same generator family as Td_fault/Td_adv: no
   Random, replayable from the seed alone) *)
let of_seed seed =
  let state = ref ((if seed = 0 then 0x2545F491 else seed) land max_int) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) land max_int in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) land max_int in
    state := x;
    x
  in
  let key = Bytes.create key_bytes in
  for i = 0 to key_bytes - 1 do
    Bytes.set key i (Char.chr (next () land 0xFF))
  done;
  { key }

let key t = Bytes.to_string t.key

(* 32-bit window of the key starting at bit [i]: five bytes assembled
   big-endian, shifted down to drop the leading [i mod 8] bits *)
let key_window t i =
  let byte j = Char.code (Bytes.get t.key ((i / 8) + j)) in
  let v =
    (byte 0 lsl 32) lor (byte 1 lsl 24) lor (byte 2 lsl 16) lor (byte 3 lsl 8)
    lor byte 4
  in
  (v lsr (8 - (i mod 8))) land 0xFFFF_FFFF

(* Toeplitz: for every set bit of the 12-byte input (src ip, dst ip,
   src port, dst port, all big-endian), xor in the 32-bit key window
   aligned with that bit. *)
let hash t { src_ip; dst_ip; src_port; dst_port } =
  let input = Bytes.create 12 in
  let be32 off v =
    for j = 0 to 3 do
      Bytes.set input (off + j) (Char.chr ((v lsr (8 * (3 - j))) land 0xFF))
    done
  in
  let be16 off v =
    Bytes.set input off (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set input (off + 1) (Char.chr (v land 0xFF))
  in
  be32 0 src_ip;
  be32 4 dst_ip;
  be16 8 src_port;
  be16 10 dst_port;
  let result = ref 0 in
  for i = 0 to (8 * 12) - 1 do
    if Char.code (Bytes.get input (i / 8)) land (0x80 lsr (i mod 8)) <> 0 then
      result := !result lxor key_window t i
  done;
  !result

(* hardware indirection table: low 7 hash bits into 128 entries, our
   table being the identity spread over [queues] *)
let queue_of_hash h ~queues =
  if queues <= 1 then 0 else h land 0x7F mod queues

let proto_tcp = 6
let proto_udp = 17

(* Parse the IPv4 header at offset 0; non-IP (or truncated) input falls
   back to a deterministic pseudo-tuple over the first bytes, so every
   payload still demuxes to a stable queue. *)
let tuple_of_payload payload =
  let len = String.length payload in
  let b i = Char.code payload.[i] in
  let be16 i = (b i lsl 8) lor b (i + 1) in
  let be32 i = (be16 i lsl 16) lor be16 (i + 2) in
  if len >= 20 && b 0 lsr 4 = 4 then begin
    let ihl = (b 0 land 0xF) * 4 in
    let proto = b 9 in
    let src_ip = be32 12 and dst_ip = be32 16 in
    if (proto = proto_tcp || proto = proto_udp) && len >= ihl + 4 then
      { src_ip; dst_ip; src_port = be16 ihl; dst_port = be16 (ihl + 2) }
    else { src_ip; dst_ip; src_port = 0; dst_port = 0 }
  end
  else
    let fold lo hi =
      let acc = ref 0 in
      for i = lo to Int.min hi (len - 1) do
        acc := ((!acc lsl 8) lor b i) land 0xFFFF_FFFF
      done;
      !acc
    in
    { src_ip = fold 0 3; dst_ip = fold 4 7; src_port = 0; dst_port = 0 }

let queue_of_payload t ~queues payload =
  queue_of_hash (hash t (tuple_of_payload payload)) ~queues

(* Minimal IPv4/UDP payload carrying the given 4-tuple — what benches
   and tests feed {!Mq.transmit}/{!Mq.inject_rx} so the demux recovers
   the tuple. [len] is the total payload length (header included),
   padded with a fixed byte. *)
let ipv4_udp_payload ?(len = 64) tuple =
  let len = Int.max len 28 in
  let buf = Bytes.make len 'p' in
  let b i v = Bytes.set buf i (Char.chr (v land 0xFF)) in
  let be16 i v =
    b i (v lsr 8);
    b (i + 1) v
  in
  let be32 i v =
    be16 i (v lsr 16);
    be16 (i + 2) v
  in
  b 0 0x45 (* version 4, ihl 5 *);
  b 1 0;
  be16 2 len;
  be16 4 0 (* id *);
  be16 6 0 (* flags/frag *);
  b 8 64 (* ttl *);
  b 9 proto_udp;
  be16 10 0 (* checksum: unchecked by the model *);
  be32 12 tuple.src_ip;
  be32 16 tuple.dst_ip;
  be16 20 tuple.src_port;
  be16 22 tuple.dst_port;
  be16 24 (len - 20) (* udp length *);
  be16 26 0;
  Bytes.to_string buf
