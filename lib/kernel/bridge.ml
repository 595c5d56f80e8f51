type port = { port_name : string; tx : int -> unit }

type t = {
  kmem : Kmem.t;
  space : Td_mem.Addr_space.t;
  mutable ports : port list;
  fdb : port Td_sim.Int_tbl.t;  (** mac key -> port *)
  mutable forwarded : int;
  mutable flooded : int;
}

(* byte i of the MAC in bits 8i..8i+7: the little-endian load of its six
   bytes, so a key read from memory needs no host buffer *)
let mac_key mac =
  let k = ref 0 in
  for i = String.length mac - 1 downto 0 do
    k := (!k lsl 8) lor Char.code mac.[i]
  done;
  !k

let read_mac space addr =
  Td_mem.Addr_space.read space addr Td_misa.Width.W32
  lor (Td_mem.Addr_space.read space (addr + 4) Td_misa.Width.W16 lsl 32)

let create kmem space =
  {
    kmem;
    space;
    ports = [];
    fdb = Td_sim.Int_tbl.create 16;
    forwarded = 0;
    flooded = 0;
  }

let add_port t p = t.ports <- t.ports @ [ p ]
let learn t ~mac p = Td_sim.Int_tbl.replace t.fdb mac p
let mem t ~mac = Td_sim.Int_tbl.mem t.fdb mac
let forget t ~mac = Td_sim.Int_tbl.remove t.fdb mac

let remove_port t name =
  t.ports <- List.filter (fun p -> p.port_name <> name) t.ports;
  Td_sim.Int_tbl.filter_map_inplace
    (fun _ p -> if p.port_name = name then None else Some p)
    t.fdb

let fdb t =
  List.rev (Td_sim.Int_tbl.fold (fun mac p acc -> (mac, p.port_name) :: acc) t.fdb [])

let forward t ~dst ~src skb =
  match Td_sim.Int_tbl.find t.fdb dst with
  | p ->
      t.forwarded <- t.forwarded + 1;
      p.tx skb
  | exception Not_found -> (
      t.flooded <- t.flooded + 1;
      let src_port = Td_sim.Int_tbl.find_opt t.fdb src in
      let out =
        List.filter
          (fun p ->
            match src_port with
            | Some sp -> sp.port_name <> p.port_name
            | None -> true)
          t.ports
      in
      match out with
      | [] -> Skb.free_at t.kmem t.space skb
      | _ :: rest ->
          (* one reference per port, like br_flood's clones *)
          List.iter (fun _ -> Skb.get_ref_at t.space skb) rest;
          List.iter (fun p -> p.tx skb) out)

let forwarded t = t.forwarded
let flooded t = t.flooded
