type kind = Driver_domain | Guest

type t = {
  id : int;
  name : string;
  kind : kind;
  space : Td_mem.Addr_space.t;
  mutable vif : int;  (** vaddr of the virtual interrupt flag word; 0 = none *)
  queued : (unit -> unit) Td_sim.Fifo.t;  (** virq handlers held while masked *)
}

let create ~id ~name ~kind ~space =
  if id < 0 then invalid_arg "Domain.create: negative id";
  { id; name; kind; space; vif = 0; queued = Td_sim.Fifo.create ignore }

let id t = t.id
let name t = t.name
let kind t = t.kind
let space t = t.space

let cover a ~id fill =
  let len = Array.length a in
  if id < len then a
  else begin
    let n = ref (Int.max 1 len) in
    while !n <= id do
      n := 2 * !n
    done;
    let b = Array.make !n fill in
    Array.blit a 0 b 0 len;
    b
  end

let init_vif t ~vaddr =
  t.vif <- vaddr;
  Td_mem.Addr_space.write t.space vaddr Td_misa.Width.W32 0

let vif_addr t = t.vif

let interrupts_masked t =
  t.vif <> 0 && Td_mem.Addr_space.read t.space t.vif Td_misa.Width.W32 <> 0

let set_vif t v =
  if t.vif <> 0 then Td_mem.Addr_space.write t.space t.vif Td_misa.Width.W32 v

let mask_interrupts t = set_vif t 1

let deliver_pending t =
  while not (Td_sim.Fifo.is_empty t.queued) do
    (Td_sim.Fifo.pop t.queued) ()
  done

let unmask_interrupts t =
  set_vif t 0;
  deliver_pending t

let defer t fn = Td_sim.Fifo.push t.queued fn
let pending t = Td_sim.Fifo.length t.queued
