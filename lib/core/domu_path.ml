open Td_mem
open Td_xen
open Td_kernel
open World_state

(* netback's call into the driver, already in dom0: the sk_buff is kmem
   memory and survives a restart, so replay can re-run the transmit on
   the fresh instance *)
let netback_xmit w ~nic skb () =
  ignore
    (Supervisor.run_dom0_driver2 w ~entry:w.dom0_driver.e_xmit skb
       w.nics.(nic).nd.Netdev.addr);
  true

(* Create one netfront/netback channel pair for guest slot [g] on NIC
   [nic] and register its backend port on the bridge — the per-(guest,
   NIC) plumbing boot runs for guest 0 and [World.create_guest] for
   runtime ones. Returns the bridge port so the caller can enter the
   guest's vif MACs into the fdb. *)
let attach_channel w x vswitch ~guest:g ~nic =
  let s = slot_exn w g ~op:"World.attach_channel" in
  (* Config's three notification fields map to one policy here *)
  let notify =
    let { Config.notify_batch = batch; doorbell; poll_entry_kicks; _ } =
      w.tuning
    in
    if not doorbell then Xen_netio.Interrupts { batch }
    else if poll_entry_kicks <= 0 then
      Xen_netio.Always_poll { batch; poll_budget = 16 }
    else
      Xen_netio.Adaptive
        { batch; entry_kicks = poll_entry_kicks; poll_budget = 16 }
  in
  let netio =
    Xen_netio.create ~notify ?quota:w.quota ~hyp:x.hyp ~dom0:x.dom0
      ~guest:s.gs_dom ~kmem:w.km
      ~driver_tx:(fun skb ->
        ignore (Supervisor.transmit w ~nic netback_xmit skb ()))
      ()
  in
  (* the guest stack reads the payload out of its own page once, as the
     string the consumer pops; [read_block] returns a fresh buffer
     nothing else holds, so it becomes that string without a copy *)
  Xen_netio.set_guest_rx netio (fun addr len ->
      charge_domU_cat w w.costs.Sys_costs.kernel_rx_path;
      let payload =
        Addr_space.read_block s.gs_space (addr + eth_header_bytes)
          (len - eth_header_bytes)
      in
      count_rx ~guest:g w (Bytes.unsafe_to_string payload));
  Xen_netio.post_rx_buffers netio 64;
  s.gs_netios <- Array.append s.gs_netios [| (nic, netio) |];
  (* backend port: netback takes the sk_buff dom0's netif_rx holds *)
  let port =
    {
      Bridge.port_name = Printf.sprintf "vif%d.%d" g nic;
      tx =
        (fun skb ->
          (* netback forwards whole frames: push the MAC header back
             (eth_type_trans pulled it) *)
          let space = w.dom0_space in
          Skb.set_data_at space skb (Skb.data_at space skb - eth_header_bytes);
          Skb.set_len_at space skb (Skb.len_at space skb + eth_header_bytes);
          Xen_netio.deliver_to_guest netio skb);
    }
  in
  Bridge.add_port vswitch port;
  port

let learn_macs vswitch (s : guest_slot) port =
  Array.iter
    (fun mac -> Bridge.learn vswitch ~mac:(Bridge.mac_key mac) port)
    s.gs_macs

let boot w x vswitch =
  (* a domU world without a NIC has no I/O channel to attach the
     frontend to: a configuration error attributed to the guest, not a
     crash on the first transmit *)
  let s = slot_exn w 0 ~op:"World.init" in
  if Array.length w.nics = 0 then
    config_error ~domain:(Domain.name s.gs_dom)
      "domU configuration without netio (world has no NICs)";
  (* boot guest 0 attaches one channel per NIC; its vif MACs on every NIC
     enter the fdb pointing at its channel on NIC 0, so all of its receive
     traffic crosses that one channel *)
  let ports =
    Array.mapi (fun i _ -> attach_channel w x vswitch ~guest:0 ~nic:i) w.nics
  in
  learn_macs vswitch s ports.(0);
  (* dom0's netif_rx: forward through the bridge to the backend port
     behind the destination MAC; unknown MACs terminate in dom0's local
     stack (no flooding into guests) *)
  Support.set_netif_rx w.sup (fun skb ->
      charge_dom0_cat w w.costs.Sys_costs.dom0_rx_kernel;
      let hdr = Skb.data_at w.dom0_space skb - eth_header_bytes in
      let dst = Bridge.read_mac w.dom0_space hdr in
      if Bridge.mem vswitch ~mac:dst then
        Bridge.forward vswitch ~dst
          ~src:(Bridge.read_mac w.dom0_space (hdr + 6))
          skb
      else begin
        charge_dom0_cat w w.costs.Sys_costs.kernel_rx_path;
        free_any_skb w skb
      end);
  (* the workload runs in the guest *)
  Hypervisor.switch_to x.hyp s.gs_dom

(* one netfront channel per runtime guest, striped over the NICs unless
   pinned; the fdb routes all the guest's vif MACs to its backend port *)
let add_guest w x vswitch s ~guest:g ~nic =
  if Array.length w.nics > 0 then begin
    let nic =
      match nic with Some n -> n | None -> g mod Array.length w.nics
    in
    learn_macs vswitch s (attach_channel w x vswitch ~guest:g ~nic)
  end

(* close drains staged batches (conservation) then unmaps the doorbell
   and revokes every grant — nothing of the guest's stays in dom0 *)
let remove_guest x vswitch s ~guest:g =
  Array.iter (fun (_, io) -> Xen_netio.close io) s.gs_netios;
  Array.iter
    (fun (n, _) -> Bridge.remove_port vswitch (Printf.sprintf "vif%d.%d" g n))
    s.gs_netios;
  Array.iter
    (fun mac -> Bridge.forget vswitch ~mac:(Bridge.mac_key mac))
    s.gs_macs;
  Hypervisor.remove_domain x.hyp s.gs_dom

(* One guest frame down its netfront channel, under the guest's header;
   the driver runs from netback's flush, already supervised there *)
let send w io ~hdr payload =
  charge_domU_cat w w.costs.Sys_costs.kernel_tx_path;
  charge_dom0_cat w w.costs.Sys_costs.dom0_tx_kernel;
  match Xen_netio.guest_transmit io ~hdr payload with
  | () -> true
  | exception Quota.Quota_exceeded _ ->
      (* throttled tenant: the frame dies at the frontend edge having cost
         only the guest its own kernel+netfront cycles *)
      w.tx_drops <- w.tx_drops + 1;
      if Td_obs.Control.enabled () then
        Td_obs.Metrics.bump "world.tx_throttled";
      false

(* index of the slot's first channel on [nic] in [gs_netios], or -1; a
   loop over the array, so a lookup on the transmit path builds nothing *)
let rec channel_index (netios : (int * Xen_netio.t) array) ~nic j =
  if j >= Array.length netios then -1
  else if fst netios.(j) = nic then j
  else channel_index netios ~nic (j + 1)

(* guest 0's entry on [nic] *)
let netio_on w ~nic =
  match slot_opt w 0 with
  | Some s ->
      let j = channel_index s.gs_netios ~nic 0 in
      if j < 0 then None else Some s.gs_netios.(j)
  | None -> None

let no_netio () =
  config_error ~domain:(guest_name 0)
    "domU configuration without netio (world not initialised, created \
     without NICs, or guest 0 destroyed)"

let transmit w (p : nic_port) ~nic ~payload =
  match slot_opt w 0 with
  | Some s ->
      let j = channel_index s.gs_netios ~nic 0 in
      if j < 0 then no_netio ()
      else send w (snd s.gs_netios.(j)) ~hdr:p.tx_hdr payload
  | None -> no_netio ()

let transmit_from ?nic w s ~guest:g ~payload =
  let j =
    match nic with
    | Some nic -> channel_index s.gs_netios ~nic 0
    | None -> if Array.length s.gs_netios > 0 then 0 else -1
  in
  if j < 0 then
    Guest_fault.fail ~domain:(Domain.name s.gs_dom) ~op:"World.transmit_from"
      "guest %d has no netfront channel%s" g
      (match nic with Some n -> Printf.sprintf " on NIC %d" n | None -> "")
  else begin
    let n, io = s.gs_netios.(j) in
    Supervisor.admit w ~nic:n;
    send w io ~hdr:s.gs_tx_hdrs.(n) payload
  end
