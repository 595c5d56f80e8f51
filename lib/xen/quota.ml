(* Per-domain resource quotas. An engine is a plain value that its
   World hands to every component that checks it; a component without
   one checks nothing, keeping zero-quota runs bit-identical to the
   seed. Rate buckets refill on the simulated clock supplied at
   construction time, so enforcement is deterministic. *)

type limits = {
  map_window_pages : int;
  grant_entries : int;
  grant_maps : int;
  upcalls_per_s : float;
  notifications_per_s : float;
  doorbells_per_s : float;
  rx_per_s : float;
  grant_copy_bytes_per_s : float;
  burst : float;
  grant_copy_burst_bytes : float;
}

let unlimited =
  {
    map_window_pages = 0;
    grant_entries = 0;
    grant_maps = 0;
    upcalls_per_s = 0.;
    notifications_per_s = 0.;
    doorbells_per_s = 0.;
    rx_per_s = 0.;
    grant_copy_bytes_per_s = 0.;
    burst = 1.;
    grant_copy_burst_bytes = 65536.;
  }

let default_limits =
  {
    map_window_pages = 64;
    grant_entries = 256;
    grant_maps = 64;
    upcalls_per_s = 200_000.;
    notifications_per_s = 500_000.;
    doorbells_per_s = 1_000_000.;
    rx_per_s = 500_000.;
    grant_copy_bytes_per_s = 1e9;
    burst = 8.;
    grant_copy_burst_bytes = 65536.;
  }

type resource =
  | Map_window_pages
  | Grant_entries
  | Grant_maps
  | Upcalls
  | Notifications
  | Doorbells
  | Rx_deliveries
  | Grant_copy_bytes

let all_resources =
  [ Map_window_pages; Grant_entries; Grant_maps; Upcalls; Notifications;
    Doorbells; Rx_deliveries; Grant_copy_bytes ]

let resource_name = function
  | Map_window_pages -> "map_window_pages"
  | Grant_entries -> "grant_entries"
  | Grant_maps -> "grant_maps"
  | Upcalls -> "upcalls"
  | Notifications -> "notifications"
  | Doorbells -> "doorbells"
  | Rx_deliveries -> "rx_deliveries"
  | Grant_copy_bytes -> "grant_copy_bytes"

exception Quota_exceeded of { domain : string; resource : string }

let () =
  Printexc.register_printer (function
    | Quota_exceeded { domain; resource } ->
        Some
          (Printf.sprintf "Td_xen.Quota.Quota_exceeded(%s: %s)" domain resource)
    | _ -> None)

(* Per-(domain, resource) state: a held-units count for concurrency caps,
   a token bucket for rate caps. *)
type bucket = { mutable tokens : float; mutable last : float }

type dom_state = {
  dom : Domain.t;  (** the domain at its first check: names its metrics *)
  held : int array;  (** indexed like [all_resources]; rate slots unused *)
  buckets : bucket option array;
  throttles : int array;
}

(* [doms] is indexed by domain id and doubles when a larger id first
   checks; the driver domain is exempt and never gets a row *)
type state = {
  lim : limits;
  now : unit -> int;  (** simulated cycles *)
  mutable doms : dom_state option array;
  mutable throttled : int;
}

let resource_index = function
  | Map_window_pages -> 0
  | Grant_entries -> 1
  | Grant_maps -> 2
  | Upcalls -> 3
  | Notifications -> 4
  | Doorbells -> 5
  | Rx_deliveries -> 6
  | Grant_copy_bytes -> 7

let n_resources = List.length all_resources

let cap lim = function
  | Map_window_pages -> lim.map_window_pages
  | Grant_entries -> lim.grant_entries
  | Grant_maps -> lim.grant_maps
  | Upcalls | Notifications | Doorbells | Rx_deliveries | Grant_copy_bytes -> 0

(* The float helpers of a bucket draw are inlined: a float returned from
   a call is boxed, two words per draw. *)
let[@inline] rate lim = function
  | Upcalls -> lim.upcalls_per_s
  | Notifications -> lim.notifications_per_s
  | Doorbells -> lim.doorbells_per_s
  | Rx_deliveries -> lim.rx_per_s
  | Grant_copy_bytes -> lim.grant_copy_bytes_per_s
  | Map_window_pages | Grant_entries | Grant_maps -> 0.

(* byte-denominated buckets need a byte-denominated depth: an 8-token
   burst would deny every >8-byte grant copy outright *)
let[@inline] burst_of lim = function
  | Grant_copy_bytes -> lim.grant_copy_burst_bytes
  | _ -> lim.burst

let make ?(now = fun () -> 0) lim = { lim; now; doms = [||]; throttled = 0 }

(* The one conversion of the cycle clock into the buckets' seconds, at
   the simulated CPU's frequency; inlined into a bucket draw, the float
   is never boxed. *)
let hz = float_of_int Td_cpu.Cost_model.frequency_hz
let[@inline] seconds e = float_of_int (e.now ()) /. hz

let exempt domain = Domain.kind domain = Domain.Driver_domain

let find e domain =
  let id = Domain.id domain in
  if id < Array.length e.doms then e.doms.(id) else None

let dom_state e domain =
  match find e domain with
  | Some d -> d
  | None ->
      let id = Domain.id domain in
      e.doms <- Domain.cover e.doms ~id None;
      let d =
        {
          dom = domain;
          held = Array.make n_resources 0;
          buckets = Array.make n_resources None;
          throttles = Array.make n_resources 0;
        }
      in
      e.doms.(id) <- Some d;
      d

let inuse_gauge d res v =
  if Td_obs.Control.enabled () then
    Td_obs.Metrics.set
      (Td_obs.Metrics.gauge
         (Printf.sprintf "xen.quota_inuse.%s.%s" (Domain.name d.dom)
            (resource_name res)))
      (float_of_int v)

let note_throttle e d res =
  e.throttled <- e.throttled + 1;
  d.throttles.(resource_index res) <- d.throttles.(resource_index res) + 1;
  if Td_obs.Control.enabled () then begin
    Td_obs.Metrics.bump "xen.quota_throttled";
    Td_obs.Metrics.bump
      (Printf.sprintf "xen.quota_throttled.%s" (Domain.name d.dom));
    Td_obs.Trace.emit
      (Td_obs.Trace.Custom
         {
           name = Printf.sprintf "quota.throttle.%s" (resource_name res);
           value = e.throttled;
         })
  end

let exceeded domain res =
  let resource = resource_name res in
  raise (Quota_exceeded { domain = Domain.name domain; resource })

let acquire e ~domain res n =
  if not (exempt domain) then begin
    let limit = cap e.lim res in
    let d = dom_state e domain in
    let i = resource_index res in
    if limit > 0 && d.held.(i) + n > limit then begin
      note_throttle e d res;
      exceeded domain res
    end;
    d.held.(i) <- d.held.(i) + n;
    inuse_gauge d res d.held.(i)
  end

let release e ~domain res n =
  if not (exempt domain) then begin
    let d = dom_state e domain in
    let i = resource_index res in
    d.held.(i) <- Int.max 0 (d.held.(i) - n);
    inuse_gauge d res d.held.(i)
  end

(* Draw [n] tokens at once: the whole draw succeeds or none of it does. *)
let try_take_n e ~domain res n =
  exempt domain
  ||
  let r = rate e.lim res in
  if r <= 0. then true
  else begin
    let burst = burst_of e.lim res in
    let d = dom_state e domain in
    let i = resource_index res in
    let b =
      match d.buckets.(i) with
      | Some b -> b
      | None ->
          let b = { tokens = burst; last = seconds e } in
          d.buckets.(i) <- Some b;
          b
    in
    let t = seconds e in
    if t > b.last then begin
      b.tokens <- Float.min burst (b.tokens +. ((t -. b.last) *. r));
      b.last <- t
    end;
    let want = float_of_int n in
    if b.tokens >= want then begin
      b.tokens <- b.tokens -. want;
      true
    end
    else begin
      note_throttle e d res;
      false
    end
  end

let try_take e ~domain res = try_take_n e ~domain res 1

let take_n e ~domain res n =
  if not (try_take_n e ~domain res n) then exceeded domain res

let take e ~domain res = take_n e ~domain res 1

let count cells e domain res =
  match find e domain with None -> 0 | Some d -> (cells d).(resource_index res)

let inuse e ~domain res = count (fun d -> d.held) e domain res
let throttled e = e.throttled
let throttled_for e ~domain res = count (fun d -> d.throttles) e domain res

let domains e =
  Array.fold_left
    (fun acc -> function Some d -> d.dom :: acc | None -> acc)
    [] e.doms
  |> List.sort (fun a b -> compare (Domain.name a) (Domain.name b))

let forget e ~domain =
  match find e domain with
  | None -> ()
  | Some d ->
      if Td_obs.Control.enabled () then
        List.iter
          (fun res ->
            if d.held.(resource_index res) <> 0 then inuse_gauge d res 0)
          all_resources;
      e.doms.(Domain.id domain) <- None
