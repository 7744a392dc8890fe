module W = Netsim.World
module Dnsproxy = Connman.Dnsproxy

type t = {
  name : string;
  host : W.host;
  daemon : Dnsproxy.t;
  world : W.t;
  mutable dispositions : Dnsproxy.disposition list;  (* newest first *)
  mutable events : string list;  (* newest first *)
  mutable state : [ `Online | `Crashed | `Compromised | `Blocked ];
  mutable supervisor : Supervisor.t option;
}

let log t fmt = Format.kasprintf (fun s -> t.events <- s :: t.events) fmt

let classify = function
  | Dnsproxy.Cached _ | Dnsproxy.Dropped _ -> `Online
  | Dnsproxy.Crashed _ -> `Crashed
  | Dnsproxy.Compromised _ -> `Compromised
  | Dnsproxy.Blocked _ -> `Blocked

let dns_client_port = 5353

let create world ~name ~config =
  let host = W.add_host world ~name in
  let daemon = Dnsproxy.create config in
  let t =
    {
      name;
      host;
      daemon;
      world;
      dispositions = [];
      events = [];
      state = `Online;
      supervisor = None;
    }
  in
  (* Responses to the proxy's upstream queries arrive on the client
     port and flow into the vulnerable parse path. *)
  W.on_udp host ~port:dns_client_port (fun _ctx dgram ->
      let disposition =
        Dnsproxy.handle_response
          ~origin:(Netsim.Ip.to_string dgram.W.src)
          daemon dgram.W.payload
      in
      t.dispositions <- disposition :: t.dispositions;
      (match classify disposition with
      | `Online -> ()
      | other -> t.state <- other);
      log t "dns response from %s: %a"
        (Netsim.Ip.to_string dgram.W.src)
        Dnsproxy.pp_disposition disposition;
      (* The init system notices a dead connmand from the same signal a
         defender has: the daemon stopped answering. *)
      Option.iter Supervisor.notify t.supervisor);
  t

let host t = t.host
let daemon t = t.daemon
let name t = t.name

let lookup t hostname =
  match (W.host_dns t.host, Dnsproxy.alive t.daemon) with
  | None, _ ->
      log t "lookup %s skipped: no DNS server configured" hostname
  | _, false -> log t "lookup %s skipped: connmand is down" hostname
  | Some dns, true ->
      let query = Dnsproxy.make_query t.daemon (Dns.Name.of_string hostname) in
      log t "querying %s for %s" (Netsim.Ip.to_string dns) hostname;
      W.send t.world ~from:t.host ~sport:dns_client_port ~dst:dns ~dport:53
        (Dns.Packet.encode query)

(* Resolver clients retransmit on timeout; an attempt is "answered" when
   any new disposition arrived since it was sent. *)
let lookup_with_retry t hostname ~retries ~timeout_us =
  if retries < 0 then invalid_arg "Device.lookup_with_retry: negative retries";
  let attempts = retries + 1 in
  let seen = ref 0 in
  Supervisor.Retry.run (W.sim t.world) ~attempts ~timeout_us
    ~attempt:(fun i ->
      if i > 0 then
        log t "lookup %s timed out; retrying (%d left)" hostname (attempts - i);
      seen := List.length t.dispositions;
      lookup t hostname)
    ~still_needed:(fun () ->
      List.length t.dispositions = !seen
      && Dnsproxy.alive t.daemon
      && W.host_dns t.host <> None)

let supervise ?policy t =
  let sup =
    Supervisor.supervise ?policy ~name:t.name
      ~on_event:(fun e ->
        log t "supervisor: %a" Supervisor.pp_event e;
        match e.Supervisor.kind with
        | Supervisor.Restarted -> t.state <- `Online
        | _ -> ())
      ~kind:"connmand"
      ~alive:(fun () -> Dnsproxy.alive t.daemon)
      ~restart:(fun () -> Dnsproxy.restart t.daemon)
      (W.sim t.world)
  in
  t.supervisor <- Some sup;
  sup

(* Connman's connectivity check: performed whenever the device gets a
   fresh network configuration. *)
let connectivity_hostname = "ipv4.connman.net"

let rec join_wifi t aps ~ssid =
  match Netsim.Wifi.associate t.host aps ~ssid with
  | None ->
      log t "no access point found for ssid %S" ssid;
      None
  | Some ap ->
      log t "associated to %s (%S, %d dBm)" ap.Netsim.Wifi.ap_name ssid
        ap.Netsim.Wifi.signal_dbm;
      Netsim.Dhcp.solicit t.world t.host
        ~on_configured:(fun _ctx ->
          log t "dhcp: ip %s, dns %s"
            (match W.host_ip t.host with
            | Some ip -> Netsim.Ip.to_string ip
            | None -> "?")
            (match W.host_dns t.host with
            | Some ip -> Netsim.Ip.to_string ip
            | None -> "?");
          lookup t connectivity_hostname)
        ();
      Some ap

(* Background roaming: rescan periodically and re-associate whenever a
   stronger AP carries the trusted SSID — the radio behaviour §III-D
   exploits.  [scan] yields whatever APs are in the air at that moment,
   so an attacker AP appearing later is picked up automatically. *)
and start_roaming t ~scan ~ssid ~interval_us ~rounds =
  if rounds > 0 then
    Netsim.Sim.schedule (W.sim t.world) ~delay:interval_us (fun _ ->
        let current = W.lan_of t.host in
        (match Netsim.Wifi.scan (scan ()) ~ssid with
        | best :: _
          when (match current with
               | Some lan -> W.lan_name lan <> W.lan_name best.Netsim.Wifi.lan
               | None -> true) ->
            log t "roaming: stronger AP %s (%d dBm) for %S"
              best.Netsim.Wifi.ap_name best.Netsim.Wifi.signal_dbm ssid;
            ignore (join_wifi t (scan ()) ~ssid)
        | _ -> ());
        start_roaming t ~scan ~ssid ~interval_us ~rounds:(rounds - 1))

let last_disposition t =
  match t.dispositions with [] -> None | d :: _ -> Some d

let dispositions t = List.rev t.dispositions
let state t = t.state
let events t = List.rev t.events
