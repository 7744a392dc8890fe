(* Tests for the network simulator: event clock, delivery, Wi-Fi
   association, DHCP, and DNS servers. *)

module W = Netsim.World
module Ip = Netsim.Ip
module Sim = Netsim.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- ip --- *)

let test_ip_roundtrip () =
  check_string "to/of" "192.168.1.10" (Ip.to_string (Ip.of_string "192.168.1.10"));
  check_int "value" 0xC0A8010A (Ip.of_string "192.168.1.10");
  Alcotest.check_raises "bad" (Invalid_argument "Ip.of_string: 1.2.3")
    (fun () -> ignore (Ip.of_string "1.2.3"))

let prop_ip_roundtrip =
  QCheck.Test.make ~name:"ip string round-trip" ~count:300
    QCheck.(int_bound 0xFFFFFFF)
    (fun v ->
      let v = v land 0xFFFFFFFF in
      Ip.of_string (Ip.to_string v) = v)

(* --- sim --- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let order = ref [] in
  Sim.schedule sim ~delay:30 (fun _ -> order := 3 :: !order);
  Sim.schedule sim ~delay:10 (fun _ -> order := 1 :: !order);
  Sim.schedule sim ~delay:20 (fun _ -> order := 2 :: !order);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !order)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:7 (fun _ -> order := i :: !order)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:5 (fun sim ->
      incr fired;
      Sim.schedule sim ~delay:5 (fun _ -> incr fired));
  let events = Sim.run sim in
  check_int "events" 2 events;
  check_int "fired" 2 !fired;
  check_int "clock advanced" 10 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:5 (fun _ -> incr fired);
  Sim.schedule sim ~delay:50 (fun _ -> incr fired);
  ignore (Sim.run ~until:10 sim);
  check_int "only early event" 1 !fired;
  check_int "one pending" 1 (Sim.pending sim)

(* Regression: [Sim.pop] used to leave the popped event record (and its
   action closure) reachable from heap.(size), pinning whatever the
   closure captured for the arena's lifetime.  The slot is now cleared
   with an inert sentinel, so the closure's environment is collectable
   as soon as the event has fired. *)
let test_sim_pop_releases_closures () =
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  let () =
    (* Inner scope so our own reference to the payload dies. *)
    let payload = Bytes.make 4096 'x' in
    Weak.set weak 0 (Some payload);
    Sim.schedule sim ~delay:1 (fun _ -> ignore (Bytes.length payload));
    (* A second event so the heap sees a pop that moves a trailing
       element over the root (the exact path that leaked). *)
    Sim.schedule sim ~delay:2 (fun _ -> ())
  in
  check_int "both fired" 2 (Sim.run sim);
  Gc.full_major ();
  check_bool "payload collected after run" true (Weak.get weak 0 = None)

let prop_sim_many_events_ordered =
  QCheck.Test.make ~name:"heap preserves timestamp order" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_bound 10_000))
    (fun delays ->
      let sim = Sim.create () in
      let times = ref [] in
      List.iter
        (fun d -> Sim.schedule sim ~delay:d (fun sim -> times := Sim.now sim :: !times))
        delays;
      ignore (Sim.run sim);
      let seen = List.rev !times in
      List.sort compare seen = seen)

(* --- delivery --- *)

let two_hosts () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let a = W.add_host w ~name:"a" in
  let b = W.add_host w ~name:"b" in
  W.set_host_ip a (Some (Ip.of_string "10.0.0.1"));
  W.set_host_ip b (Some (Ip.of_string "10.0.0.2"));
  W.attach a lan;
  W.attach b lan;
  (w, lan, a, b)

let test_unicast_delivery () =
  let w, _, a, b = two_hosts () in
  let got = ref None in
  W.on_udp b ~port:9 (fun _ d -> got := Some d.W.payload);
  W.send w ~from:a ~sport:1234 ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "hello";
  ignore (W.run w);
  Alcotest.(check (option string)) "delivered" (Some "hello") !got;
  check_int "stat" 1 (W.stats w).W.delivered

let test_unroutable_dropped () =
  let w, _, a, _ = two_hosts () in
  W.send w ~from:a ~dst:(Ip.of_string "10.9.9.9") ~dport:9 "lost";
  ignore (W.run w);
  check_int "dropped" 1 (W.stats w).W.dropped

let test_no_handler_dropped () =
  let w, _, a, _ = two_hosts () in
  W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:4242 "nobody";
  ignore (W.run w);
  check_int "dropped" 1 (W.stats w).W.dropped

let test_broadcast_reaches_lan_only () =
  let w, _, a, b = two_hosts () in
  let lan2 = W.add_lan w ~name:"other" in
  let c = W.add_host w ~name:"c" in
  W.set_host_ip c (Some (Ip.of_string "10.0.1.1"));
  W.attach c lan2;
  let hits = ref [] in
  let listen h = W.on_udp h ~port:68 (fun ctx _ -> hits := W.host_name ctx.W.self :: !hits) in
  listen b;
  listen c;
  W.send w ~from:a ~dst:Ip.broadcast ~dport:68 "announce";
  ignore (W.run w);
  Alcotest.(check (list string)) "only same-lan" [ "b" ] !hits

let test_uplink_routing () =
  let w = W.create () in
  let internet = W.add_lan w ~name:"internet" in
  let home = W.add_lan w ~name:"home" in
  W.set_uplink home (Some internet);
  let server = W.add_host w ~name:"server" in
  W.set_host_ip server (Some (Ip.of_string "8.8.8.8"));
  W.attach server internet;
  let client = W.add_host w ~name:"client" in
  W.set_host_ip client (Some (Ip.of_string "192.168.1.5"));
  W.attach client home;
  let got = ref false in
  W.on_udp server ~port:53 (fun _ _ -> got := true);
  W.send w ~from:client ~dst:(Ip.of_string "8.8.8.8") ~dport:53 "q";
  ignore (W.run w);
  check_bool "routed via uplink" true !got;
  (* Replies route back down into the edge LAN (NAT return path). *)
  let back = ref false in
  W.on_udp client ~port:53 (fun _ _ -> back := true);
  W.send w ~from:server ~dst:(Ip.of_string "192.168.1.5") ~dport:53 "r";
  ignore (W.run w);
  check_bool "return path routed" true !back;
  (* Disconnected LANs remain unreachable. *)
  let island = W.add_lan w ~name:"island" in
  let hermit = W.add_host w ~name:"hermit" in
  W.set_host_ip hermit (Some (Ip.of_string "10.99.0.1"));
  W.attach hermit island;
  let reached = ref false in
  W.on_udp hermit ~port:1 (fun _ _ -> reached := true);
  W.send w ~from:client ~dst:(Ip.of_string "10.99.0.1") ~dport:1 "x";
  ignore (W.run w);
  check_bool "island unreachable" false !reached

let test_attach_switches_lan () =
  let w, lan1, a, _ = two_hosts () in
  let lan2 = W.add_lan w ~name:"lan2" in
  W.attach a lan2;
  check_int "left lan1" 1 (List.length (W.hosts_of lan1));
  check_bool "joined lan2" true
    (List.exists (fun h -> W.host_name h = "a") (W.hosts_of lan2))

(* --- faults --- *)

module F = Netsim.Faults

let drop_all = { F.default with F.drop = 1.0 }

(* Regression: the seed implementation rolled the loss probability for
   unicast only — broadcast datagrams (DHCP discovery and friends) were
   immune to the world's drop probability. *)
let test_broadcast_respects_loss () =
  let w, _, a, b = two_hosts () in
  W.set_default_policy w { (W.default_policy w) with F.drop = 1.0 };
  let hits = ref 0 in
  W.on_udp b ~port:68 (fun _ _ -> incr hits);
  W.send w ~from:a ~dst:Ip.broadcast ~dport:68 "announce";
  ignore (W.run w);
  check_int "broadcast lost" 0 !hits;
  check_int "counted as fault drop" 1 (W.stats w).W.dropped_fault;
  check_int "total dropped" 1 (W.stats w).W.dropped

let test_lan_policy_then_default () =
  let w, lan, a, b = two_hosts () in
  (* A lossy LAN policy replaces the clean world default for its
     senders; clearing it exposes the default again. *)
  W.set_lan_policy w lan drop_all;
  let hits = ref 0 in
  W.on_udp b ~port:9 (fun _ _ -> incr hits);
  W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "y";
  ignore (W.run w);
  check_int "lan policy applies" 0 !hits;
  check_int "fault drop counted" 1 (W.stats w).W.dropped_fault;
  W.clear_lan_policy w lan;
  W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "z";
  ignore (W.run w);
  check_int "default policy after clearing lan" 1 !hits

(* The sender's LAN decides: across an uplink, a lossy LAN drops what
   its own hosts send and lets in what a clean LAN's hosts send it. *)
let test_sender_lan_decides () =
  let w = W.create () in
  let clean = W.add_lan w ~name:"clean" in
  let lossy = W.add_lan w ~name:"lossy" in
  W.set_uplink lossy (Some clean);
  W.set_lan_policy w lossy drop_all;
  let host name ip lan =
    let h = W.add_host w ~name in
    W.set_host_ip h (Some (Ip.of_string ip));
    W.attach h lan;
    h
  in
  let c = host "c" "10.0.0.1" clean and l = host "l" "10.0.1.1" lossy in
  let at_c = ref 0 and at_l = ref 0 in
  W.on_udp c ~port:9 (fun _ _ -> incr at_c);
  W.on_udp l ~port:9 (fun _ _ -> incr at_l);
  W.send w ~from:c ~dst:(Ip.of_string "10.0.1.1") ~dport:9 "in";
  W.send w ~from:l ~dst:(Ip.of_string "10.0.0.1") ~dport:9 "out";
  ignore (W.run w);
  check_int "clean sender reaches the lossy LAN" 1 !at_l;
  check_int "lossy sender is dropped" 0 !at_c;
  check_int "one fault drop" 1 (W.stats w).W.dropped_fault

(* Policy resolution has two levels: the sender's LAN policy, else the
   world default.  Two uplinked LANs with two hosts each run a random
   sequence of policy changes (drop 0 or 1) and unicasts; each unicast,
   run to completion, lands exactly when the policy its sender's LAN
   resolves to does not drop, whichever LAN the receiver is on. *)
type policy_op =
  | Set_default of bool  (* drops? *)
  | Set_lan of int * bool
  | Clear_lan of int
  | Unicast of int * int  (* host indices 0..3; hosts 0-1 on LAN 0 *)

let gen_policy_op =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun d -> Set_default d) bool);
      (2, map2 (fun l d -> Set_lan (l, d)) (0 -- 1) bool);
      (1, map (fun l -> Clear_lan l) (0 -- 1));
      ( 6,
        map2
          (fun s d -> Unicast (s, if d >= s then d + 1 else d))
          (0 -- 3) (0 -- 2) );
    ]

let show_policy_op = function
  | Set_default d -> Printf.sprintf "default drop=%b" d
  | Set_lan (l, d) -> Printf.sprintf "lan%d drop=%b" l d
  | Clear_lan l -> Printf.sprintf "clear lan%d" l
  | Unicast (s, d) -> Printf.sprintf "h%d->h%d" s d

let prop_policy_resolution =
  QCheck.Test.make ~name:"unicast fate = sender's LAN policy, else default" ~count:200
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_policy_op ops))
        Gen.(list_size (1 -- 40) gen_policy_op))
    (fun ops ->
      let w = W.create ~seed:5 () in
      let lans = [| W.add_lan w ~name:"lan0"; W.add_lan w ~name:"lan1" |] in
      W.set_uplink lans.(1) (Some lans.(0));
      let hosts =
        Array.init 4 (fun i ->
            let h = W.add_host w ~name:(Printf.sprintf "h%d" i) in
            W.set_host_ip h (Some (Ip.of_string (Printf.sprintf "10.0.%d.%d" (i / 2) (i + 1))));
            W.attach h lans.(i / 2);
            h)
      in
      let hits = ref 0 in
      Array.iter (fun h -> W.on_udp h ~port:9 (fun _ _ -> incr hits)) hosts;
      let policy drops = if drops then drop_all else F.default in
      let default = ref false and lan = [| None; None |] in
      List.for_all
        (function
          | Set_default d ->
              default := d;
              W.set_default_policy w (policy d);
              true
          | Set_lan (l, d) ->
              lan.(l) <- Some d;
              W.set_lan_policy w lans.(l) (policy d);
              true
          | Clear_lan l ->
              lan.(l) <- None;
              W.clear_lan_policy w lans.(l);
              true
          | Unicast (s, d) ->
              let drops = Option.value lan.(s / 2) ~default:!default in
              let before = !hits in
              W.send w ~from:hosts.(s) ~dst:(Option.get (W.host_ip hosts.(d))) ~dport:9 "x";
              ignore (W.run w);
              !hits - before = if drops then 0 else 1)
        ops)

let test_corruption_flips_bytes () =
  let w, lan, a, b = two_hosts () in
  W.set_lan_policy w lan { F.default with F.corrupt = 1.0 };
  let got = ref None in
  W.on_udp b ~port:9 (fun _ d -> got := Some d.W.payload);
  W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "payload";
  ignore (W.run w);
  (match !got with
  | None -> Alcotest.fail "corrupted datagram still delivers"
  | Some p ->
      check_int "same length" 7 (String.length p);
      check_bool "at least one byte differs" true (p <> "payload"));
  check_int "corruption counted" 1 (W.stats w).W.corrupted

let test_duplication_delivers_twice () =
  let w, lan, a, b = two_hosts () in
  W.set_lan_policy w lan { F.default with F.duplicate = 1.0 };
  let hits = ref 0 in
  W.on_udp b ~port:9 (fun _ _ -> incr hits);
  W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "x";
  ignore (W.run w);
  check_int "two copies" 2 !hits;
  check_int "one duplication event" 1 (W.stats w).W.duplicated;
  check_int "both count as delivered" 2 (W.stats w).W.delivered

let test_flap_window_drops_then_recovers () =
  let w, lan, a, b = two_hosts () in
  W.set_lan_policy w lan
    { F.default with F.flaps = [ (0, 10_000_000) ] };
  let hits = ref 0 in
  W.on_udp b ~port:9 (fun _ _ -> incr hits);
  W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "during";
  Sim.schedule (W.sim w) ~delay:20_000_000 (fun _ ->
      W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "after");
  ignore (W.run w);
  check_int "only post-flap datagram lands" 1 !hits;
  check_int "flap drop counted" 1 (W.stats w).W.dropped_link

let test_partition_blocks_then_heals () =
  let w = W.create () in
  let internet = W.add_lan w ~name:"internet" in
  let home = W.add_lan w ~name:"home" in
  W.set_uplink home (Some internet);
  let server = W.add_host w ~name:"server" in
  W.set_host_ip server (Some (Ip.of_string "8.8.8.8"));
  W.attach server internet;
  let client = W.add_host w ~name:"client" in
  W.set_host_ip client (Some (Ip.of_string "192.168.1.5"));
  W.attach client home;
  let hits = ref 0 in
  W.on_udp server ~port:53 (fun _ _ -> incr hits);
  W.partition w home internet;
  check_bool "partitioned" true (W.partitioned w home internet);
  W.send w ~from:client ~dst:(Ip.of_string "8.8.8.8") ~dport:53 "q";
  ignore (W.run w);
  check_int "no route across partition" 0 !hits;
  check_int "counted as no-route" 1 (W.stats w).W.no_route;
  W.heal w home internet;
  check_bool "healed" false (W.partitioned w home internet);
  W.send w ~from:client ~dst:(Ip.of_string "8.8.8.8") ~dport:53 "q2";
  ignore (W.run w);
  check_int "route restored" 1 !hits

(* The route search over a deeper multi-LAN topology: a chain of uplinks
   with side branches, exercising the queue-based BFS (the seed
   implementation's list-append search was quadratic and is gone). *)
let test_multi_lan_routing () =
  let w = W.create () in
  let lans =
    Array.init 8 (fun i -> W.add_lan w ~name:(Printf.sprintf "lan%d" i))
  in
  for i = 0 to 6 do
    W.set_uplink lans.(i) (Some lans.(i + 1))
  done;
  (* Side branches that dead-end, so the search must skip past them. *)
  for i = 0 to 3 do
    let stub = W.add_lan w ~name:(Printf.sprintf "stub%d" i) in
    W.set_uplink stub (Some lans.(i))
  done;
  let src = W.add_host w ~name:"src" in
  W.set_host_ip src (Some (Ip.of_string "10.0.0.1"));
  W.attach src lans.(0);
  let dst = W.add_host w ~name:"dst" in
  W.set_host_ip dst (Some (Ip.of_string "10.0.7.1"));
  W.attach dst lans.(7);
  let hits = ref 0 in
  W.on_udp dst ~port:9 (fun _ _ -> incr hits);
  W.send w ~from:src ~dst:(Ip.of_string "10.0.7.1") ~dport:9 "deep";
  ignore (W.run w);
  check_int "routed across 8 lans" 1 !hits;
  (* Severing a middle edge cuts the only path. *)
  W.partition w lans.(3) lans.(4);
  W.send w ~from:src ~dst:(Ip.of_string "10.0.7.1") ~dport:9 "cut";
  ignore (W.run w);
  check_int "partition mid-chain blocks" 1 !hits

let test_policy_validation () =
  Alcotest.check_raises "drop out of range"
    (Invalid_argument "Faults.validate: drop must be in [0, 1]")
    (fun () -> ignore (F.validate { F.default with F.drop = 1.5 }));
  Alcotest.check_raises "bad uniform latency"
    (Invalid_argument "Faults.validate: latency range must satisfy 0 <= lo < hi")
    (fun () ->
      ignore (F.validate { F.default with F.latency = F.Uniform { lo = 9; hi = 9 } }))

(* --- wifi --- *)

let test_wifi_prefers_strongest () =
  let w = W.create () in
  let lan1 = W.add_lan w ~name:"legit" in
  let lan2 = W.add_lan w ~name:"rogue" in
  let weak = Netsim.Wifi.ap ~name:"weak" ~ssid:"Net" ~signal_dbm:(-70) lan1 in
  let strong = Netsim.Wifi.ap ~name:"strong" ~ssid:"Net" ~signal_dbm:(-30) lan2 in
  let other = Netsim.Wifi.ap ~name:"other" ~ssid:"Else" ~signal_dbm:(-10) lan1 in
  let sta = W.add_host w ~name:"sta" in
  (match Netsim.Wifi.associate sta [ weak; strong; other ] ~ssid:"Net" with
  | Some ap -> check_string "strongest matching ssid" "strong" ap.Netsim.Wifi.ap_name
  | None -> Alcotest.fail "no ap");
  check_bool "joined rogue lan" true
    (match W.lan_of sta with Some l -> W.lan_name l = "rogue" | None -> false);
  check_bool "lease cleared" true (W.host_ip sta = None)

let test_wifi_no_match () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let ap = Netsim.Wifi.ap ~name:"ap" ~ssid:"A" ~signal_dbm:(-50) lan in
  let sta = W.add_host w ~name:"sta" in
  check_bool "none" true (Netsim.Wifi.associate sta [ ap ] ~ssid:"B" = None)

(* --- dhcp --- *)

let test_dhcp_configures_client () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let server = W.add_host w ~name:"dhcpd" in
  W.set_host_ip server (Some (Ip.of_string "192.168.1.1"));
  W.attach server lan;
  Netsim.Dhcp.serve w server ~first_ip:(Ip.of_string "192.168.1.100")
    ~dns:(Ip.of_string "9.9.9.9");
  let client = W.add_host w ~name:"client" in
  W.attach client lan;
  let configured = ref false in
  Netsim.Dhcp.solicit w client ~on_configured:(fun _ -> configured := true) ();
  ignore (W.run w);
  check_bool "callback" true !configured;
  Alcotest.(check (option string)) "leased ip" (Some "192.168.1.100")
    (Option.map Ip.to_string (W.host_ip client));
  Alcotest.(check (option string)) "dns option" (Some "9.9.9.9")
    (Option.map Ip.to_string (W.host_dns client))

let test_dhcp_stable_lease_and_sequential () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let server = W.add_host w ~name:"dhcpd" in
  W.set_host_ip server (Some (Ip.of_string "10.0.0.1"));
  W.attach server lan;
  Netsim.Dhcp.serve w server ~first_ip:(Ip.of_string "10.0.0.100")
    ~dns:(Ip.of_string "10.0.0.1");
  let c1 = W.add_host w ~name:"c1" in
  let c2 = W.add_host w ~name:"c2" in
  W.attach c1 lan;
  W.attach c2 lan;
  Netsim.Dhcp.solicit w c1 ();
  Netsim.Dhcp.solicit w c2 ();
  ignore (W.run w);
  let ip h = Option.map Ip.to_string (W.host_ip h) in
  Alcotest.(check (option string)) "c1" (Some "10.0.0.100") (ip c1);
  Alcotest.(check (option string)) "c2" (Some "10.0.0.101") (ip c2);
  (* Re-solicit: same lease. *)
  Netsim.Dhcp.solicit w c1 ();
  ignore (W.run w);
  Alcotest.(check (option string)) "stable" (Some "10.0.0.100") (ip c1)

(* --- dns servers --- *)

let test_resolver_answers_zone () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let server = W.add_host w ~name:"dns" in
  W.set_host_ip server (Some (Ip.of_string "8.8.8.8"));
  W.attach server lan;
  Netsim.Dns_server.resolver w server
    ~zone:[ ("example.com", Ip.of_string "93.184.216.34") ];
  let client = W.add_host w ~name:"client" in
  W.set_host_ip client (Some (Ip.of_string "10.0.0.5"));
  W.attach client lan;
  let answer = ref None in
  W.on_udp client ~port:5353 (fun _ d ->
      match Dns.Packet.decode d.W.payload with
      | Ok m -> answer := Some m
      | Error _ -> ());
  let query = Dns.Packet.query ~id:7 (Dns.Name.of_string "example.com") Dns.Packet.A in
  W.send w ~from:client ~sport:5353 ~dst:(Ip.of_string "8.8.8.8") ~dport:53
    (Dns.Packet.encode query);
  ignore (W.run w);
  match !answer with
  | Some m ->
      check_int "id echo" 7 m.Dns.Packet.header.Dns.Packet.id;
      check_int "one answer" 1 (List.length m.Dns.Packet.answers);
      check_bool "right ip" true
        (Dns.Packet.ipv4_of_rdata (List.hd m.Dns.Packet.answers).Dns.Packet.rdata
        = Some (Ip.of_string "93.184.216.34"))
  | None -> Alcotest.fail "no answer"

let test_resolver_empty_for_unknown () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let server = W.add_host w ~name:"dns" in
  W.set_host_ip server (Some (Ip.of_string "8.8.8.8"));
  W.attach server lan;
  Netsim.Dns_server.resolver w server ~zone:[];
  let client = W.add_host w ~name:"client" in
  W.set_host_ip client (Some (Ip.of_string "10.0.0.5"));
  W.attach client lan;
  let answers = ref (-1) in
  W.on_udp client ~port:5353 (fun _ d ->
      match Dns.Packet.decode d.W.payload with
      | Ok m -> answers := List.length m.Dns.Packet.answers
      | Error _ -> ());
  let query = Dns.Packet.query ~id:8 (Dns.Name.of_string "nope.example") Dns.Packet.A in
  W.send w ~from:client ~sport:5353 ~dst:(Ip.of_string "8.8.8.8") ~dport:53
    (Dns.Packet.encode query);
  ignore (W.run w);
  check_int "empty answer section" 0 !answers

let test_resolver_chases_cnames () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let server = W.add_host w ~name:"dns" in
  W.set_host_ip server (Some (Ip.of_string "8.8.8.8"));
  W.attach server lan;
  Netsim.Dns_server.resolver w server
    ~cnames:[ ("www.example.com", "cdn.example.net"); ("cdn.example.net", "edge.example.net") ]
    ~zone:[ ("edge.example.net", Ip.of_string "198.51.100.7") ];
  let client = W.add_host w ~name:"client" in
  W.set_host_ip client (Some (Ip.of_string "10.0.0.5"));
  W.attach client lan;
  let answer = ref None in
  W.on_udp client ~port:5353 (fun _ d ->
      match Dns.Packet.decode d.W.payload with
      | Ok m -> answer := Some m
      | Error _ -> ());
  let query =
    Dns.Packet.query ~id:9 (Dns.Name.of_string "www.example.com") Dns.Packet.A
  in
  W.send w ~from:client ~sport:5353 ~dst:(Ip.of_string "8.8.8.8") ~dport:53
    (Dns.Packet.encode query);
  ignore (W.run w);
  match !answer with
  | Some m ->
      check_int "chain of 3 records" 3 (List.length m.Dns.Packet.answers);
      let kinds = List.map (fun (r : Dns.Packet.rr) -> r.Dns.Packet.rtype) m.Dns.Packet.answers in
      check_bool "two cnames then an A" true
        (kinds = [ Dns.Packet.CNAME; Dns.Packet.CNAME; Dns.Packet.A ]);
      (match List.nth m.Dns.Packet.answers 0 with
      | { Dns.Packet.rdata; _ } ->
          check_bool "cname rdata decodes" true
            (Dns.Packet.cname_of_rdata rdata
            = Some (Dns.Name.of_string "cdn.example.net")));
      check_bool "terminal A" true
        (Dns.Packet.ipv4_of_rdata (List.nth m.Dns.Packet.answers 2).Dns.Packet.rdata
        = Some (Ip.of_string "198.51.100.7"))
  | None -> Alcotest.fail "no answer"

let test_resolver_uses_cache () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let server = W.add_host w ~name:"dns" in
  W.set_host_ip server (Some (Ip.of_string "8.8.8.8"));
  W.attach server lan;
  let cache = Dns.Cache.create ~capacity:64 () in
  Netsim.Dns_server.resolver ~cache w server
    ~zone:[ ("example.com", Ip.of_string "93.184.216.34") ];
  let client = W.add_host w ~name:"client" in
  W.set_host_ip client (Some (Ip.of_string "10.0.0.5"));
  W.attach client lan;
  let answers = ref [] in
  W.on_udp client ~port:5353 (fun _ d ->
      match Dns.Packet.decode d.W.payload with
      | Ok m -> answers := m :: !answers
      | Error _ -> ());
  let ask id name =
    let query = Dns.Packet.query ~id (Dns.Name.of_string name) Dns.Packet.A in
    W.send w ~from:client ~sport:5353 ~dst:(Ip.of_string "8.8.8.8") ~dport:53
      (Dns.Packet.encode query);
    (* Run to quiescence between queries so the second lookup is
       guaranteed to observe the first one's cache fill. *)
    ignore (W.run w)
  in
  ask 1 "example.com";
  ask 2 "example.com";
  ask 3 "ghost.example";
  ask 4 "ghost.example";
  check_int "four answers" 4 (List.length !answers);
  List.iter
    (fun (m : Dns.Packet.t) ->
      let n = List.length m.Dns.Packet.answers in
      match m.Dns.Packet.header.Dns.Packet.id with
      | 1 | 2 ->
          check_int "known name answered" 1 n;
          check_bool "cached answer keeps the right ip" true
            (Dns.Packet.ipv4_of_rdata
               (List.hd m.Dns.Packet.answers).Dns.Packet.rdata
            = Some (Ip.of_string "93.184.216.34"))
      | _ -> check_int "unknown name empty" 0 n)
    !answers;
  let s = Dns.Cache.stats cache in
  check_int "second query served from cache" 1 s.Dns.Cache.hits;
  check_int "repeat unknown is a negative hit" 1 s.Dns.Cache.negative_hits;
  check_int "one positive + one negative fill" 2 s.Dns.Cache.insertions

let test_malicious_forges () =
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let server = W.add_host w ~name:"evil" in
  W.set_host_ip server (Some (Ip.of_string "6.6.6.6"));
  W.attach server lan;
  Netsim.Dns_server.malicious w server ~forge:(fun ~query ~raw:_ ->
      Some
        (Dns.Craft.hostile_response ~query
           ~raw_name:(Result.get_ok (Dns.Craft.plan_labels (Dns.Craft.spec_any 16)))
           ()));
  let client = W.add_host w ~name:"client" in
  W.set_host_ip client (Some (Ip.of_string "10.0.0.5"));
  W.attach client lan;
  let got = ref None in
  W.on_udp client ~port:5353 (fun _ d -> got := Some d.W.payload);
  let query = Dns.Packet.query ~id:0x42 (Dns.Name.of_string "x.y") Dns.Packet.A in
  W.send w ~from:client ~sport:5353 ~dst:(Ip.of_string "6.6.6.6") ~dport:53
    (Dns.Packet.encode query);
  ignore (W.run w);
  match !got with
  | Some wire ->
      check_int "id echoed by forgery" 0x42
        ((Char.code wire.[0] lsl 8) lor Char.code wire.[1])
  | None -> Alcotest.fail "no forged response"

(* --- clock regressions --- *)

(* Regression: [Sim.run ?until] used to leave the clock wherever the
   last event fired when the heap drained before the horizon, so a
   subsequent [schedule ~delay] was anchored too early. *)
let test_sim_until_advances_clock () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:10 (fun _ -> ());
  ignore (Sim.run ~until:1000 sim);
  check_int "clock at horizon after early drain" 1000 (Sim.now sim);
  ignore (Sim.run ~until:2500 sim);
  check_int "empty heap still advances" 2500 (Sim.now sim);
  let fired_at = ref 0 in
  Sim.schedule sim ~delay:7 (fun s -> fired_at := Sim.now s);
  ignore (Sim.run sim);
  check_int "delay anchored at the horizon" 2507 !fired_at

(* The heap orders by time, then by schedule order: with many equal
   timestamps, events still fire in the order they were scheduled. *)
let prop_sim_equal_times_fifo =
  QCheck.Test.make ~name:"equal timestamps fire FIFO" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (int_bound 8))
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iteri
        (fun i d -> Sim.schedule sim ~delay:d (fun _ -> fired := i :: !fired))
        delays;
      ignore (Sim.run sim);
      let expected =
        List.mapi (fun i d -> (d, i)) delays |> List.sort compare |> List.map snd
      in
      List.rev !fired = expected)

(* --- one-heap world --- *)

(* Every LAN's traffic fires on the world's one heap, so a datagram
   that crosses LANs arrives exactly one link latency after it was
   sent, and its reply one latency later. *)
let test_cross_lan_latency () =
  let w = W.create ~seed:11 () in
  let lan_a = W.add_lan w ~name:"lan-a" in
  let lan_b = W.add_lan w ~name:"lan-b" in
  W.set_uplink lan_b (Some lan_a);
  let a = W.add_host w ~name:"a" in
  let b = W.add_host w ~name:"b" in
  W.set_host_ip a (Some (Ip.of_string "10.0.0.1"));
  W.set_host_ip b (Some (Ip.of_string "10.1.0.1"));
  W.attach a lan_a;
  W.attach b lan_b;
  let const_250 = { F.default with F.latency = F.Const 250 } in
  W.set_lan_policy w lan_a const_250;
  W.set_lan_policy w lan_b const_250;
  let got = ref [] in
  W.on_udp b ~port:9 (fun ctx d ->
      got := (W.now ctx.W.world, d.W.payload) :: !got;
      W.send ctx.W.world ~from:ctx.W.self ~sport:9 ~dst:d.W.src
        ~dport:d.W.sport "pong");
  let echoed = ref [] in
  W.on_udp a ~port:7 (fun ctx d ->
      echoed := (W.now ctx.W.world, d.W.payload) :: !echoed);
  W.send w ~from:a ~sport:7 ~dst:(Ip.of_string "10.1.0.1") ~dport:9 "ping";
  ignore (W.run w);
  Alcotest.(check (list (pair int string)))
    "request after one latency" [ (250, "ping") ] !got;
  Alcotest.(check (list (pair int string)))
    "reply after two latencies" [ (500, "pong") ] !echoed;
  check_int "delivered" 2 (W.stats w).W.delivered

(* A lossy scenario re-run from the same seed delivers exactly the same
   subset. *)
let test_world_seed_replay () =
  let outcome () =
    let w = W.create ~seed:21 () in
    let lan = W.add_lan w ~name:"lan" in
    let a = W.add_host w ~name:"a" in
    let b = W.add_host w ~name:"b" in
    W.set_host_ip a (Some (Ip.of_string "10.0.0.1"));
    W.set_host_ip b (Some (Ip.of_string "10.0.0.2"));
    W.attach a lan;
    W.attach b lan;
    W.set_default_policy w { (W.default_policy w) with F.drop = 0.5 };
    let got = ref [] in
    W.on_udp b ~port:9 (fun _ d -> got := d.W.payload :: !got);
    for i = 1 to 40 do
      W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9
        (string_of_int i)
    done;
    ignore (W.run w);
    (List.rev !got, (W.stats w).W.delivered, (W.stats w).W.dropped)
  in
  let ((_, delivered, dropped) as r1) = outcome () in
  check_bool "same seed, same fate" true (r1 = outcome ());
  check_int "everything accounted" 40 (delivered + dropped);
  check_bool "loss actually fired" true (dropped > 0)

(* With drop, corruption and reordering all active over two LANs, the
   delivery trace (receive time, dst, payload bytes, corrupted ones
   included) and the per-reason stats replay bit-identically from the
   same seed, and another seed draws a different trace. *)
let chaotic_policy =
  {
    F.default with
    F.drop = 0.15;
    corrupt = 0.2;
    reorder = 0.3;
    reorder_window_us = 2_000;
  }

let fault_outcome seed =
  let w = W.create ~seed () in
  W.set_default_policy w chaotic_policy;
  let trace = ref [] in
  let lane i =
    let lan = W.add_lan w ~name:(Printf.sprintf "lan-%d" i) in
    let tx = W.add_host w ~name:(Printf.sprintf "tx-%d" i) in
    let rx = W.add_host w ~name:(Printf.sprintf "rx-%d" i) in
    let dst = Ip.of_string (Printf.sprintf "10.%d.0.2" i) in
    W.set_host_ip tx (Some (Ip.of_string (Printf.sprintf "10.%d.0.1" i)));
    W.set_host_ip rx (Some dst);
    W.attach tx lan;
    W.attach rx lan;
    W.on_udp rx ~port:9 (fun ctx d ->
        trace := (W.now ctx.W.world, d.W.dst, d.W.payload) :: !trace);
    (tx, dst)
  in
  List.iteri
    (fun i (tx, dst) ->
      for k = 1 to 60 do
        W.send w ~from:tx ~sport:7 ~dst ~dport:9 (Printf.sprintf "m-%d-%02d" i k)
      done)
    (List.init 2 lane);
  ignore (W.run w);
  let s = W.stats w in
  ( List.rev !trace,
    ( s.W.delivered,
      s.W.dropped,
      s.W.dropped_fault,
      s.W.corrupted,
      s.W.reordered,
      s.W.duplicated ) )

let test_fault_replay () =
  let ((_, (_, _, dropped_fault, corrupted, reordered, _)) as r1) =
    fault_outcome 33
  in
  check_bool "same seed, bit-identical trace" true (r1 = fault_outcome 33);
  check_bool "every fault fired" true
    (dropped_fault > 0 && corrupted > 0 && reordered > 0);
  check_bool "another seed, another trace" false (r1 = fault_outcome 34)

(* [register_metrics] exposes each stats counter and the sim clock as
   one unlabelled series, and an idle world scrapes identically twice. *)
let test_metrics_exposition () =
  let w, _, a, b = two_hosts () in
  W.on_udp b ~port:9 (fun _ _ -> ());
  for _ = 1 to 5 do
    W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9 "ping"
  done;
  W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:10 "nobody";
  W.send w ~from:a ~dst:(Ip.of_string "203.0.113.9") ~dport:9 "x";
  ignore (W.run ~until:5_000 w);
  let reg = Telemetry.Metrics.create () in
  W.register_metrics w reg;
  let text = Telemetry.Metrics.expose reg in
  let value series =
    let n = String.length series in
    let line =
      List.find_opt
        (fun l ->
          String.length l > n + 1
          && String.equal (String.sub l 0 n) series
          && l.[n] = ' ')
        (String.split_on_char '\n' text)
    in
    match line with
    | Some l ->
        int_of_float
          (float_of_string (String.sub l (n + 1) (String.length l - n - 1)))
    | None -> Alcotest.failf "series %s not exposed:\n%s" series text
  in
  let s = W.stats w in
  check_int "delivered" 5 (value "netsim_delivered_total");
  check_int "delivered = stats" s.W.delivered (value "netsim_delivered_total");
  check_int "no_handler" 1 (value "netsim_no_handler_total");
  check_int "no_route" 1 (value "netsim_no_route_total");
  check_int "dropped = stats" s.W.dropped (value "netsim_dropped_total");
  check_int "clock" 5_000 (value "netsim_sim_now_us");
  check_string "scrape is reproducible" text (Telemetry.Metrics.expose reg)

(* [set_barrier] segments [run ~until]: each barrier sees every event
   at or before its time already fired (inclusive), and the clock ends
   at the horizon. *)
let test_barrier_drains_through () =
  let w = W.create () in
  let fired = ref 0 in
  List.iter
    (fun d -> Sim.schedule (W.sim w) ~delay:d (fun _ -> incr fired))
    [ 50; 100; 150; 250 ];
  let seen = ref [] in
  W.set_barrier w ~every_us:100 (fun b -> seen := (b, !fired) :: !seen);
  check_int "events" 4 (W.run ~until:300 w);
  Alcotest.(check (list (pair int int)))
    "barrier sees events through its time"
    [ (100, 2); (200, 3); (300, 4) ]
    (List.rev !seen);
  check_int "clock at horizon" 300 (W.now w);
  check_int "world clock is the sim clock" (Sim.now (W.sim w)) (W.now w)

(* Without [~until], barriers fire only while events remain pending;
   [clear_barrier] removes the hook, and a non-positive period is
   rejected. *)
let test_barrier_open_run_and_clear () =
  let w = W.create () in
  List.iter
    (fun d -> Sim.schedule (W.sim w) ~delay:d (fun _ -> ()))
    [ 50; 250 ];
  let seen = ref [] in
  W.set_barrier w ~every_us:100 (fun b -> seen := b :: !seen);
  check_int "events" 2 (W.run w);
  Alcotest.(check (list int)) "barriers while pending" [ 100; 200; 300 ]
    (List.rev !seen);
  W.clear_barrier w;
  Sim.schedule (W.sim w) ~delay:500 (fun _ -> ());
  check_int "one more event" 1 (W.run w);
  check_int "no hook after clear" 3 (List.length !seen);
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "World.set_barrier: every_us must be positive")
    (fun () -> W.set_barrier w ~every_us:0 (fun _ -> ()))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "netsim"
    [
      ( "ip",
        [ Alcotest.test_case "round-trip" `Quick test_ip_roundtrip; qt prop_ip_roundtrip ]
      );
      ( "sim",
        [
          Alcotest.test_case "timestamp ordering" `Quick test_sim_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "pop releases closures" `Quick
            test_sim_pop_releases_closures;
          Alcotest.test_case "until advances clock past drained heap" `Quick
            test_sim_until_advances_clock;
          qt prop_sim_many_events_ordered;
          qt prop_sim_equal_times_fifo;
        ] );
      ( "world",
        [
          Alcotest.test_case "cross-LAN delivery at link latency" `Quick
            test_cross_lan_latency;
          Alcotest.test_case "seed replay" `Quick test_world_seed_replay;
          Alcotest.test_case "fault injection replays" `Quick test_fault_replay;
          Alcotest.test_case "metrics exposition" `Quick
            test_metrics_exposition;
          Alcotest.test_case "barrier drains through its time" `Quick
            test_barrier_drains_through;
          Alcotest.test_case "barrier on an open run, then cleared" `Quick
            test_barrier_open_run_and_clear;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "unicast" `Quick test_unicast_delivery;
          Alcotest.test_case "unroutable dropped" `Quick test_unroutable_dropped;
          Alcotest.test_case "no handler dropped" `Quick test_no_handler_dropped;
          Alcotest.test_case "broadcast is LAN-local" `Quick
            test_broadcast_reaches_lan_only;
          Alcotest.test_case "uplink routing" `Quick test_uplink_routing;
          Alcotest.test_case "attach switches lan" `Quick test_attach_switches_lan;
        ] );
      ( "faults",
        [
          Alcotest.test_case "broadcast respects loss" `Quick
            test_broadcast_respects_loss;
          Alcotest.test_case "lan policy, then default" `Quick
            test_lan_policy_then_default;
          Alcotest.test_case "the sender's lan decides" `Quick
            test_sender_lan_decides;
          qt prop_policy_resolution;
          Alcotest.test_case "corruption flips bytes" `Quick
            test_corruption_flips_bytes;
          Alcotest.test_case "duplication delivers twice" `Quick
            test_duplication_delivers_twice;
          Alcotest.test_case "flap window" `Quick
            test_flap_window_drops_then_recovers;
          Alcotest.test_case "partition blocks then heals" `Quick
            test_partition_blocks_then_heals;
          Alcotest.test_case "multi-lan routing" `Quick test_multi_lan_routing;
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
        ] );
      ( "wifi",
        [
          Alcotest.test_case "prefers strongest signal" `Quick
            test_wifi_prefers_strongest;
          Alcotest.test_case "no ssid match" `Quick test_wifi_no_match;
        ] );
      ( "dhcp",
        [
          Alcotest.test_case "configures client" `Quick test_dhcp_configures_client;
          Alcotest.test_case "stable + sequential leases" `Quick
            test_dhcp_stable_lease_and_sequential;
        ] );
      ( "dns servers",
        [
          Alcotest.test_case "resolver answers zone" `Quick test_resolver_answers_zone;
          Alcotest.test_case "resolver empty for unknown" `Quick
            test_resolver_empty_for_unknown;
          Alcotest.test_case "resolver chases CNAMEs" `Quick
            test_resolver_chases_cnames;
          Alcotest.test_case "resolver uses cache" `Quick
            test_resolver_uses_cache;
          Alcotest.test_case "malicious forges" `Quick test_malicious_forges;
        ] );
    ]
