let reply ctx dgram response =
  World.send ctx.World.world ~from:ctx.World.self ~sport:53
    ~dst:dgram.World.src ~dport:dgram.World.sport response

let zone_ttl = 300
let negative_ttl = 60

(* The resolver's answer cache runs on the simulation clock (µs → s). *)
let now_s ctx = Sim.now (World.sim ctx.World.world) / 1_000_000

let resolver ?(cnames = []) ?cache _world host ~zone =
  (* Per-resolver reusable codec state: queries are validated through the
     zero-copy view and responses are encoded into the arena. *)
  let view = Dns.Wire.create_view () in
  let arena = Dns.Wire.arena ~capacity:256 () in
  World.on_udp host ~port:53 (fun ctx dgram ->
      let payload = dgram.World.payload in
      match Dns.Wire.parse view payload with
      | Error _ -> ()
      | Ok () -> (
          match Dns.Wire.qdcount view with
          | 1 ->
              (* [Packet.response] echoes only the header and question,
                 so a query's other sections never reach the reply. *)
              let query = Dns.Packet.of_view view payload in
              let q = List.hd query.Dns.Packet.questions in
              (* Chase CNAMEs within the local zone (bounded), answering
                 with the chain plus the terminal A record, as a real
                 recursive resolver does. *)
              let rec chase name chain hops =
                if hops > 4 then List.rev chain
                else
                  match List.assoc_opt name cnames with
                  | Some target ->
                      chase target
                        (Dns.Packet.cname_record (Dns.Name.of_string name)
                           ~ttl:zone_ttl
                           ~target:(Dns.Name.of_string target)
                        :: chain)
                        (hops + 1)
                  | None -> (
                      match List.assoc_opt name zone with
                      | Some ip ->
                          List.rev
                            (Dns.Packet.a_record (Dns.Name.of_string name)
                               ~ttl:zone_ttl ~ipv4:ip
                            :: chain)
                      | None -> List.rev chain)
              in
              let qname = Dns.Name.to_string q.Dns.Packet.qname in
              let answer answers =
                Dns.Packet.encode_into arena (Dns.Packet.response ~query answers);
                reply ctx dgram (Dns.Wire.contents arena)
              in
              let resolve_and_fill () =
                let answers = chase qname [] 0 in
                (match cache with
                | None -> ()
                | Some c -> (
                    let now = now_s ctx in
                    (* Cache the terminal A under the *queried* name (a
                       stub cache collapses the chain), or the absence
                       of one as a negative entry. *)
                    let terminal =
                      List.find_map
                        (fun (rr : Dns.Packet.rr) ->
                          if rr.Dns.Packet.rtype = Dns.Packet.A then
                            Dns.Packet.ipv4_of_rdata rr.Dns.Packet.rdata
                          else None)
                        answers
                    in
                    match terminal with
                    | Some ip ->
                        Dns.Cache.insert c ~now ~name:qname ~ttl:zone_ttl
                          ~ipv4:ip
                    | None ->
                        Dns.Cache.insert_negative c ~now ~name:qname
                          ~ttl:negative_ttl));
                answer answers
              in
              (match (q.Dns.Packet.qtype, cache) with
              | Dns.Packet.A, Some c -> (
                  match Dns.Cache.find c ~now:(now_s ctx) qname with
                  | Dns.Cache.Hit ip ->
                      answer
                        [
                          Dns.Packet.a_record q.Dns.Packet.qname ~ttl:zone_ttl
                            ~ipv4:ip;
                        ]
                  | Dns.Cache.Negative_hit -> answer []
                  | Dns.Cache.Miss -> resolve_and_fill ())
              | Dns.Packet.A, None -> answer (chase qname [] 0)
              | _ -> answer [])
          | _ -> ()))

(* NOTE: [malicious] below stays on the materializing [Packet.decode] —
   it is the attacker's box, runs cold, and its [forge] callback wants
   the whole query anyway. *)

let malicious _world host ~forge =
  World.on_udp host ~port:53 (fun ctx dgram ->
      match Dns.Packet.decode dgram.World.payload with
      | Error _ -> ()
      | Ok query -> (
          match forge ~query ~raw:dgram.World.payload with
          | Some response -> reply ctx dgram response
          | None -> ()))
