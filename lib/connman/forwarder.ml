module O = Machine.Outcome
module Service = Loader.Service
module Tr = Telemetry.Trace

type disposition =
  | Cached of int
  | Dropped of string
  | Crashed of O.stop_reason
  | Compromised of O.stop_reason
  | Blocked of O.stop_reason

let pp_disposition ppf = function
  | Cached n -> Format.fprintf ppf "cached %d record(s)" n
  | Dropped why -> Format.fprintf ppf "dropped (%s)" why
  | Crashed r -> Format.fprintf ppf "CRASHED: %a" O.pp r
  | Compromised r -> Format.fprintf ppf "COMPROMISED: %a" O.pp r
  | Blocked r -> Format.fprintf ppf "blocked by defense: %a" O.pp r

(* SOA-minimum stand-in: how long an NXDOMAIN is believed. *)
let negative_ttl = 60

module type DAEMON = sig
  type config

  val daemon : Service.daemon
  val id_base : int
  val spec : config -> Loader.Process.spec * Diversity.Variant.plan option
  val profile : config -> Defense.Profile.t
  val boot_seed : config -> int
end

module Make (D : DAEMON) = struct
  type t = {
    config : D.config;
    svc : Service.t;
    plan : Diversity.Variant.plan option;  (* of the variant it runs *)
    mutable next_id : int;
    pending : (int, Dns.Packet.question) Hashtbl.t;
    view : Dns.Wire.view;  (* reusable zero-copy parse state (host side) *)
    cache : Dns.Cache.t;
    mutable clock : int;  (* logical seconds, advanced by [tick] *)
  }

  (* Fresh host-side state around a booted or forked service. *)
  let make config ~plan svc =
    {
      config;
      svc;
      plan;
      next_id = D.id_base + (D.boot_seed config land 0xFFF);
      pending = Hashtbl.create 8;
      view = Dns.Wire.create_view ();
      cache = Dns.Cache.create ();
      clock = 0;
    }

  let boot config (spec, plan) =
    make config ~plan
      (Service.boot D.daemon spec ~profile:(D.profile config) ~boot_seed:(D.boot_seed config))

  let create config = boot config (D.spec config)
  let fork t = make t.config ~plan:t.plan (Service.fork t.svc)

  let fork_variant t config =
    let ((spec, plan) as built) = D.spec config in
    match Service.fork_variant t.svc spec with
    | None -> boot config built
    | Some svc -> make config ~plan svc

  let config t = t.config
  let variant_plan t = t.plan
  let process t = Service.process t.svc
  let alive t = Service.alive t.svc
  let last_steps t = Service.last_steps t.svc
  let peek_pending t id = Hashtbl.find_opt t.pending id
  let set_trace t tr = Service.set_trace t.svc tr
  let set_profiler t p = Service.set_profiler t.svc p
  let set_sanitizer t o = Service.set_sanitizer t.svc o
  let sanitizer t = Service.sanitizer t.svc
  let negative_ttl = negative_ttl

  let restart t =
    Hashtbl.reset t.pending;
    Service.restart t.svc

  let make_query t qname =
    let id = t.next_id land 0xFFFF in
    t.next_id <- t.next_id + 1;
    let q = Dns.Packet.query ~id qname Dns.Packet.A in
    Hashtbl.replace t.pending id (List.hd q.Dns.Packet.questions);
    Service.event t.svc "query"
      [ ("qname", Tr.S (Dns.Name.to_string qname)); ("id", Tr.I id) ];
    q

  let u16 wire off = (Char.code wire.[off] lsl 8) lor Char.code wire.[off + 1]

  (* The pending question a response answers: an outstanding id whose
     question is on the wire, compared in place rather than
     materialized.  Callers have checked the fixed header. *)
  let answered t wire =
    match Hashtbl.find_opt t.pending (u16 wire 0) with
    | None -> Error "unknown transaction id"
    | Some pending -> (
        match Dns.Wire.name_equal_consumed wire 12 pending.Dns.Packet.qname with
        | Error e -> Error ("bad question: " ^ e)
        | Ok (false, _) -> Error "question mismatch"
        | Ok (true, used) ->
            if 12 + used + 4 > String.length wire then Error "truncated question"
            else Ok pending)

  (* Host-side pre-validation, standing in for the header/flag checks
     dnsproxy.c performs before reaching get_name.  Reads only
     fixed-offset header fields and the (strictly parsed) question —
     never the answer's owner name, which is exactly the field the
     vulnerable path expands. *)
  let prevalidate t wire =
    if String.length wire < 12 then Error "short packet"
    else if (u16 wire 2 lsr 15) land 1 <> 1 then Error "not a response"
    else if u16 wire 2 land 0xF <> 0 then Error "error rcode"
    else if u16 wire 4 <> 1 then Error "qdcount != 1"
    else if u16 wire 6 < 1 then Error "no answers"
    else
      Result.map
        (fun _ -> Hashtbl.remove t.pending (u16 wire 0))
        (answered t wire)

  (* An NXDOMAIN answering a pending question (same header and question
     checks, rcode 3 in place of 0) is terminal for that lookup: record
     it as a negative cache entry, so repeated queries for a name known
     to be absent are absorbed host-side, and drop the datagram before
     it ever reaches the vulnerable parse. *)
  let nxdomain_negative t wire =
    String.length wire >= 12
    && (u16 wire 2 lsr 15) land 1 = 1
    && u16 wire 2 land 0xF = 3
    && u16 wire 4 = 1
    &&
    match answered t wire with
    | Error _ -> false
    | Ok pending ->
        Hashtbl.remove t.pending (u16 wire 0);
        Dns.Cache.insert_negative t.cache ~now:t.clock
          ~name:(Dns.Name.to_string pending.Dns.Packet.qname)
          ~ttl:negative_ttl;
        true

  (* Update the host-visible cache on a successful parse: validate with
     the reusable zero-copy view and record A answers with their TTLs
     straight off the wire — the only materialization is the dotted
     owner name the cache is keyed by.  Returns the records inserted.
     (The machine-level cache_store keeps the guest .bss in sync with a
     prefix copy.) *)
  let update_cache t wire =
    match Dns.Wire.parse t.view wire with
    | Error _ -> 0
    | Ok () ->
        let n = ref 0 in
        (* Answers occupy rr indices [0, ancount). *)
        for i = 0 to Dns.Wire.ancount t.view - 1 do
          if
            Dns.Wire.rr_rtype t.view i = Dns.Packet.qtype_code Dns.Packet.A
            && Dns.Wire.rr_rdlen t.view i = 4
          then begin
            Dns.Cache.insert t.cache ~now:t.clock
              ~name:(Dns.Wire.name_to_string wire (Dns.Wire.rr_name t.view i))
              ~ttl:(Dns.Wire.rr_ttl t.view i)
              ~ipv4:(Dns.Wire.get_u32 wire (Dns.Wire.rr_rdata t.view i));
            incr n
          end
        done;
        !n

  let disposition_event t d =
    let reason r = [ ("reason", Tr.S (O.to_string r)) ] in
    match d with
    | Cached n -> Service.event t.svc "cached" [ ("records", Tr.I n) ]
    | Dropped why -> Service.event t.svc "drop" [ ("reason", Tr.S why) ]
    | Crashed r -> Service.event t.svc "crashed" (reason r)
    | Compromised r -> Service.event t.svc "compromised" (reason r)
    | Blocked r -> Service.event t.svc "blocked" (reason r)

  let handle_response ?(origin = "udp") t wire =
    Service.event t.svc "rx-response" [ ("bytes", Tr.I (String.length wire)) ];
    let d =
      if not (Service.alive t.svc) then Dropped "daemon not running"
      else if nxdomain_negative t wire then Dropped "nxdomain (negative cached)"
      else
        match prevalidate t wire with
        | Error why -> Dropped why
        | Ok () -> (
            match Service.call t.svc ~origin wire with
            | Service.Returned _ -> Cached (update_cache t wire)
            | Service.Oversized -> Dropped "oversized datagram"
            | Service.Compromised r -> Compromised r
            | Service.Crashed r -> Crashed r
            | Service.Blocked r -> Blocked r)
    in
    disposition_event t d;
    d

  let cache_lookup t qname =
    let r = Dns.Cache.lookup t.cache ~now:t.clock (Dns.Name.to_string qname) in
    if Service.trace t.svc <> None then
      Service.event t.svc
        (match r with Some _ -> "cache-hit" | None -> "cache-miss")
        [ ("qname", Tr.S (Dns.Name.to_string qname)) ];
    r

  let cache_find t qname =
    Dns.Cache.find t.cache ~now:t.clock (Dns.Name.to_string qname)

  let cache t = t.cache
  let cache_stats t = Dns.Cache.stats t.cache
  let tick t seconds = t.clock <- t.clock + max 0 seconds

  let register_metrics t reg =
    Service.register_metrics t.svc reg;
    Dns.Cache.register_metrics t.cache reg ~prefix:D.daemon.Service.track
end
