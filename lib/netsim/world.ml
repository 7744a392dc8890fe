type datagram = {
  src : Ip.t;
  sport : int;
  dst : Ip.t;
  dport : int;
  payload : string;
}

type stats = {
  mutable delivered : int;
  mutable dropped : int;  (* total, every reason below *)
  mutable dropped_fault : int;
  mutable dropped_link : int;
  mutable no_route : int;
  mutable no_handler : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
}

(* One event heap (with its RNG) and one stats record drive every LAN. *)
type t = {
  wsim : Sim.t;
  wstats : stats;
  mutable lans : lan list;
  mutable hosts : host list;
  mutable next_id : int;  (* host/lan id source (policy and visited keys) *)
  mutable default_policy : Faults.policy;
  lan_policies : (int, Faults.policy) Hashtbl.t;  (* sender's LAN id *)
  mutable severed : (int * int) list;  (* partitioned LAN-id pairs *)
  mutable trace : Telemetry.Trace.t option;
  mutable barrier : (int * (int -> unit)) option;  (* (every_us, hook) *)
}

and lan = {
  lid : int;
  lname : string;
  mutable members : host list;
  mutable uplink : lan option;
}

and host = {
  hid : int;
  hname : string;
  mutable hip : Ip.t option;
  mutable hdns : Ip.t option;
  mutable hlan : lan option;
  mutable handlers : (int * (ctx -> datagram -> unit)) list;
}

and ctx = { world : t; self : host }

let zero_stats () =
  {
    delivered = 0;
    dropped = 0;
    dropped_fault = 0;
    dropped_link = 0;
    no_route = 0;
    no_handler = 0;
    corrupted = 0;
    duplicated = 0;
    reordered = 0;
  }

let create ?(seed = 7) () =
  {
    wsim = Sim.create ~seed ();
    wstats = zero_stats ();
    lans = [];
    hosts = [];
    next_id = 0;
    default_policy = Faults.default;
    lan_policies = Hashtbl.create 8;
    severed = [];
    trace = None;
    barrier = None;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let sim t = t.wsim
let stats t = t.wstats

let set_trace t tr = t.trace <- tr
let trace t = t.trace

(* Every net event first advances the trace's shared clock to sim-now,
   so layers without a clock of their own (daemons, supervisor)
   timestamp against a current µs. *)
let trace_event t name args =
  match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.set_now tr (Sim.now t.wsim);
      Telemetry.Trace.emit tr ~cat:"net" ~track:"net" name ~args

let dgram_args dgram =
  [
    ("sport", Telemetry.Trace.I dgram.sport);
    ("dport", Telemetry.Trace.I dgram.dport);
    ("bytes", Telemetry.Trace.I (String.length dgram.payload));
  ]

(* --- impairment policies ------------------------------------------------ *)

let set_default_policy t p = t.default_policy <- Faults.validate p
let default_policy t = t.default_policy

let set_lan_policy t lan p =
  Hashtbl.replace t.lan_policies lan.lid (Faults.validate p)

let clear_lan_policy t lan = Hashtbl.remove t.lan_policies lan.lid

(* The sender's LAN policy, else the world default. *)
let policy_for t src =
  match src.hlan with
  | None -> t.default_policy
  | Some lan -> (
      match Hashtbl.find_opt t.lan_policies lan.lid with
      | Some p -> p
      | None -> t.default_policy)

(* --- topology ----------------------------------------------------------- *)

let add_lan t ~name =
  let lan = { lid = fresh_id t; lname = name; members = []; uplink = None } in
  t.lans <- lan :: t.lans;
  lan

let lan_name lan = lan.lname
let set_uplink lan up = lan.uplink <- up

let add_host t ~name =
  let host =
    { hid = fresh_id t; hname = name; hip = None; hdns = None; hlan = None;
      handlers = [] }
  in
  t.hosts <- host :: t.hosts;
  host

let host_name h = h.hname
let host_ip h = h.hip
let set_host_ip h ip = h.hip <- ip
let host_dns h = h.hdns
let set_host_dns h dns = h.hdns <- dns

let detach h =
  (match h.hlan with
  | Some lan -> lan.members <- List.filter (fun m -> m != h) lan.members
  | None -> ());
  h.hlan <- None

let attach h lan =
  detach h;
  lan.members <- h :: lan.members;
  h.hlan <- Some lan

let lan_of h = h.hlan
let hosts_of lan = List.rev lan.members

let on_udp h ~port handler =
  h.handlers <- (port, handler) :: List.remove_assoc port h.handlers

(* --- partitions --------------------------------------------------------- *)

let sever_key a b = if a.lid <= b.lid then (a.lid, b.lid) else (b.lid, a.lid)

let partition t a b =
  let key = sever_key a b in
  if not (List.mem key t.severed) then t.severed <- key :: t.severed

let heal t a b = t.severed <- List.filter (( <> ) (sever_key a b)) t.severed
let partitioned t a b = List.mem (sever_key a b) t.severed

let edge_severed t a b = List.mem (sever_key a b) t.severed

(* Unicast resolution: breadth-first over the uplink graph treated as
   undirected (replies must route back down to edge LANs, as NAT/conntrack
   state provides in the real network).  The sender's own LAN is tried
   first, with an int compare per member and no allocation: in a fleet
   every lookup and reply stays on it.  Only a route that crosses an
   uplink builds BFS state; severed (partitioned) edges are not crossed.
   A queue plus a visited table keeps such a datagram O(lans + edges). *)
let member_with_ip l dst =
  List.find_opt (fun h -> match h.hip with Some ip -> ip = dst | None -> false) l.members

let resolve_unicast t lan dst =
  match member_with_ip lan dst with
  | Some _ as h -> h
  | None ->
      let neighbours l =
        (match l.uplink with Some up -> [ up ] | None -> [])
        @ List.filter
            (fun other ->
              match other.uplink with Some up -> up == l | None -> false)
            t.lans
      in
      let visited = Hashtbl.create 16 in
      let frontier = Queue.create () in
      let expand l =
        List.iter
          (fun n ->
            if (not (Hashtbl.mem visited n.lid)) && not (edge_severed t l n) then begin
              Hashtbl.replace visited n.lid ();
              Queue.push n frontier
            end)
          (neighbours l)
      in
      Hashtbl.replace visited lan.lid ();
      expand lan;
      let rec bfs () =
        if Queue.is_empty frontier then None
        else
          let l = Queue.pop frontier in
          match member_with_ip l dst with
          | Some _ as h -> h
          | None ->
              expand l;
              bfs ()
      in
      bfs ()

(* --- delivery ----------------------------------------------------------- *)

let deliver t dgram target =
  let s = t.wstats in
  match List.assoc_opt dgram.dport target.handlers with
  | None ->
      s.dropped <- s.dropped + 1;
      s.no_handler <- s.no_handler + 1;
      trace_event t "rx-drop"
        (("host", Telemetry.Trace.S target.hname)
        :: ("reason", Telemetry.Trace.S "no-handler")
        :: dgram_args dgram)
  | Some handler ->
      s.delivered <- s.delivered + 1;
      trace_event t "rx"
        (("host", Telemetry.Trace.S target.hname) :: dgram_args dgram);
      handler { world = t; self = target } dgram

(* Push one datagram across the [src -> target] link, applying the
   sender's impairment policy, and schedule every surviving copy. *)
let transmit t dgram ~src target =
  let policy = policy_for t src in
  let plan =
    Faults.apply (Sim.rng t.wsim) policy ~now:(Sim.now t.wsim)
      ~payload:dgram.payload
  in
  let s = t.wstats in
  let link_args () =
    ("from", Telemetry.Trace.S src.hname)
    :: ("to", Telemetry.Trace.S target.hname)
    :: dgram_args dgram
  in
  match plan.Faults.fate with
  | Faults.Drop_link ->
      s.dropped <- s.dropped + 1;
      s.dropped_link <- s.dropped_link + 1;
      trace_event t "drop"
        (("reason", Telemetry.Trace.S "link") :: link_args ())
  | Faults.Drop_fault ->
      s.dropped <- s.dropped + 1;
      s.dropped_fault <- s.dropped_fault + 1;
      trace_event t "drop"
        (("reason", Telemetry.Trace.S "fault") :: link_args ())
  | Faults.Pass ->
      if plan.Faults.corrupted then s.corrupted <- s.corrupted + 1;
      if plan.Faults.duplicated then s.duplicated <- s.duplicated + 1;
      if plan.Faults.reordered then s.reordered <- s.reordered + 1;
      (match t.trace with
      | None -> ()
      | Some _ ->
          let flags =
            [
              ("copies", Telemetry.Trace.I (List.length plan.Faults.copies));
              ("corrupted", Telemetry.Trace.B plan.Faults.corrupted);
              ("duplicated", Telemetry.Trace.B plan.Faults.duplicated);
              ("reordered", Telemetry.Trace.B plan.Faults.reordered);
            ]
          in
          trace_event t "tx" (link_args () @ flags));
      List.iter
        (fun (delay, payload) ->
          let dgram = { dgram with payload } in
          Sim.schedule t.wsim ~delay (fun _ -> deliver t dgram target))
        plan.Faults.copies

let send t ~from ?(sport = 0) ~dst ~dport payload =
  let s = t.wstats in
  match from.hlan with
  | None ->
      s.dropped <- s.dropped + 1;
      s.no_route <- s.no_route + 1;
      trace_event t "drop"
        [
          ("reason", Telemetry.Trace.S "no-lan");
          ("from", Telemetry.Trace.S from.hname);
        ]
  | Some lan -> (
      let src = Option.value from.hip ~default:0 in
      let dgram = { src; sport; dst; dport; payload } in
      if dst = Ip.broadcast then
        List.iter
          (fun h -> if h != from then transmit t dgram ~src:from h)
          lan.members
      else
        match resolve_unicast t lan dst with
        | Some target -> transmit t dgram ~src:from target
        | None ->
            s.dropped <- s.dropped + 1;
            s.no_route <- s.no_route + 1;
            trace_event t "drop"
              (("reason", Telemetry.Trace.S "no-route")
              :: ("from", Telemetry.Trace.S from.hname)
              :: dgram_args dgram))

let now t = Sim.now t.wsim

let set_barrier t ~every_us hook =
  if every_us <= 0 then invalid_arg "World.set_barrier: every_us must be positive";
  t.barrier <- Some (every_us, hook)

let clear_barrier t = t.barrier <- None

(* With a barrier installed, [run] is an outer loop over barrier times
   b = k·every_us: the heap is drained through b (inclusive — see
   [Sim.run]) before the hook observes b.  Without [until], barriers
   keep firing while events remain pending. *)
let run ?until t =
  let processed =
    match t.barrier with
    | None -> Sim.run ?until t.wsim
    | Some (every, hook) ->
        let processed = ref 0 in
        let next = ref (((now t / every) + 1) * every) in
        let continue () =
          match until with
          | Some u -> !next <= u
          | None -> Sim.pending t.wsim > 0
        in
        while continue () do
          processed := !processed + Sim.run ~until:!next t.wsim;
          hook !next;
          next := !next + every
        done;
        !processed + Sim.run ?until t.wsim
  in
  (* Feed the telemetry clock at the end of the run too: with the
     clock-lag fix, an early-drained [run ~until] still advances sim
     time, and the trace's µs should agree. *)
  (match t.trace with
  | None -> ()
  | Some tr -> Telemetry.Trace.set_now tr (Sim.now t.wsim));
  processed

let register_metrics t reg =
  let c name help f =
    Telemetry.Metrics.probe reg ~help ~kind:`Counter name (fun () ->
        float_of_int (f t.wstats))
  in
  c "netsim_delivered_total" "datagrams delivered to a handler" (fun s ->
      s.delivered);
  c "netsim_dropped_total" "datagrams dropped, all causes" (fun s -> s.dropped);
  c "netsim_dropped_fault_total" "datagrams dropped by fault injection"
    (fun s -> s.dropped_fault);
  c "netsim_dropped_link_total" "datagrams dropped by link loss" (fun s ->
      s.dropped_link);
  c "netsim_no_route_total" "datagrams with no route to the destination"
    (fun s -> s.no_route);
  c "netsim_no_handler_total" "datagrams with no listener on the port"
    (fun s -> s.no_handler);
  c "netsim_corrupted_total" "datagrams corrupted in flight" (fun s ->
      s.corrupted);
  c "netsim_duplicated_total" "datagrams duplicated in flight" (fun s ->
      s.duplicated);
  c "netsim_reordered_total" "datagrams reordered in flight" (fun s ->
      s.reordered);
  Telemetry.Metrics.probe reg ~help:"simulated clock, microseconds"
    ~kind:`Gauge "netsim_sim_now_us" (fun () -> float_of_int (Sim.now t.wsim))
