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

(* Scheduler state lives in explicit shards: each shard owns an event
   heap (with its RNG) and its own stats record, so fleet-scale worlds
   can spread LANs over several heaps.  Cross-shard traffic is batched
   through per-shard inboxes and flushed at epoch boundaries; with one
   shard (the default) nothing changes — [run] delegates straight to
   [Sim.run] on the lone heap, bit-identical to the unsharded world
   under seed replay. *)
type t = {
  shards : shard array;  (* at least one; shard 0 carries the world seed *)
  batch : int;  (* epoch window, µs: bounds cross-shard delivery skew *)
  mutable lans : lan list;
  mutable hosts : host list;
  mutable next_id : int;  (* host/lan id source (policy and visited keys) *)
  mutable default_policy : Faults.policy;
  link_policies : (int * int, Faults.policy) Hashtbl.t;  (* host-id pair *)
  lan_policies : (int, Faults.policy) Hashtbl.t;  (* sender's LAN id *)
  mutable severed : (int * int) list;  (* partitioned LAN-id pairs *)
  mutable trace : Telemetry.Trace.t option;
  mutable barrier : (int * (int -> unit)) option;  (* (every_us, hook) *)
}

and shard = {
  sindex : int;
  ssim : Sim.t;
  sstats : stats;
  sinbox : pending Queue.t;  (* datagram copies from other shards *)
}

and pending = { p_time : int; p_dgram : datagram; p_target : host }

and lan = {
  lid : int;
  lname : string;
  mutable members : host list;
  mutable uplink : lan option;
  mutable lshard : int;
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

let create ?(seed = 7) ?(shards = 1) ?(batch = 100) () =
  if shards < 1 then invalid_arg "World.create: shards must be >= 1";
  if batch < 0 then invalid_arg "World.create: batch must be >= 0";
  {
    shards =
      Array.init shards (fun i ->
          {
            sindex = i;
            (* Shard 0 carries the world seed unchanged so a one-shard
               world replays the unsharded one bit-for-bit; the others
               derive distinct streams from it. *)
            ssim = Sim.create ~seed:(seed + (7919 * i)) ();
            sstats = zero_stats ();
            sinbox = Queue.create ();
          });
    batch;
    lans = [];
    hosts = [];
    next_id = 0;
    default_policy = Faults.default;
    link_policies = Hashtbl.create 8;
    lan_policies = Hashtbl.create 8;
    severed = [];
    trace = None;
    barrier = None;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let sim t = t.shards.(0).ssim
let shard_count t = Array.length t.shards

let shard_sim t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "World.shard_sim: no such shard";
  t.shards.(i).ssim

let shard_stats t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "World.shard_stats: no such shard";
  t.shards.(i).sstats

let merge_stats acc s =
  acc.delivered <- acc.delivered + s.delivered;
  acc.dropped <- acc.dropped + s.dropped;
  acc.dropped_fault <- acc.dropped_fault + s.dropped_fault;
  acc.dropped_link <- acc.dropped_link + s.dropped_link;
  acc.no_route <- acc.no_route + s.no_route;
  acc.no_handler <- acc.no_handler + s.no_handler;
  acc.corrupted <- acc.corrupted + s.corrupted;
  acc.duplicated <- acc.duplicated + s.duplicated;
  acc.reordered <- acc.reordered + s.reordered

(* Single shard: hand out the live record (existing callers hold on to
   it across runs).  Sharded: a fresh merged snapshot. *)
let stats t =
  if Array.length t.shards = 1 then t.shards.(0).sstats
  else begin
    let acc = zero_stats () in
    Array.iter (fun sh -> merge_stats acc sh.sstats) t.shards;
    acc
  end

let shard_of_host t h =
  match h.hlan with
  | Some lan when lan.lshard < Array.length t.shards -> t.shards.(lan.lshard)
  | _ -> t.shards.(0)

let set_trace t tr = t.trace <- tr
let trace t = t.trace

(* Every net event first advances the trace's shared clock to the acting
   shard's sim-now, so layers without a clock of their own (daemons,
   supervisor) timestamp against a current µs.  [Trace.set_now] is
   monotonic, so out-of-order shard clocks cannot drag it backward. *)
let trace_event t sh name args =
  match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.set_now tr (Sim.now sh.ssim);
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

let link_key a b = if a.hid <= b.hid then (a.hid, b.hid) else (b.hid, a.hid)

let set_link_policy t a b p =
  Hashtbl.replace t.link_policies (link_key a b) (Faults.validate p)

let clear_link_policy t a b = Hashtbl.remove t.link_policies (link_key a b)

let set_lan_policy t lan p =
  Hashtbl.replace t.lan_policies lan.lid (Faults.validate p)

let clear_lan_policy t lan = Hashtbl.remove t.lan_policies lan.lid

(* Most specific wins: host pair, then the sender's LAN, then the world. *)
let policy_for t ~src ~dst =
  match Hashtbl.find_opt t.link_policies (link_key src dst) with
  | Some p -> p
  | None -> (
      match src.hlan with
      | None -> t.default_policy
      | Some lan -> (
          match Hashtbl.find_opt t.lan_policies lan.lid with
          | Some p -> p
          | None -> t.default_policy))

(* --- topology ----------------------------------------------------------- *)

let add_lan ?(shard = 0) t ~name =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "World.add_lan: no such shard";
  let lan =
    { lid = fresh_id t; lname = name; members = []; uplink = None;
      lshard = shard }
  in
  t.lans <- lan :: t.lans;
  lan

let lan_name lan = lan.lname
let set_uplink lan up = lan.uplink <- up

let set_lan_shard t lan i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "World.set_lan_shard: no such shard";
  lan.lshard <- i

let lan_shard lan = lan.lshard
let host_shard t h = (shard_of_host t h).sindex

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
   first; severed (partitioned) edges are not crossed.  A queue plus a
   visited table keeps each datagram O(lans + edges) — the seed's
   [rest @ neighbours l] / [List.memq l visited] pair was O(n²). *)
let resolve_unicast t lan dst =
  let neighbours l =
    (match l.uplink with Some up -> [ up ] | None -> [])
    @ List.filter
        (fun other ->
          match other.uplink with Some up -> up == l | None -> false)
        t.lans
  in
  let visited = Hashtbl.create 16 in
  let frontier = Queue.create () in
  Hashtbl.replace visited lan.lid ();
  Queue.push lan frontier;
  let rec bfs () =
    if Queue.is_empty frontier then None
    else
      let l = Queue.pop frontier in
      match List.find_opt (fun h -> h.hip = Some dst) l.members with
      | Some h -> Some h
      | None ->
          List.iter
            (fun n ->
              if (not (Hashtbl.mem visited n.lid)) && not (edge_severed t l n)
              then begin
                Hashtbl.replace visited n.lid ();
                Queue.push n frontier
              end)
            (neighbours l);
          bfs ()
  in
  bfs ()

(* --- delivery ----------------------------------------------------------- *)

(* [sh] is the receiver's shard: its heap fired the delivery event, its
   stats absorb the outcome. *)
let deliver t sh dgram target =
  match List.assoc_opt dgram.dport target.handlers with
  | None ->
      sh.sstats.dropped <- sh.sstats.dropped + 1;
      sh.sstats.no_handler <- sh.sstats.no_handler + 1;
      trace_event t sh "rx-drop"
        (("host", Telemetry.Trace.S target.hname)
        :: ("reason", Telemetry.Trace.S "no-handler")
        :: dgram_args dgram)
  | Some handler ->
      sh.sstats.delivered <- sh.sstats.delivered + 1;
      trace_event t sh "rx"
        (("host", Telemetry.Trace.S target.hname) :: dgram_args dgram);
      handler { world = t; self = target } dgram

(* Push one datagram across the [src -> target] link, applying that
   link's impairment policy.  The sender's shard draws the fault plan
   (its RNG, its clock); every surviving copy is either scheduled on the
   receiver's heap directly (same shard) or queued in the receiver
   shard's inbox for the next epoch flush. *)
let transmit t dgram ~src target =
  let ssrc = shard_of_host t src in
  let sdst = shard_of_host t target in
  let policy = policy_for t ~src ~dst:target in
  let plan =
    Faults.apply (Sim.rng ssrc.ssim) policy ~now:(Sim.now ssrc.ssim)
      ~payload:dgram.payload
  in
  let s = ssrc.sstats in
  let link_args () =
    ("from", Telemetry.Trace.S src.hname)
    :: ("to", Telemetry.Trace.S target.hname)
    :: dgram_args dgram
  in
  match plan.Faults.fate with
  | Faults.Drop_link ->
      s.dropped <- s.dropped + 1;
      s.dropped_link <- s.dropped_link + 1;
      trace_event t ssrc "drop"
        (("reason", Telemetry.Trace.S "link") :: link_args ())
  | Faults.Drop_fault ->
      s.dropped <- s.dropped + 1;
      s.dropped_fault <- s.dropped_fault + 1;
      trace_event t ssrc "drop"
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
          trace_event t ssrc "tx" (link_args () @ flags));
      List.iter
        (fun (delay, payload) ->
          let dgram = { dgram with payload } in
          if ssrc == sdst then
            Sim.schedule sdst.ssim ~delay (fun _ -> deliver t sdst dgram target)
          else
            Queue.push
              {
                p_time = Sim.now ssrc.ssim + delay;
                p_dgram = dgram;
                p_target = target;
              }
              sdst.sinbox)
        plan.Faults.copies

let send t ~from ?(sport = 0) ~dst ~dport payload =
  let ssrc = shard_of_host t from in
  let s = ssrc.sstats in
  match from.hlan with
  | None ->
      s.dropped <- s.dropped + 1;
      s.no_route <- s.no_route + 1;
      trace_event t ssrc "drop"
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
            trace_event t ssrc "drop"
              (("reason", Telemetry.Trace.S "no-route")
              :: ("from", Telemetry.Trace.S from.hname)
              :: dgram_args dgram))

(* Move inbox entries onto the shard's own heap.  A copy whose stamped
   time already passed on the receiver's clock is delivered at [now] —
   cross-shard skew is bounded by the epoch window ([batch]). *)
let flush_inbox t sh =
  while not (Queue.is_empty sh.sinbox) do
    let p = Queue.pop sh.sinbox in
    let delay = max 0 (p.p_time - Sim.now sh.ssim) in
    Sim.schedule sh.ssim ~delay (fun _ -> deliver t sh p.p_dgram p.p_target)
  done

(* Conservative epoch loop over the shard heaps: flush every inbox, find
   the globally earliest pending event, run all shards up to that time
   plus the batch window, repeat.  One shard short-circuits to a plain
   [Sim.run] — bit-identical to the unsharded world. *)
let run_span ?until t =
    if Array.length t.shards = 1 then Sim.run ?until t.shards.(0).ssim
    else begin
      let processed = ref 0 in
      let progress = ref true in
      while !progress do
        progress := false;
        Array.iter (flush_inbox t) t.shards;
        let next =
          Array.fold_left
            (fun acc sh ->
              match Sim.next_time sh.ssim with
              | None -> acc
              | Some tm -> (
                  match acc with None -> Some tm | Some a -> Some (min a tm)))
            None t.shards
        in
        match next with
        | None -> ()
        | Some tmin ->
            let beyond =
              match until with Some u -> tmin > u | None -> false
            in
            if not beyond then begin
              let horizon = tmin + t.batch in
              let horizon =
                match until with Some u -> min horizon u | None -> horizon
              in
              Array.iter
                (fun sh ->
                  processed := !processed + Sim.run ~until:horizon sh.ssim)
                t.shards;
              progress := true
            end
      done;
      (* Advance every shard clock to the caller's horizon (no events
         remain at or before it). *)
      (match until with
      | Some u ->
          Array.iter (fun sh -> ignore (Sim.run ~until:u sh.ssim)) t.shards
      | None -> ());
      !processed
    end

let now t =
  Array.fold_left (fun acc sh -> max acc (Sim.now sh.ssim)) 0 t.shards

let set_barrier t ~every_us hook =
  if every_us <= 0 then invalid_arg "World.set_barrier: every_us must be positive";
  t.barrier <- Some (every_us, hook)

let clear_barrier t = t.barrier <- None

let has_pending t =
  Array.exists (fun sh -> Sim.pending sh.ssim > 0) t.shards

(* With a barrier installed, [run] is an outer loop over barrier times
   b = k·every_us: every shard is drained through b (inclusive — see
   [Sim.run]) before the hook observes b.  All events at or before b
   have executed regardless of shard count, so counter-style state seen
   by the hook is an order-independent sum — this is what makes a
   monitor scrape shard-count deterministic.  Without [until], barriers
   keep firing while any shard still has pending work. *)
let run ?until t =
  let processed =
    match t.barrier with
    | None -> run_span ?until t
    | Some (every, hook) ->
        let processed = ref 0 in
        let next = ref (((now t / every) + 1) * every) in
        let continue () =
          match until with
          | Some u -> !next <= u
          | None -> has_pending t
        in
        while continue () do
          processed := !processed + run_span ~until:!next t;
          hook !next;
          next := !next + every
        done;
        (match until with
        | Some u -> processed := !processed + run_span ~until:u t
        | None -> processed := !processed + run_span t);
        !processed
  in
  (* Feed the telemetry clock at the end of the run too: with the
     clock-lag fix, an early-drained [run ~until] still advances sim
     time, and the trace's µs should agree. *)
  (match t.trace with
  | None -> ()
  | Some tr -> Telemetry.Trace.set_now tr (Sim.now t.shards.(0).ssim));
  processed

let register_metrics ?(per_shard = true) t reg =
  (* Single-shard worlds keep the seed exposition byte-for-byte; sharded
     worlds add one ["shard"]-labelled series per shard after each
     unlabelled rollup, registered in shard-index order so the
     registry's (name, registration-seq) exposition order is stable.
     Probes read the live stats records, so rollup = sum of shards holds
     at every scrape.  [~per_shard:false] suppresses the labelled
     breakdown: the registry then exposes the same series set for any
     shard count — what the monitor's cross-shard-count byte-identity
     contract needs. *)
  let sharded = per_shard && Array.length t.shards > 1 in
  let c name help f =
    Telemetry.Metrics.probe reg ~help ~kind:`Counter name (fun () ->
        float_of_int (f (stats t)));
    if sharded then
      Array.iter
        (fun sh ->
          Telemetry.Metrics.probe reg ~help ~kind:`Counter
            ~labels:[ ("shard", string_of_int sh.sindex) ] name (fun () ->
              float_of_int (f sh.sstats)))
        t.shards
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
    ~kind:`Gauge "netsim_sim_now_us" (fun () ->
      float_of_int (Sim.now t.shards.(0).ssim));
  if sharded then
    Array.iter
      (fun sh ->
        Telemetry.Metrics.probe reg ~help:"simulated clock, microseconds"
          ~kind:`Gauge
          ~labels:[ ("shard", string_of_int sh.sindex) ] "netsim_sim_now_us"
          (fun () -> float_of_int (Sim.now sh.ssim)))
      t.shards
