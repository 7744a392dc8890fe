(** The network world: LANs, hosts, and UDP datagram delivery over the
    {!Sim} event clock.

    Topology is deliberately simple — broadcast domains (LANs) with an
    optional uplink chain (home LAN → ISP/Internet) — because that is all
    the paper's §III-D scenario needs: a victim that can be lured from
    its legitimate LAN onto the Pineapple's LAN, where the attacker
    controls DHCP and DNS.

    Every datagram crosses a {!Faults.policy}: a deterministic
    impairment model (drop, duplicate, corrupt, reorder, latency
    jitter, link flaps) resolved per sender in two levels: the sender's
    LAN policy, else the world default.  LAN pairs can additionally be
    {!partition}ed, which severs routing between them.

    Every LAN's traffic fires on one {!Sim} heap and draws from its one
    RNG, so the same seed and topology replay the same run. *)

type t
type host
type lan

type datagram = {
  src : Ip.t;
  sport : int;
  dst : Ip.t;
  dport : int;
  payload : string;
}

type ctx = { world : t; self : host }
(** Handed to every packet handler. *)

type stats = {
  mutable delivered : int;
  mutable dropped : int;  (** total drops, every reason below included *)
  mutable dropped_fault : int;  (** drop probability fired *)
  mutable dropped_link : int;  (** link flapped down *)
  mutable no_route : int;  (** unroutable destination (or detached sender) *)
  mutable no_handler : int;  (** delivered to a port nobody listens on *)
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
}

val create : ?seed:int -> unit -> t
(** One event heap, seeded with [seed], carries every LAN's traffic. *)

val sim : t -> Sim.t
(** The world's simulator: its clock, event heap and RNG. *)

val stats : t -> stats
(** The live counters record. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Attach (or detach with [None]) a telemetry sink.  With a sink
    attached, every per-packet fate — transmit, deliver, and each drop
    cause — emits a ["net"]-category event stamped with sim time; each
    emission also advances the trace's shared clock to [Sim.now], so
    downstream layers (daemons, supervisor) inherit a current µs. *)

val trace : t -> Telemetry.Trace.t option

val register_metrics : t -> Telemetry.Metrics.t -> unit
(** Register pull-probes over this world's {!stats} counters
    ([netsim_*_total]) and the sim clock ([netsim_sim_now_us]) into the
    registry. *)

(** {2 Impairment policies} *)

val set_default_policy : t -> Faults.policy -> unit
(** World-wide fallback policy (validated; default {!Faults.default}). *)

val default_policy : t -> Faults.policy

val set_lan_policy : t -> lan -> Faults.policy -> unit
(** Policy for traffic {e originating} from hosts attached to that LAN;
    it replaces the world default for them. *)

val clear_lan_policy : t -> lan -> unit

(** {2 Topology} *)

val add_lan : t -> name:string -> lan

val lan_name : lan -> string
val set_uplink : lan -> lan option -> unit
(** Datagrams that miss in a LAN are retried in its uplink (transitively). *)

val partition : t -> lan -> lan -> unit
(** Sever routing across the (symmetric) LAN pair: unicast resolution
    refuses to cross that edge until {!heal}.  Idempotent. *)

val heal : t -> lan -> lan -> unit
val partitioned : t -> lan -> lan -> bool

val add_host : t -> name:string -> host
val host_name : host -> string
val host_ip : host -> Ip.t option
val set_host_ip : host -> Ip.t option -> unit
val host_dns : host -> Ip.t option
val set_host_dns : host -> Ip.t option -> unit

val attach : host -> lan -> unit
(** Joining a LAN implicitly leaves the previous one. *)

val detach : host -> unit
val lan_of : host -> lan option
val hosts_of : lan -> host list

val on_udp : host -> port:int -> (ctx -> datagram -> unit) -> unit
(** Replaces any previous handler on that port. *)

val send :
  t -> from:host -> ?sport:int -> dst:Ip.t -> dport:int -> string -> unit
(** Queue a datagram.  Unicast resolves within the sender's LAN and then
    its uplink chain (never crossing a partitioned edge);
    {!Ip.broadcast} reaches every other host of the sender's LAN.  Each
    (datagram, receiver) pair crosses the sender's impairment policy;
    unroutable datagrams and drops are counted per reason in {!stats}. *)

val run : ?until:int -> t -> int
(** Drive the event loop ({!Sim.run}); returns events processed.  With a
    {!set_barrier} hook installed, the run is segmented at barrier times
    [k * every_us]: the heap is drained through the barrier (inclusive)
    before the hook observes it. *)

val now : t -> int
(** [Sim.now (sim t)], µs. *)

val set_barrier : t -> every_us:int -> (int -> unit) -> unit
(** Install a periodic hook, replacing any earlier one.  During {!run},
    at every multiple of [every_us] (within the horizon), every event at
    or before the barrier time runs first, then the hook is called with
    it.  This is the monitor's scrape driver.  Without [?until],
    barriers fire only while events remain pending. *)

val clear_barrier : t -> unit
