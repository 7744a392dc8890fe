(** The network world: LANs, hosts, and UDP datagram delivery over the
    {!Sim} event clock.

    Topology is deliberately simple — broadcast domains (LANs) with an
    optional uplink chain (home LAN → ISP/Internet) — because that is all
    the paper's §III-D scenario needs: a victim that can be lured from
    its legitimate LAN onto the Pineapple's LAN, where the attacker
    controls DHCP and DNS.

    Every datagram crosses a {!Faults.policy}: a deterministic
    impairment model (drop, duplicate, corrupt, reorder, latency
    jitter, link flaps) resolved per link — host pair first, then the
    sender's LAN, then the world default.  LAN pairs can additionally be
    {!partition}ed, which severs routing between them. *)

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

val create : ?seed:int -> ?shards:int -> ?batch:int -> unit -> t
(** [shards] (default 1) splits scheduler state — event heap, RNG,
    per-reason stats — into that many explicit shard records; assign
    LANs to shards with {!set_lan_shard}.  [batch] (default 100 µs) is
    the epoch window of the sharded run loop: cross-shard datagrams are
    batched through per-shard inboxes and may be delivered up to one
    window late on the receiver's clock.  With one shard, behaviour is
    bit-identical to the unsharded world under seed replay (shard 0
    always carries [seed] unchanged). *)

val sim : t -> Sim.t
(** Shard 0's simulator (the only one unless [~shards] was given). *)

val stats : t -> stats
(** Single-shard worlds return the live record; sharded worlds return a
    fresh snapshot merged over all shards. *)

(** {2 Shards} *)

val shard_count : t -> int

val shard_sim : t -> int -> Sim.t
(** Shard [i]'s simulator.  Raises [Invalid_argument] on a bad index. *)

val shard_stats : t -> int -> stats
(** Shard [i]'s live stats record (unmerged). *)

val merge_stats : stats -> stats -> unit
(** [merge_stats acc s] adds [s]'s counters into [acc]. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Attach (or detach with [None]) a telemetry sink.  With a sink
    attached, every per-packet fate — transmit, deliver, and each drop
    cause — emits a ["net"]-category event stamped with sim time; each
    emission also advances the trace's shared clock to [Sim.now], so
    downstream layers (daemons, supervisor) inherit a current µs. *)

val trace : t -> Telemetry.Trace.t option

val register_metrics : ?per_shard:bool -> t -> Telemetry.Metrics.t -> unit
(** Register pull-probes over this world's {!stats} counters
    ([netsim_*_total]) and the sim clock into the registry.  Sharded
    worlds additionally expose every series once per shard with a
    ["shard"] label (value = shard index, registered in index order so
    exposition is deterministic); the unlabelled series stays the merged
    rollup, equal to the sum over shards.  Single-shard worlds expose
    exactly the unlabelled seed output.  [~per_shard:false] (default
    [true]) suppresses the labelled breakdown, making the registered
    series set independent of the shard count — required for the
    monitor's cross-shard-count byte-identity contract. *)

(** {2 Impairment policies} *)

val set_default_policy : t -> Faults.policy -> unit
(** World-wide fallback policy (validated; default {!Faults.default}). *)

val default_policy : t -> Faults.policy

val set_link_policy : t -> host -> host -> Faults.policy -> unit
(** Attach a policy to the (symmetric) host pair; overrides LAN and
    world policies for traffic between the two. *)

val clear_link_policy : t -> host -> host -> unit

val set_lan_policy : t -> lan -> Faults.policy -> unit
(** Policy for traffic {e originating} from hosts attached to that LAN
    (when no host-pair policy matches). *)

val clear_lan_policy : t -> lan -> unit

(** {2 Topology} *)

val add_lan : ?shard:int -> t -> name:string -> lan
(** [shard] (default 0) places the LAN directly on that scheduler shard
    — the fleet-placement shorthand for [add_lan] + {!set_lan_shard}.
    Raises [Invalid_argument] on a bad index. *)

val lan_name : lan -> string
val set_uplink : lan -> lan option -> unit
(** Datagrams that miss in a LAN are retried in its uplink (transitively). *)

val set_lan_shard : t -> lan -> int -> unit
(** Pin the LAN (and every host attached to it) to shard [i]: its
    traffic draws from that shard's RNG and fires on that shard's heap.
    New LANs start on shard 0.  Raises [Invalid_argument] on a bad
    index. *)

val lan_shard : lan -> int

val host_shard : t -> host -> int
(** The shard index the host's traffic runs on (its LAN's shard, or 0
    for un-LANed hosts). *)

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
    (datagram, receiver) pair crosses its link's impairment policy;
    unroutable datagrams and drops are counted per reason in {!stats}. *)

val run : ?until:int -> t -> int
(** Drive the event loop; returns events processed.  Single-shard worlds
    delegate straight to {!Sim.run}.  Sharded worlds run a conservative
    epoch loop: flush cross-shard inboxes, run every shard up to the
    globally earliest pending event plus the batch window, repeat.

    With a {!set_barrier} hook installed, the run is segmented at
    barrier times [k * every_us]: every shard is drained through the
    barrier (inclusive) before the hook observes it. *)

val now : t -> int
(** Furthest shard clock, µs.  At a barrier, every shard agrees. *)

val set_barrier : t -> every_us:int -> (int -> unit) -> unit
(** Install a periodic synchronization hook, replacing any earlier one.
    During {!run}, at every multiple of [every_us] (within the horizon),
    all shards are first drained of every event at or before the barrier
    time, then the hook is called with it.  State derived from executed
    events is therefore order-independent at the hook — the same seeded
    run observes the same values for any shard count.  This is the
    monitor's scrape driver.  Without [?until], barriers fire only while
    events remain pending. *)

val clear_barrier : t -> unit
