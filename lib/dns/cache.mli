(** TTL-aware DNS cache (the state the Connman DNS proxy exists to keep).

    One hashtable paired with one min-expiry binary heap, so eviction
    and expiry sweeps are O(log n) where the old implementation folded
    over the whole table.  Heap slots are invalidated lazily: replacing
    or removing an entry leaves its old heap node behind as a stale
    tombstone that is discarded the next time it surfaces at the root
    (a periodic compaction bounds the tombstone population).  Before a
    live entry is ever evicted, the cache sweeps entries that are
    already past their TTL, so dead entries never hold capacity against
    live ones.

    Negative answers (NXDOMAIN) are first-class: they occupy capacity
    and expire like positive entries but carry no address, so repeated
    lookups for a name known not to exist are absorbed by the cache.

    Time is a caller-supplied monotonic value in seconds — the
    simulation owns the clock.  Eviction order is deterministic:
    earliest expiry first, FIFO among equal expiries. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256 entries (the bound covers positive and
    negative entries together).  A cache evicts only when it holds
    [capacity] live entries. *)

val capacity : t -> int

val insert : t -> now:int -> name:string -> ttl:int -> ipv4:int -> unit
(** [ttl] seconds; a 0 TTL entry is never stored.  Re-inserting a
    cached name replaces it (counted as a replacement, not an
    insertion). *)

val insert_negative : t -> now:int -> name:string -> ttl:int -> unit
(** Cache an NXDOMAIN: until [now + ttl], [find] answers
    {!Negative_hit} for [name]. *)

type outcome =
  | Hit of int  (** fresh positive entry: the IPv4 (host order) *)
  | Negative_hit  (** fresh negative entry: the name is known absent *)
  | Miss

val find : t -> now:int -> string -> outcome

val lookup : t -> now:int -> string -> int option
(** The cached IPv4 (host order) if fresh; negative entries answer
    [None] (but count as negative hits, not misses). *)

val remove : t -> string -> unit

val size : t -> now:int -> int
(** Live (unexpired) entries, positive and negative.  O(n). *)

val flush : t -> unit
(** Drop every entry; counters survive. *)

type stats = {
  hits : int;
  misses : int;
  negative_hits : int;
  insertions : int;  (** entries stored under a previously-absent name *)
  replacements : int;  (** entries stored over an existing name *)
  evictions : int;  (** live entries removed to make room *)
  expired_sweeps : int;  (** expired entries reclaimed by the sweep *)
  occupancy : int;  (** entries currently in the table (may include
                        expired ones not yet swept) *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

val register_metrics : t -> Telemetry.Metrics.t -> prefix:string -> unit
(** Register pull-probes over {!stats} into the registry as
    [dns_cache_*] series labelled [{cache="<prefix>"}], so several
    caches (connmand's, dnsmasq's, a synthetic workload) can share one
    registry. *)
