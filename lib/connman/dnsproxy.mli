(** The Connman DNS-proxy daemon model.

    Mirrors the dnsproxy architecture the paper attacks: local clients
    send queries; the proxy forwards them upstream and remembers the
    transaction; a response is first sanity-checked (the paper: "the DNS
    responses must appear legitimate, otherwise Connman dumps the packet
    as a bad response and never enters the vulnerable portion of code")
    and only then parsed — the parse running as machine code inside the
    simulated process, where CVE-2017-12865 lives.

    A crash (memory fault, illegal instruction, hang) kills the daemon:
    subsequent responses are dropped — the DoS outcome.  An [exec] of a
    shell is remote code execution.

    The daemon is an instance of the shared DNS-forwarder front
    ({!Forwarder}) over one {!Loader.Service}; what is Connman's own is
    its program ({!Program_x86}, {!Program_arm}), the [parse_response]
    entry, its {!Frame} and the ["connmand"] track. *)

type disposition = Forwarder.disposition =
  | Cached of int  (** parsed fine; [n] A records entered the cache *)
  | Dropped of string  (** pre-validation rejected the packet *)
  | Crashed of Machine.Outcome.stop_reason  (** daemon died (DoS) *)
  | Compromised of Machine.Outcome.stop_reason  (** attacker code ran *)
  | Blocked of Machine.Outcome.stop_reason
      (** a §IV defense (CFI, canary) stopped the attack; daemon aborted *)

val pp_disposition : Format.formatter -> disposition -> unit

type config = {
  version : Version.t;
  arch : Loader.Arch.t;
  profile : Defense.Profile.t;
  boot_seed : int;  (** per-boot randomness (ASLR, canary) *)
  diversity_seed : int option;  (** per-build layout randomization *)
}

val default_config : config

type t

val create : config -> t
(** A fresh boot; the daemon's DNS cache holds 256 entries. *)

val fork : t -> t
(** A fresh daemon cloned copy-on-write from this one's current machine
    state ({!Loader.Process.snapshot} + {!Loader.Process.fork}):
    µs-scale spawning for fleet-sized populations versus the full
    [create] boot.  The clone shares the template's boot-time
    randomness (same ASLR draw, same canary) — a fork cohort models
    devices flashed from one firmware image, not independent boots —
    and starts with fresh host-side state: empty pending table and
    cache, no telemetry attached, zero restarts.  [restart] on a clone
    performs a full re-boot from its own config as usual. *)

val fork_diversified : t -> diversity_seed:int -> t
(** Like {!fork}, then re-assemble the code image as the variant
    [diversity_seed] selects ({!Loader.Process.reimage} into the
    already-mapped text region): µs-scale spawning of
    behaviorally-equivalent devices whose gadget addresses all differ.
    The clone keeps the template's boot-time randomness (same ASLR
    draw, same canary) — only the code layout varies — and its config
    records the diversity seed, so a later {!restart} re-boots the same
    variant.  Falls back to a full boot when the variant's text does
    not fit the mapped region; deterministic per seed either way. *)

val config : t -> config

val variant_plan : t -> Diversity.Variant.plan option
(** The plan of the variant this daemon runs — the one its config's
    [diversity_seed] selects, recorded when {!create} or
    {!fork_diversified} built it (the same value
    [Program_*.variant_plan] gives for that seed); [None] for a stock
    build.  A {!fork} keeps its template's. *)

val process : t -> Loader.Process.t
(** The booted process image — what an attacker's local [gdb]/[ropper]
    session inspects on their own copy of the device. *)

val alive : t -> bool

val make_query : t -> Dns.Name.t -> Dns.Packet.t
(** Allocate a transaction id and record it as pending (the proxy
    forwarding a client lookup upstream). *)

val handle_response : ?origin:string -> t -> string -> disposition
(** Feed raw wire bytes, as received from the configured DNS server.
    An NXDOMAIN matching a pending question is negatively cached and
    dropped before the machine-level parse.  When a sanitizer oracle is
    attached ({!set_sanitizer}), every wire byte reaching the guest rx
    buffer is tainted with a fresh provenance source labelled [origin]
    (default ["udp"]; {!Core.Device} passes the netsim source address),
    the overflow frame's return slot and redzone are registered from the
    {!Frame} geometry, and the parse runs with the ISA's taint hook. *)

val peek_pending : t -> int -> Dns.Packet.question option
(** Is this transaction id outstanding?  (Used by scenarios to attribute
    an observed query to a device.) *)

val cache_lookup : t -> Dns.Name.t -> int option
(** IPv4 (host order) cached for a name, if fresh (TTL not elapsed on the
    daemon's logical clock). *)

val cache_find : t -> Dns.Name.t -> Dns.Cache.outcome
(** Like {!cache_lookup} but distinguishes negative hits from misses. *)

val cache : t -> Dns.Cache.t
(** The daemon's cache, for stats dumps and metrics registration. *)

val cache_stats : t -> Dns.Cache.stats

val negative_ttl : int
(** Seconds an NXDOMAIN is negatively cached (SOA-minimum stand-in). *)

val tick : t -> int -> unit
(** Advance the daemon's logical clock by that many seconds (drives TTL
    expiry). *)

val last_steps : t -> int
(** Instructions retired by the most recent machine-level parse. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Attach a telemetry sink: daemon lifecycle events (query issue,
    response receipt, the machine-level parse as a duration span, the
    disposition, restarts) under category ["daemon"] track ["connmand"],
    plus the process memory's fault/mapping events (the current region
    snapshot is re-emitted on attach and after each {!restart}, since
    boot-time [map] events predate the sink). *)

val set_profiler : t -> Telemetry.Profile.t option -> unit
(** Record every pc the parse retires into this profiler. *)

val set_sanitizer : t -> Sanitizer.Oracle.t option -> unit
(** Attach (or detach) the taint sanitizer.  Subsequent responses parse
    with the ISA's taint hook and per-datagram taint sources; outcomes and
    dispositions are identical to an unsanitized daemon (the sanitizer
    is an observer), but the oracle accumulates reports.  The attached
    trace sink, if any, is shared with the oracle (["sanitizer"]
    category events). *)

val sanitizer : t -> Sanitizer.Oracle.t option

val register_metrics : t -> Telemetry.Metrics.t -> unit
(** Register [daemon_*] probes (labelled [{daemon="connmand"}]) and the
    DNS cache's [dns_cache_*] probes into the registry. *)

val restart : t -> unit
(** Reboot the daemon after a crash (fresh ASLR draw derived from the
    boot seed and restart count, as a supervisor restart would give). *)
