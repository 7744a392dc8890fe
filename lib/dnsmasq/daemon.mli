(** The dnsmasq-sim forwarder daemon (§V adaptation target).

    Another instance of Connman's DNS-forwarder front
    ({!Connman.Forwarder}): queries out, responses pre-validated by the
    same host-side policy and then parsed by the vulnerable machine
    code, the same lifecycle ({!Loader.Service}), the same disposition
    type.  What is dnsmasq's own is its program ({!Program_x86},
    {!Program_arm}), the [process_reply] entry, its {!Frame} and the
    ["dnsmasq"] track.  The point of this module is that
    {!Exploit.Autogen} retargets to it by swapping frame geometry
    only. *)

type disposition = Connman.Forwarder.disposition =
  | Cached of int
  | Dropped of string
  | Crashed of Machine.Outcome.stop_reason
  | Compromised of Machine.Outcome.stop_reason
  | Blocked of Machine.Outcome.stop_reason

val pp_disposition : Format.formatter -> disposition -> unit

type config = {
  patched : bool;  (** 2.78 (bounded) vs 2.77 (vulnerable) *)
  arch : Loader.Arch.t;
  profile : Defense.Profile.t;
  boot_seed : int;
}

type t

val create : config -> t
(** A fresh boot; the daemon's DNS cache holds 256 entries. *)

val process : t -> Loader.Process.t
val alive : t -> bool
val make_query : t -> Dns.Name.t -> Dns.Packet.t

val handle_response : t -> string -> disposition
(** Feed raw wire bytes.  The response must pass Connman's
    pre-validation (rcode 0, one question matching the pending one, at
    least one answer); a successful parse records its A answers in the
    cache and reports how many.  An NXDOMAIN passing the same checks is
    negatively cached and dropped before the machine-level parse. *)

val cache_lookup : t -> Dns.Name.t -> int option
(** IPv4 (host order) cached for a name, if fresh on the daemon's
    logical clock. *)

val cache : t -> Dns.Cache.t
val cache_stats : t -> Dns.Cache.stats

val tick : t -> int -> unit
(** Advance the daemon's logical clock (drives TTL expiry). *)

val negative_ttl : int
(** Seconds an NXDOMAIN is negatively cached. *)

val restart : t -> unit
(** Reboot the daemon after a crash (fresh address-space draw derived
    from the boot seed and restart count, as a supervisor restart would
    give); outstanding transactions are forgotten, the cache survives. *)
