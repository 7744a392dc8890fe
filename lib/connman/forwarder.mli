(** The DNS-forwarder front shared by connmand's dnsproxy and
    dnsmasq-sim: a {!Loader.Service} behind the host-side DNS logic both
    daemons run before and after the vulnerable machine-code parse.

    Local clients send queries; the forwarder sends them upstream and
    remembers the transaction.  A response is sanity-checked first (the
    paper: "the DNS responses must appear legitimate, otherwise Connman
    dumps the packet as a bad response and never enters the vulnerable
    portion of code"): it must be a response with rcode 0, one question
    matching the pending one, and at least one answer.  Only then is it
    parsed by the daemon's entry function inside the simulated process.
    An NXDOMAIN answering a pending question passes the same checks and
    is negatively cached instead of parsed.  A successful parse records
    the response's A answers in the host-visible cache. *)

type disposition =
  | Cached of int  (** parsed fine; [n] A records entered the cache *)
  | Dropped of string  (** pre-validation rejected the packet *)
  | Crashed of Machine.Outcome.stop_reason  (** daemon died (DoS) *)
  | Compromised of Machine.Outcome.stop_reason  (** attacker code ran *)
  | Blocked of Machine.Outcome.stop_reason
      (** a §IV defense (CFI, canary) stopped the attack; daemon aborted *)

val pp_disposition : Format.formatter -> disposition -> unit

val negative_ttl : int
(** Seconds an NXDOMAIN is negatively cached (SOA-minimum stand-in). *)

(** What makes one forwarder daemon: its program and where its
    transaction ids start. *)
module type DAEMON = sig
  type config

  val daemon : Loader.Service.daemon
  val id_base : int
  (** Transaction ids start at [id_base + (boot_seed land 0xFFF)]. *)

  val spec : config -> Loader.Process.spec * Diversity.Variant.plan option
  (** The program a config boots, and its variant plan when the config
      selects a diversified build. *)

  val profile : config -> Defense.Profile.t
  val boot_seed : config -> int
end

(** A forwarder daemon over [D]'s program; {!Dnsproxy} documents each
    function. *)
module Make (D : DAEMON) : sig
  type t

  val create : D.config -> t
  val fork : t -> t
  val fork_variant : t -> D.config -> t
  (** {!fork}, re-imaged as the program of this config; a full
      {!create} when its text does not fit. *)

  val config : t -> D.config
  val variant_plan : t -> Diversity.Variant.plan option
  val process : t -> Loader.Process.t
  val alive : t -> bool
  val make_query : t -> Dns.Name.t -> Dns.Packet.t
  val handle_response : ?origin:string -> t -> string -> disposition
  val peek_pending : t -> int -> Dns.Packet.question option
  val cache_lookup : t -> Dns.Name.t -> int option
  val cache_find : t -> Dns.Name.t -> Dns.Cache.outcome
  val cache : t -> Dns.Cache.t
  val cache_stats : t -> Dns.Cache.stats
  val negative_ttl : int
  val tick : t -> int -> unit
  val last_steps : t -> int
  val set_trace : t -> Telemetry.Trace.t option -> unit
  val set_profiler : t -> Telemetry.Profile.t option -> unit
  val set_sanitizer : t -> Sanitizer.Oracle.t option -> unit
  val sanitizer : t -> Sanitizer.Oracle.t option
  val register_metrics : t -> Telemetry.Metrics.t -> unit
  val restart : t -> unit
end
