(** A networked IoT device running Connman.

    Binds a {!Connman.Dnsproxy} daemon to a {!Netsim.World} host: the
    device joins Wi-Fi networks, configures itself over DHCP, and issues
    the connectivity-check lookup real Connman performs
    ("ipv4.connman.net") — each response flowing into the vulnerable
    parse path.  {!supervise} puts the daemon under a {!Supervisor},
    which every response the device handles notifies, and
    {!lookup_with_retry} retransmits on {!Supervisor.Retry}. *)

type t

val create :
  Netsim.World.t -> name:string -> config:Connman.Dnsproxy.config -> t

val host : t -> Netsim.World.host
val daemon : t -> Connman.Dnsproxy.t
val name : t -> string

val join_wifi : t -> Netsim.Wifi.ap list -> ssid:string -> Netsim.Wifi.ap option
(** Associate to the strongest AP with that SSID, then run DHCP; once
    configured, fire the connectivity-check DNS lookup.  Association is
    immediate; DHCP and DNS play out as the world runs. *)

val start_roaming :
  t ->
  scan:(unit -> Netsim.Wifi.ap list) ->
  ssid:string ->
  interval_us:int ->
  rounds:int ->
  unit
(** Rescan every [interval_us] (for [rounds] rounds) and re-associate when
    a stronger AP carries [ssid] — the automatic radio behaviour that the
    Pineapple abuses.  Each re-association re-runs DHCP and the
    connectivity check. *)

val lookup : t -> string -> unit
(** Queue a DNS query for a hostname through the device's configured DNS
    server (no-op when the device has no DNS yet or the daemon is dead). *)

val lookup_with_retry : t -> string -> retries:int -> timeout_us:int -> unit
(** Like {!lookup}, retransmitting up to [retries] times whenever no
    response has arrived within [timeout_us] (resolver-client behaviour
    on lossy networks), on {!Supervisor.Retry.run}.  A retransmission
    stops once a response arrives, the daemon dies or the device loses
    its DNS server. *)

val supervise : ?policy:Supervisor.policy -> t -> Supervisor.t
(** Put the device's connmand under a {!Supervisor}: every crash
    disposition the device observes notifies the supervisor, which
    restarts the daemon with backoff (logging into the device event
    log) or gives up on a crash loop.  Returns the supervisor for
    inspection. *)

val last_disposition : t -> Connman.Dnsproxy.disposition option
(** What happened to the most recent DNS response the daemon processed. *)

val dispositions : t -> Connman.Dnsproxy.disposition list
(** All response dispositions, oldest first. *)

val state : t -> [ `Online | `Crashed | `Compromised | `Blocked ]

val events : t -> string list
(** Human-readable device log, oldest first. *)
