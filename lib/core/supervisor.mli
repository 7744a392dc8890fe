(** Systemd-style daemon lifecycle supervision on the {!Netsim.Sim}
    event clock.

    The paper's DoS finding is an availability story: a crashed
    connmand leaves the device without DNS "until an init system
    restarts it", and repeated crash/restart cycles are exactly what a
    defender observes while an attacker brute-forces ASLR.  This module
    is that init system: restart-on-crash with exponential backoff plus
    deterministic jitter, crash-loop detection ([StartLimitBurst]-style
    giving up), and a timestamped event log.

    Crash detection is event-driven so the simulation's event loop can
    drain: call {!notify} whenever the daemon may have died (devices do
    this automatically on every crash disposition), or run a bounded
    polling {!watch}.  All randomness (backoff jitter) comes from the
    simulator's seeded rng — identical seeds give identical restart
    schedules.

    {!Retry} is the shared timeout/retry/backoff policy used by
    {!Device.lookup_with_retry} (resolver-client retransmission); the
    supervisor and the retransmitter deliberately share one vocabulary
    of bounded, backed-off attempts. *)

(** What the supervisor needs from a daemon. *)
module type DAEMON = sig
  type t

  val kind : string
  (** e.g. ["connmand"] — used in event formatting. *)

  val alive : t -> bool
  val restart : t -> unit
end

module Connman_daemon : DAEMON with type t = Connman.Dnsproxy.t
module Dnsmasq_daemon : DAEMON with type t = Dnsmasq.Daemon.t

type backoff = {
  initial_us : int;  (** first restart delay (systemd [RestartSec]) *)
  multiplier : float;  (** growth per consecutive crash *)
  max_us : int;  (** delay ceiling *)
  jitter : float;
      (** fraction of the current delay added uniformly at random,
          [0, 1] — decorrelates fleet-wide restart stampedes *)
}

val default_backoff : backoff
(** 100ms initial, ×2.0, 10s ceiling, 0.1 jitter. *)

type policy = {
  backoff : backoff;
  burst : int;
      (** give up after more than [burst] crashes inside [window_us]
          (systemd [StartLimitBurst]) *)
  window_us : int;  (** crash-counting window ([StartLimitIntervalSec]) *)
}

val default_policy : policy
(** [default_backoff], burst 4, 30s window. *)

type event_kind =
  | Crash_detected of int  (** crash count within the current window *)
  | Restart_scheduled of int  (** chosen backoff delay, µs *)
  | Restarted
  | Gave_up  (** crash-loop detected; no further restarts until {!revive} *)
  | Revived  (** give-up verdict and backoff history cleared *)

type event = { at : int  (** sim time, µs *); kind : event_kind }

val pp_event : Format.formatter -> event -> unit

type t

val supervise :
  ?policy:policy ->
  ?name:string ->
  ?on_event:(event -> unit) ->
  Netsim.Sim.t ->
  (module DAEMON with type t = 'a) ->
  'a ->
  t
(** Attach a supervisor to a daemon instance.  Nothing is scheduled
    until a crash is noticed via {!notify} or {!watch}. *)

val notify : t -> unit
(** Check the daemon now.  If it is dead and the supervisor is watching,
    either schedule a restart per the backoff policy or — when the
    burst limit inside the window is exceeded — give up.  If it is
    alive and the last crash has aged out of the window, the backoff
    resets to its initial delay.  No-op while a restart is already
    pending or after giving up. *)

val watch : t -> every_us:int -> rounds:int -> unit
(** Bounded polling watchdog: {!notify} every [every_us] for [rounds]
    rounds (bounded so {!Netsim.World.run} can drain the event loop). *)

val revive : t -> unit
(** Reset the supervisor: the give-up verdict, the crash-counting
    window, and the grown backoff (back to [initial_us]) are all
    cleared, recording a [Revived] event.  If the daemon is dead it is
    restarted immediately (recording [Restarted]); a restart that was
    already pending becomes a no-op.  This is the reintroduction hook
    for quarantine-style health machines — crash-loop give-up is an
    operator decision point, not a terminal state.  Safe to call in any
    state. *)

val name : t -> string
val state : t -> [ `Watching | `Waiting_restart | `Gave_up ]
val restarts : t -> int
val crashes : t -> int
val gave_up : t -> bool

val events : t -> event list
(** Oldest first. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Attach a telemetry sink: every supervision event (crash detected,
    restart scheduled/performed, give-up) is also emitted as a
    ["supervisor"]-category trace event on a track named after this
    supervisor, stamped with sim time. *)

val set_monitor : t -> Telemetry.Monitor.t option -> unit
(** Attach a flight recorder: every supervision event is journaled
    (source ["supervisor"], actor = this supervisor's name) so incident
    timelines can show restarts and give-ups between detection and
    quarantine. *)

val register_metrics : t -> Telemetry.Metrics.t -> unit
(** Register [supervisor_*] probes (restarts, crashes, gave-up state),
    labelled with this supervisor's name. *)

(** Bounded, backed-off retransmission — the policy type
    {!Device.lookup_with_retry} runs on. *)
module Retry : sig
  type policy = {
    attempts : int;  (** total attempts, including the first *)
    timeout_us : int;  (** delay before the first retransmission *)
    multiplier : float;  (** timeout growth per retransmission *)
    max_timeout_us : int;
  }

  val fixed : attempts:int -> timeout_us:int -> policy
  (** Constant timeout (the seed [lookup_with_retry] behaviour). *)

  val exponential :
    ?multiplier:float ->
    ?max_timeout_us:int ->
    attempts:int ->
    timeout_us:int ->
    unit ->
    policy
  (** Default ×2.0 growth, ceiling 16× the initial timeout. *)

  val run :
    Netsim.Sim.t ->
    policy ->
    attempt:(int -> unit) ->
    still_needed:(unit -> bool) ->
    ?on_exhausted:(unit -> unit) ->
    unit ->
    unit
  (** [attempt 0] fires immediately; each later attempt [i] fires after
      the (backed-off) timeout only if [still_needed ()] still holds.
      When [on_exhausted] is given, it runs one timeout after the final
      attempt if the need never went away.  Raises [Invalid_argument]
      on a non-positive attempt count. *)
end
