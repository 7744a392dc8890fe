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
    drain: call {!notify} whenever the daemon may have died (devices and
    fleet members do this on every response their daemon handles).  All
    randomness (backoff jitter) comes from the simulator's seeded rng —
    identical seeds give identical restart schedules.

    {!Retry} is the bounded retransmission that
    {!Device.lookup_with_retry} (resolver-client retransmission) runs
    on. *)

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
  kind:string ->
  alive:(unit -> bool) ->
  restart:(unit -> unit) ->
  Netsim.Sim.t ->
  t
(** Attach a supervisor to a daemon: [alive] says whether it runs,
    [restart] boots it again, and [kind] (e.g. ["connmand"]) names the
    supervisor unless [name] is given.  Nothing is scheduled until a
    crash is noticed via {!notify}. *)

val notify : t -> unit
(** Check the daemon now.  If it is dead and the supervisor is watching,
    either schedule a restart per the backoff policy or — when the
    burst limit inside the window is exceeded — give up.  If it is
    alive and the last crash has aged out of the window, the backoff
    resets to its initial delay.  No-op while a restart is already
    pending or after giving up. *)

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

(** Bounded retransmission at a fixed timeout. *)
module Retry : sig
  val run :
    Netsim.Sim.t ->
    attempts:int ->
    timeout_us:int ->
    attempt:(int -> unit) ->
    still_needed:(unit -> bool) ->
    unit
  (** [attempt 0] fires immediately; each later attempt [i < attempts]
      fires [timeout_us] after the previous one, only if
      [still_needed ()] still holds.  Raises [Invalid_argument] on a
      non-positive [attempts] or [timeout_us]. *)
end
