(** Per-device health state machine: [Healthy → Degraded → Quarantined →
    Reintroduced].

    The fleet engine's unit of policy.  The {!Core.Supervisor} answers
    "is the process up" — this machine answers "should the device be in
    rotation".  The two disagree exactly when it matters: a compromised
    daemon is {e alive} (the attacker keeps it running) but must leave
    rotation immediately, and a crash-looping daemon whose supervisor
    gave up must come {e back} once its probation ends.

    Contract (the full transition relation):
    - [Compromised] and [Crash_loop] quarantine from any live state —
      an owned box gets no grace period, and a supervisor give-up is
      delegated here rather than being terminal.
    - [Cell_escalated] quarantines a [Degraded] device only: it is the
      bulk-containment action a LAN supervisor takes when too many of
      its members are down, and it never touches devices that still
      look healthy.
    - [Crashed] degrades a [Healthy]/[Reintroduced] device; once
      [quarantine_crashes] crashes land inside [window_us] the device
      is quarantined (the device-level crash-loop verdict, independent
      of the supervisor's).
    - [Probation_over] moves [Quarantined] to [Reintroduced]: back in
      rotation, on watch.
    - [Probe_ok] promotes [Degraded]/[Reintroduced] to [Healthy] and
      clears the crash window.  It is ignored while [Quarantined] —
      only probation ends a quarantine.

    All other (state, cause) pairs are no-ops.  The machine is pure
    bookkeeping: callers own the clock, the probation timers, and the
    side effects (pulling devices from rotation, reviving
    supervisors). *)

type state = Healthy | Degraded | Quarantined | Reintroduced

val state_name : state -> string
val all_states : state list
(** Fixed reporting order: healthy, degraded, quarantined,
    reintroduced. *)

type cause =
  | Crashed  (** a crash disposition was observed *)
  | Compromised  (** attacker-controlled execution was observed *)
  | Crash_loop  (** the device's supervisor gave up *)
  | Cell_escalated  (** the LAN supervisor ordered bulk containment *)
  | Probe_ok  (** a benign lookup completed end-to-end *)
  | Probation_over  (** the quarantine probation timer fired *)

type config = {
  quarantine_crashes : int;
      (** crashes inside [window_us] that force quarantine *)
  window_us : int;  (** crash-counting window *)
  probation_us : int;
      (** how long a quarantined device sits out — the caller schedules
          [Probation_over] this far after the quarantine transition *)
}

val default_config : config
(** 3 crashes / 10 s window / 15 s probation. *)

type transition = {
  at : int;  (** sim time, µs *)
  from_state : state;
  to_state : state;
  cause : cause;
}

type t

val create : ?config:config -> unit -> t
(** A fresh machine in [Healthy]. *)

val config : t -> config
val state : t -> state

val observe : t -> now:int -> cause -> state
(** Feed one observation; returns the (possibly unchanged) state.
    Transitions are recorded with their timestamp and cause. *)

val transitions : t -> transition list
(** Oldest first. *)

val quarantines : t -> int
(** Times the machine entered [Quarantined]. *)

val reintroductions : t -> int
(** Times the machine entered [Reintroduced]. *)
