(** Supervision hierarchy: per-device supervisors roll up into per-LAN
    cell supervisors with escalation.

    Contract: a {e cell} owns the (supervisor, health) pairs of the
    devices on one LAN and maintains a three-valued rollup —

    - [`Ok]: every member is [Healthy];
    - [`Degraded]: at least one member is not [Healthy];
    - [`Escalated]: the fraction of members that are {e down} (health
      [Quarantined], or supervisor in crash-loop give-up) reached
      [escalate_frac].

    Entering [`Escalated] fires the cell's escalation hook exactly once
    per episode and counts one escalation; the caller's hook typically
    bulk-quarantines the cell's [Degraded] members
    ({!Health.Cell_escalated}) so a failing LAN is contained instead of
    limping.  The cell de-escalates (back to [`Degraded]/[`Ok]) only
    when the down fraction falls to half of [escalate_frac] or below —
    escalation is hysteretic so a cell flapping around the threshold
    does not fire its hook repeatedly.

    Rollups are recomputed by {!check}, which the fleet engine calls
    after every member health transition; the hierarchy itself
    schedules nothing and draws no randomness, so it adds no
    nondeterminism to a seeded campaign. *)

type t
type cell

val create : ?escalate_frac:float -> unit -> t
(** Escalate at [escalate_frac] down (default 0.35), recover at half
    that.  Raises [Invalid_argument] unless [0 < escalate_frac <= 1]. *)

val add_cell : t -> name:string -> cell

val attach :
  cell -> name:string -> sup:Core.Supervisor.t -> health:Health.t -> unit
(** Enroll one device's supervisor + health machine into the cell. *)

val on_escalate : cell -> (unit -> unit) -> unit
(** Replace the cell's escalation hook (default: none). *)

val check : t -> cell -> now:int -> unit
(** Recompute the cell rollup and fire the hook on an [`Ok]/[`Degraded]
    → [`Escalated] edge. *)

val cell_state : cell -> [ `Ok | `Degraded | `Escalated ]
val cell_size : cell -> int

val cell_down : cell -> int
(** Members currently quarantined or whose supervisor gave up. *)

val cells : t -> cell list
(** In creation order. *)

val escalations : t -> int
(** Total [`Escalated] edges across all cells. *)

val events : t -> (int * string * string) list
(** [(at, cell, what)] log, oldest first — ["escalated"] and
    ["recovered"] edges. *)

val state_counts : t -> (Health.state * int) list
(** Fleet-wide member census by health state, in {!Health.all_states}
    order. *)
