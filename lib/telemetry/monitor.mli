(** Campaign flight recorder: an in-sim time-series store, alert rules,
    and causal incident timelines over a {!Metrics} registry.

    The monitor never looks at wall time.  A {e scrape} is driven
    externally with an explicit sim-clock timestamp — the fleet/chaos
    runners call {!scrape} from a [Netsim.World] barrier, which fires
    only once every event at or before the barrier time has run — and
    {!json} is byte-deterministic across runs of one config (test_replay
    asserts it).

    Each scrape:
    + samples every registry series (each a {!Metrics.probe}, one
      float per scrape) into a fixed-capacity ring with
      last/sum/min/max downsampling (when the ring fills, adjacent
      points merge pairwise and the time-stride doubles — capacity is
      bounded, resolution degrades gracefully);
    + evaluates {e recording rules} in declaration order, appending each
      result as a synthetic series (so later rules can reference it);
    + evaluates {e alert rules}: threshold + [for]-duration + hysteresis
      ([clear] threshold), advancing a pending → firing → resolved
      lifecycle and recording typed transitions.

    Components journal domain events ({!journal}) — wire-byte
    provenance, sanitizer verdicts, health transitions, cell
    escalations, rollout waves, supervisor restarts.  The incident
    correlator joins each firing episode with the journal window around
    it (and optionally the {!Trace} ring) into a causal timeline
    anchored at the first wire-provenance entry and truncated after the
    last containment (quarantine/rollback) event. *)

type t

val create : ?interval_us:int -> ?points:int -> Metrics.t -> t
(** [interval_us] (default 1s) is the intended scrape cadence — the
    monitor itself never schedules; runners read it via {!interval_us}
    to set their barrier.  [points] (default 512, rounded up to even) is
    the per-series ring capacity.  The domain-event journal keeps the
    last 131072 entries (drop-oldest), and the incident correlator
    searches [2 * interval_us] before an alert's pending edge for the
    causal anchor. *)

val registry : t -> Metrics.t
val interval_us : t -> int

val set_trace : t -> Trace.t option -> unit
(** Optional: join retained trace events (cats other than ["cpu"]/["mem"],
    which tick on the instruction clock) into incident timelines. *)

(** {1 Expressions} *)

type selector = {
  sel_name : string;
  sel_labels : (string * string) list;
      (** matched as a subset of the series' labels *)
}

type expr =
  | Const of float
  | Series of selector
      (** sum of current values over matching series; 0 if none match *)
  | Rate of selector * int
      (** per-second increase over a trailing window (µs), from the
          store; clamps to the oldest retained point *)
  | Delta of selector * int  (** raw increase over a trailing window *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** x/0 = 0 — rates at t=0 stay quiet *)

type cmp = Gt | Lt | Ge | Le

val record : t -> name:string -> expr -> unit
(** Recording rule: evaluated each scrape (after raw sampling, in
    declaration order), appended to the store as gauge [name]. *)

val alert :
  t ->
  name:string ->
  ?for_us:int ->
  ?clear:float ->
  cmp:cmp ->
  threshold:float ->
  expr ->
  unit
(** Alert rule.  Breaching starts a pending episode; sustained breach
    for [for_us] (default 0: fire immediately) promotes it to firing; a
    pending episode whose value stops breaching cancels; a firing
    episode resolves only when the value crosses [clear] (default
    [threshold]) on the non-breaching side — hysteresis. *)

val add_rules : t -> string -> (int, string) result
(** Parse rules from text, one per line ([#] comments, blank lines ok):
    {v
record fleet_compromised_fraction = fleet_compromised_devices / fleet_devices
record compromise_rate = rate(fleet_compromises_total[10s])
alert compromise_wave if compromise_rate > 0.5 for 5s clear 0.05
    v}
    Durations take [s]/[ms]/[us] suffixes; selectors may carry label
    matchers [name{k="v"}].  The functions are [rate] and [delta]; any
    other [name(] is an error that names it.  Returns the number of
    rules added, or [Error "line N: ..."] (no rules are added on
    error). *)

(** {1 Scraping} *)

val scrape : t -> now:int -> unit
(** Sample + evaluate at sim time [now] (µs).  Calls with [now] not
    beyond the last scrape are ignored (idempotent at a barrier). *)

val scrapes : t -> int

(** {1 Store queries} *)

type point = {
  p_ts : int;  (** µs of the newest scrape merged into this point *)
  p_last : float;
  p_sum : float;
  p_min : float;
  p_max : float;
  p_count : int;  (** scrapes merged *)
}

val points : t -> ?labels:(string * string) list -> string -> point list
(** Retained points (oldest first) for the series matching (name,
    labels) exactly; [] if unknown. *)

val value_at : t -> ?labels:(string * string) list -> string -> int -> float option
(** Last-observed value at or before a timestamp. *)

val rate_over :
  t -> ?labels:(string * string) list -> string -> now:int -> window_us:int -> float

val delta_over :
  t -> ?labels:(string * string) list -> string -> now:int -> window_us:int -> float

(** {1 Journal} *)

val journal :
  t ->
  ts:int ->
  source:string ->
  actor:string ->
  ?detail:string ->
  string ->
  unit
(** [journal t ~ts ~source ~actor kind] records a domain event.
    [source] names the emitting layer — ["net"], ["daemon"], ["health"],
    ["supervisor"] are device-scoped; ["cell"], ["rollout"], ["fleet"]
    are scope-wide (incident timelines include scope-wide events plus
    the anchor device's own).  Export order is by
    [(ts, actor, per-actor ordinal)]: same-timestamp events sort by
    actor, not by which one the scheduler happened to run first. *)

type entry = {
  e_ts : int;
  e_source : string;
  e_kind : string;
  e_actor : string;
  e_detail : string;
}

val journal_entries : t -> entry list  (** retained, in export order *)

(** {1 Alerts and incidents} *)

type alert_state = Inactive | Pending | Firing

type transition = {
  tr_ts : int;
  tr_rule : string;
  tr_from : alert_state;
  tr_to : alert_state;
  tr_value : float;  (** rule expression value at the transition *)
}

val transitions : t -> transition list  (** chronological *)

val alert_states : t -> (string * alert_state) list
(** Current state per alert rule, declaration order. *)

type incident = {
  i_rule : string;
  i_pending_us : int;
  i_firing_us : int;
  i_resolved_us : int;  (** -1 while still firing at end of run *)
  i_peak : float;  (** most-breaching value over the episode *)
  i_timeline : entry list;
  i_truncated : int;  (** timeline entries elided from the middle *)
}

val incidents : t -> incident list
(** One incident per firing episode, chronological.  The timeline is
    anchored at the first wire-provenance journal entry in the lookback
    window (when present, it is the first entry) and truncated after the
    last quarantine/rollback entry (when present, it is the last). *)

(** {1 Export} *)

val json : t -> string
(** Byte-deterministic [monitor-v1] JSON: store (all series, all
    retained points), alert transitions, incidents. *)

val dashboard : t -> string
(** Rendered text dashboard: sparkline per series, alert table,
    incident narratives. *)
