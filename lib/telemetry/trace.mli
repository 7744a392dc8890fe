(** Structured event tracing over the whole simulation stack.

    A trace is a bounded ring buffer of typed events.  Layers emit into
    it under their own category ([cat]) and timeline lane ([track]):
    netsim, the daemons, and the supervisor stamp events with the
    deterministic sim clock (µs); the interpreters stamp theirs with the
    per-CPU retired-instruction counter offset from the moment the call
    began (one instruction rendered as one µs — see DESIGN.md's clock
    domains).  The buffer never grows: once full, the oldest event is
    overwritten and counted in {!dropped}, so tracing a long campaign
    keeps the most recent window.

    Everything here is deterministic: the same seeded run emits the same
    events in the same order, and {!to_chrome_json} serializes with a
    fixed field order, so identical seeds produce byte-identical JSON
    (the determinism tests assert exactly that).

    The instrumented code paths live beside — never inside — the hot
    interpreter loops: a disabled trace ([None] in the owning module)
    costs at most one branch on a cold path, and the CPU run loops are
    untouched (see the overhead contract in DESIGN.md). *)

type arg = I of int | S of string | B of bool
(** Event argument values. *)

val arg_string : arg -> string
(** The value as {!pp} prints it, without the key. *)

type event = {
  ts : int;  (** timestamp, µs on the shared timeline *)
  cat : string;  (** layer: "cpu", "mem", "net", "daemon", "supervisor" *)
  track : string;  (** timeline lane (Perfetto thread), e.g. "connmand" *)
  name : string;
  dur : int;  (** µs; 0 means an instant event *)
  args : (string * arg) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 65536 events. *)

val capacity : t -> int
val length : t -> int  (** events currently retained *)

val emitted : t -> int  (** events ever emitted *)

val dropped : t -> int
(** [emitted - length]: events overwritten by ring wrap-around. *)

val now : t -> int
val set_now : t -> int -> unit
(** Advance the shared timeline clock (monotonic: earlier values are
    ignored).  The netsim layer calls this with [Sim.now] as events
    flow, so layers without their own clock inherit a current µs. *)

val emit :
  t ->
  ?ts:int ->
  ?dur:int ->
  ?args:(string * arg) list ->
  cat:string ->
  track:string ->
  string ->
  unit
(** [emit t ~cat ~track name] appends an event ([ts] defaults to
    {!now}), overwriting the oldest when the ring is full. *)

val events : t -> event list  (** oldest first *)

val clear : t -> unit

val to_chrome_json : t -> string
(** Chrome trace-event JSON (the [{"traceEvents": [...]}] envelope),
    loadable in Perfetto / chrome://tracing.  Tracks become named
    threads of one process; instant events use phase ["i"], events with
    a duration phase ["X"].  Field order and float formatting are fixed:
    identical traces give identical bytes.

    If the ring overflowed ({!dropped} > 0), a synthetic
    [dropped_events] instant event (track ["ring"], cat ["trace"]) is
    emitted first, stamped at the oldest retained timestamp, with
    [dropped]/[emitted] args — so a consumer can tell a quiet window
    from a truncated one. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
(** Compact text timeline, one event per line. *)
