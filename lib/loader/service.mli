(** One daemon process on the simulated device: the lifecycle and the
    guarded guest call that connmand, dnsmasq-sim and tcpsvc-sim share.

    A service boots its program ({!Process.boot}), hands each received
    datagram to the program's entry function, and classifies how the
    call ended.  A crash, a hijack or a defense stop kills it; {!restart}
    re-boots with a fresh address-space draw, as an init system would.
    The daemons add only their host-side protocol (DNS pre-validation
    and cache, or a frame-magic check) and map {!outcome} to their own
    disposition. *)

type daemon = {
  track : string;
      (** trace track of the daemon's events; [daemon] label of its
          metrics *)
  entry : string;  (** the program function each datagram is handed to *)
  frame : Arch.t -> Machine.Stack_frame.t;
      (** geometry of the overflow frame the sanitizer protects *)
  buffer_addr : Process.t -> int;  (** that frame's buffer, per boot *)
}

type t

val fuel : int
(** Instruction budget of one call (400 000): a parse that does not
    return within it is a hang, i.e. a crash. *)

val boot :
  daemon -> Process.spec -> profile:Defense.Profile.t -> boot_seed:int -> t
(** Boot the program with [boot_seed] driving its randomness (ASLR,
    canary).  The [n]th restart re-boots with seed
    [boot_seed + n * 7919]. *)

val fork : t -> t
(** A copy-on-write clone of this service's current machine state
    ({!Process.snapshot} + {!Process.fork}): same boot-time randomness,
    same liveness, zero restarts and counters, nothing attached. *)

val fork_variant : t -> Process.spec -> t option
(** Like {!fork}, then re-assemble the text as [spec]
    ({!Process.reimage}); [None] when the variant's text does not fit
    the mapped region. *)

val process : t -> Process.t
val alive : t -> bool

val restart : t -> unit
(** Re-boot the same program (fresh draw from the boot seed and restart
    count) and mark the service alive; an attached trace sink follows
    the new address space, whose regions are re-emitted. *)

type outcome =
  | Returned of int  (** the entry function returned this value *)
  | Oversized  (** the datagram does not fit the rx buffer; not delivered *)
  | Compromised of Machine.Outcome.stop_reason  (** attacker code ran *)
  | Crashed of Machine.Outcome.stop_reason
      (** fault, illegal instruction, hang or exit *)
  | Blocked of Machine.Outcome.stop_reason
      (** a defense (CFI, canary, seccomp) stopped the run *)

val call : t -> origin:string -> string -> outcome
(** Write the datagram at the heap base (the rx buffer) and call the
    entry function on it with {!fuel}.  Every outcome but [Returned] and
    [Oversized] kills the service.  With a sanitizer attached, the
    datagram's bytes are tainted as a source labelled [origin] and the
    overflow frame is protected ({!Sanitizer.Oracle.arm}) first.  The
    call emits a ["parse"] span on the trace. *)

val last_steps : t -> int
(** Instructions retired by the most recent call. *)

val event :
  t -> ?ts:int -> ?dur:int -> string -> (string * Telemetry.Trace.arg) list ->
  unit
(** Emit a [cat:"daemon"] event on the service's track, if a trace sink
    is attached. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Attach a telemetry sink: the service's events, the process memory's
    fault/mapping events, and the sanitizer's reports.  The current
    region snapshot is re-emitted on attach (and after each {!restart}),
    since boot-time [map] events predate the sink. *)

val trace : t -> Telemetry.Trace.t option

val set_profiler : t -> Telemetry.Profile.t option -> unit
(** Record every pc a call retires into this profiler. *)

val set_sanitizer : t -> Sanitizer.Oracle.t option -> unit
(** Attach (or detach) the taint sanitizer; it shares the trace sink.
    It only observes: outcomes are those of an unsanitized service. *)

val sanitizer : t -> Sanitizer.Oracle.t option

val register_metrics : t -> Telemetry.Metrics.t -> unit
(** Register the [daemon_*] probes (restarts, liveness, last call's
    steps, icache hits and misses), labelled [{daemon=track}], and the
    attached sanitizer's probes. *)
