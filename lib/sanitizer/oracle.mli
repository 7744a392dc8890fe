(** Shadow-memory exploit oracle: byte-granular taint state plus the
    detection rules the interpreters' taint hooks fire against.

    The oracle owns everything the sanitizer knows that the CPU does not:
    the shadow map (one label per guest byte — {!Memsim.Shadow}),
    per-register taint for both ISAs, the provenance table of taint
    sources (one per attacker-controlled datagram), the return-address
    slot map, and the stack redzones.  The [taint] hooks of
    [Isa_x86.Cpu] / [Isa_arm.Cpu] feed it three things — stores, indirect
    control transfers, and syscalls — and it decides whether each one is
    a finding.

    Detections, in the order an overflow trips them (severity ascending):

    - {e redzone write}: a tainted byte lands between the end of the
      overflow buffer and the end of its frame — the smash itself,
      caught before any slot that matters is corrupted;
    - {e return-address-slot overwrite}: a tainted store covers a saved
      return address / lr slot;
    - {e tainted pc}: an indirect control transfer is about to load its
      target from attacker bytes — the hijack;
    - {e tainted syscall}: the syscall number, or the path/argument bytes
      of an exec-class syscall, derive from attacker bytes.

    The oracle is a strict observer: it never reads or writes guest
    memory and never touches CPU registers, so a sanitized run retires
    exactly the instructions a plain run does (the differential tests
    hold this unconditionally).  The one exception is opt-in: an oracle
    created with [~halt_on_report:true] stops the run at the instruction
    after its first report. *)

module Shadow = Memsim.Shadow

type kind =
  | Redzone_write
  | Ret_slot_overwrite
  | Tainted_pc
  | Tainted_syscall

val kind_name : kind -> string
(** ["redzone-write"] / ["ret-slot-overwrite"] / ["tainted-pc"] /
    ["tainted-syscall"]. *)

val severity : kind -> int
(** Detection-point ordering, 0 (earliest in an overflow) .. 3. *)

type report = {
  kind : kind;
  step : int;  (** CPU retired-instruction count at detection *)
  pc : int;  (** address of the instruction that tripped the rule *)
  addr : int;
      (** the memory address involved: store target for writes, the slot
          the control-transfer target was loaded from for tainted-pc,
          the path address for tainted syscalls *)
  target : int;
      (** the tainted value: byte/word stored, hijacked pc target, or
          syscall number *)
  label : Shadow.label;  (** provenance label of the offending byte *)
  origin : string;  (** origin string of the taint source *)
  detail : string;
}

val wire_offset : report -> int
(** Offset within the taint source (= UDP payload offset) of the byte
    that tripped the detection. *)

val source_id : report -> int

type t

val create : ?halt_on_report:bool -> unit -> t
(** [halt_on_report] (default [false]), after ASan's [halt_on_error]:
    once the oracle holds a report, the interpreters' taint hooks veto
    the next instruction, stopping the run with [Aborted "sanitizer"].
    For callers that keep only {!first_report}.  Without it the oracle
    never changes a run. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Reports additionally emit instant events under [cat:"sanitizer"]. *)

(** {1 Taint sources and per-parse lifecycle} *)

val new_source : t -> origin:string -> length:int -> int
(** Allocate a provenance id for an attacker-controlled byte string
    (e.g. one UDP response).  Ids are dense from 0 and survive
    {!begin_parse}, so reports from successive datagrams stay
    distinguishable. *)

val origin_of : t -> int -> string
(** Origin string of a source id; ["?"] if unknown. *)

val begin_parse : t -> unit
(** Reset the per-run state — shadow map, register taint, return-slot
    map, redzones — while keeping sources, reports, and counters.  The
    daemon calls this once per delivered datagram; benchmark harnesses
    call it before each sanitized run. *)

val taint : t -> src:int -> int -> len:int -> unit
(** [taint t ~src addr ~len] marks [len] guest bytes starting at [addr]
    as bytes [0..len-1] of source [src]. *)

(** {1 Shadow accessors (used by the propagation loops and tests)} *)

val mem_label : t -> int -> Shadow.label
val mem_label32 : t -> int -> Shadow.label
(** Join of the four byte labels at an address. *)

val reg_label : t -> int -> Shadow.label
(** Taint of register index [i] (x86 uses 0..7, ARM 0..15). *)

val set_reg_label : t -> int -> Shadow.label -> unit
val tainted_bytes : t -> int

(** {1 Frame protection} *)

val note_ret_slot : t -> int -> unit
(** Register a 4-byte return-address slot at [addr].  The sanitized
    loops call this as [call]/[push {…, lr}] retire; the daemon also
    registers the overflow frame's slot statically from
    {!Machine.Stack_frame} geometry. *)

val clear_ret_slot : t -> int -> unit
(** The slot was legitimately consumed ([ret] / [pop {…, pc}]). *)

val ret_slot_count : t -> int

val add_redzone : t -> base:int -> len:int -> unit

val protect_frame : t -> buffer:int -> Machine.Stack_frame.t -> unit
(** Register the frame's return slot ([buffer + off_ret]) and a redzone
    covering [buffer + buffer_size, buffer + frame_end). *)

val arm :
  t -> origin:string -> rx:int -> len:int -> buffer:int ->
  Machine.Stack_frame.t -> unit
(** Arm the oracle for one run over an attacker datagram: {!begin_parse},
    a fresh source labelled [origin] for its [len] bytes, those bytes
    tainted where they sit in guest memory (at [rx]), then
    {!protect_frame} of the overflow frame whose buffer is at [buffer].
    Every daemon parse and every fuzzer triage starts this way. *)

(** {1 Detection entry points (called by the sanitized loops)} *)

val store :
  t -> pc:int -> step:int -> addr:int -> len:int -> value:int ->
  label:Shadow.label -> unit
(** Commit a retired store to the shadow map and run the redzone /
    return-slot rules (which only ever fire for tainted labels, so
    ordinary prologue spills are free of false positives).  Each redzone
    and each slot reports at most once per parse. *)

val check_pc :
  t -> pc:int -> step:int -> target:int -> slot:int ->
  label:Shadow.label -> detail:string -> unit
(** About to transfer control to [target] loaded from [slot]; fires
    {!Tainted_pc} when [label] is non-zero. *)

val check_syscall :
  t -> pc:int -> step:int -> number:int -> addr:int ->
  label:Shadow.label -> detail:string -> unit
(** About to enter the kernel; fires {!Tainted_syscall} when [label] is
    non-zero. *)

val check_kernel_entry :
  t -> Memsim.Memory.t -> pc:int -> step:int -> number:int ->
  number_label:Shadow.label -> path:int -> path_label:Shadow.label ->
  argv_label:Shadow.label -> unit
(** The syscall rule as both interpreters apply it: {!check_syscall}
    with the label of the number register, joined — for the exec family
    — with the path and argv registers' labels and the first tainted
    byte of the path string in [mem]. *)

(** {1 Planned effects}

    A taint hook plans an instruction's effect against the pre-state
    and returns it as the hook's commit, applied only if the
    instruction retires.  A planner holds one pending effect and the
    commits that apply it, made once: planning a register label, a
    store or a call allocates nothing.  The pending effect is
    overwritten by the next plan, so a commit must be applied (or
    dropped) before the hook plans again — as the hooked loop does. *)

type planner

val planner : t -> planner

val plan_reg : planner -> int -> Shadow.label -> Machine.Hook.verdict
(** [plan_reg pl i l]: on retire, register index [i] takes label [l]. *)

val plan_store :
  planner -> pc:int -> step:int -> addr:int -> len:int -> value:int ->
  label:Shadow.label -> Machine.Hook.verdict
(** On retire, {!store}. *)

val plan_call :
  planner -> pc:int -> step:int -> slot:int -> ret:int -> Machine.Hook.verdict
(** On retire, the clean store of the return address [ret] to [slot],
    which becomes a return slot ({!note_ret_slot}). *)

val halt_reason : Machine.Outcome.stop_reason
(** [Aborted "sanitizer"]: the veto of a halted oracle ({!halted}). *)

(** {1 Results} *)

val reports : t -> report list
(** Oldest first. *)

val first_report : t -> report option
val report_count : t -> int

val halted : t -> bool
(** The oracle was created with [~halt_on_report:true] and holds a
    report: the taint hooks stop the run before its next instruction. *)

val count : t -> kind -> int
val clear_reports : t -> unit

val pp_report : Format.formatter -> report -> unit

val render : ?symbolize:(int -> string) -> report -> string
(** One-line report with the provenance chain
    wire offset → memory address → pc, symbolizing [pc] when a resolver
    is given. *)

val register_metrics : t -> Telemetry.Metrics.t -> unit
(** Pull-style probes: [sanitizer_reports_total{kind=…}],
    [sanitizer_sources_total], [sanitizer_tainted_bytes],
    [sanitizer_ret_slots]. *)
