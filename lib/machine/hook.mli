(** Composable per-step hooks for the interpreters' hooked run loop.

    Each ISA's [Cpu.run] takes a list of hooks.  An empty list runs the
    specialised plain loops; otherwise one hooked loop fetches each
    instruction once (through the icache when it is on) and hands the
    decoded instruction and its size to every hook's {!t.pre}, in list
    order, against the pre-state.  A hook may veto the instruction
    (stopping the run before it executes — the veto is the outcome) or
    return a commit, which the loop applies only if the instruction
    retires.  Every hook's {!t.stop} sees how the run ended.

    Hooks never touch guest state, so a run's outcome, step count and
    register file depend only on the vetoing hooks — in practice the
    enforcement hook {!enforce}.  Callers put enforcement last: every
    observer then sees the instruction enforcement blocks, and no
    observer can skip enforcement. *)

type verdict =
  | Go  (** nothing to do on retire *)
  | Commit of (unit -> unit)  (** apply if the instruction retires *)
  | Veto of Outcome.stop_reason  (** stop before the instruction executes *)

type ending =
  | Trapped  (** reached a trap address ([Halted]) *)
  | Out_of_fuel  (** [Fuel_exhausted] *)
  | Unfetchable of Outcome.stop_reason
      (** the fetch at the current pc failed (decode error or fault);
          no hook's [pre] saw that pc *)
  | Stopped of Outcome.stop_reason
      (** an instruction or a veto stopped the run *)

type ('cpu, 'insn) t = {
  pre : 'cpu -> int -> 'insn -> int -> verdict;
      (** [pre cpu pc insn size], before [insn] at [pc] executes *)
  stop : 'cpu -> ending -> unit;
}

type transfer =
  | Other
  | Call of int  (** direct call; the argument is the return address *)
  | Indirect_call of { target : int; ret : int }
  | Indirect of int  (** jump or pc write to a computed target *)
  | Return of int  (** return to this target *)

type ('cpu, 'insn) isa = {
  track : string;  (** trace lane of the CPU's events, e.g. ["cpu-x86"] *)
  pc : 'cpu -> int;
  steps : 'cpu -> int;
  transfer : 'cpu -> int -> 'insn -> int -> transfer;
      (** classify an instruction against the pre-state; a
          condition-failed instruction is [Other] *)
  syscall : 'cpu -> 'insn -> (string * Telemetry.Trace.arg) list;
      (** trace arguments of a system-call instruction, [[]] otherwise *)
}
(** What the shared hooks need to know about an ISA. *)

(** {1 Shared hooks} *)

val observe : ('cpu, 'insn) isa -> (int -> unit) -> ('cpu, 'insn) t
(** Calls the function with every pc the run tries to execute, including
    one whose fetch fails — single-step observation and the profiler. *)

val trace : ('cpu, 'insn) isa -> Telemetry.Trace.t -> 'cpu -> ('cpu, 'insn) t
(** ["cpu"]-category events on [isa.track]: [call] (emitted here, at
    the entry pc), [syscall], [bb] (a retired instruction that did not
    fall through), [trap] and [stop].  Timestamps are the step counter
    offset from the trace clock when the hook was made (one instruction
    per µs); the clock is advanced past the run when it ends. *)

val enforce :
  ('cpu, 'insn) isa ->
  shadow_stack:bool ->
  forward_cfi:bool ->
  valid_target:(int -> bool) ->
  shadow0:int list ->
  ('cpu, 'insn) t
(** The embedded mitigations.  Shadow stack: calls push their return
    address onto a mirror seeded with [shadow0]; a return must target its
    top.  Forward-edge CFI: an indirect call or jump must land on an
    address [valid_target] accepts.  A violation vetoes with
    [Cfi_violation] at the transfer's own pc, so the blocked instruction
    does not retire. *)

(** {1 The loop's side} *)

val compose : ('cpu, 'insn) t list -> ('cpu, 'insn) t
(** One hook running the list in order: [pre] stops at the first veto
    (later hooks do not see that instruction) and joins the commits;
    every [stop] runs.  Raises on the empty list. *)

val outcome : ending -> Outcome.stop_reason
(** The run's result for an ending: [Halted] at a trap,
    [Fuel_exhausted], or the stop reason. *)

val at_trap : int list -> int -> bool
