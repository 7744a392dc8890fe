(** Composable per-step hooks for the interpreters' run loops.

    Each ISA's [Cpu.run] takes a list of hooks and runs them on
    {!Engine}.  Its loop fetches each
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
    observer can skip enforcement.

    {2 Lowering to blocks}

    With the icache on, the loop executes cached blocks ({!Engine}):
    runs of instructions on one page that go on through direct
    unconditional jumps and end at any other control transfer or pc
    write, or at a length cap.  Each hook says, through its
    {!t.lower} field, what it needs from a block:

    - {!Observe}[ o]: only the stream of pcs.  The loop calls [o.see] on
      each block member's pc before running it, as the per-instruction
      [pre] would.  An observer with a {!observer.fold} also lets a
      copy-loop summary ({!Engine}) run [k] iterations as one step: the
      loop then calls [o.fold pcs k] once with the block's pcs, after
      the copy has succeeded, in place of [k] passes of [o.see] over
      them.  A run summarises only when every [Observe] hook folds.
    - {!Terminal}: only instructions its classifier does not call
      {!Other}.  Only a block's last instruction can be one (the
      lowering contract: an instruction that does not end a block
      classifies as [Other] under the ISA's {!isa.transfer}), so its
      [pre] runs only there.  It must return [Go] on an instruction
      classified [Other]: a copy-loop summary ({!Engine}) skips it on
      the loop's conditional branch.
    - {!Step}: every instruction, through [pre].

    A run with a [Step] hook, or with a [Terminal] hook listed before an
    [Observe] one, goes per-instruction: the hooks' [pre]s run in list
    order, a veto ends the step (later hooks do not see that
    instruction), and the commits of the others join.  Either way a run's outcome,
    steps, registers, hook calls and icache counts are the same. *)

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

type observer = {
  see : int -> unit;  (** one pc the run tries to execute *)
  fold : (int array -> int -> unit) option;
      (** [fold pcs k] leaves exactly the state [k] in-order passes of
          [see] over [pcs] leave ([k >= 1]); [None] when that has no
          cheaper form.  [pcs] is the engine's: read it, never change or
          keep it. *)
}
(** A consumer of the pc stream. *)

type lowering =
  | Observe of observer  (** an observer of this pc stream *)
  | Terminal  (** vetoes or commits only at control transfers *)
  | Step  (** needs every instruction *)

type ('cpu, 'insn) t = {
  pre : 'cpu -> int -> 'insn -> int -> verdict;
      (** [pre cpu pc insn size], before [insn] at [pc] executes *)
  stop : 'cpu -> ending -> unit;
  lower : lowering;  (** what the hook needs from a block *)
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

val observer : ?fold:(int array -> int -> unit) -> (int -> unit) -> observer
(** [observer ?fold see]; no fold by default. *)

val observe : ('cpu, 'insn) isa -> observer -> ('cpu, 'insn) t
(** Calls [see] with every pc the run tries to execute, including one
    whose fetch fails — single-step observation, edge coverage.  Lowers
    to [Observe]. *)

val profile : ('cpu, 'insn) isa -> Telemetry.Profile.t -> ('cpu, 'insn) t
(** The profiler: {!observe} with {!Telemetry.Profile.record} and, while
    the profile has no sink, {!Telemetry.Profile.fold}. *)

val trace : ('cpu, 'insn) isa -> Telemetry.Trace.t -> 'cpu -> ('cpu, 'insn) t
(** ["cpu"]-category events on [isa.track]: [call] (emitted here, at
    the entry pc), [syscall], [bb] (a retired instruction that did not
    fall through), [trap] and [stop].  Timestamps are the step counter
    offset from the trace clock when the hook was made (one instruction
    per µs); the clock is advanced past the run when it ends.  Lowers to
    [Step]. *)

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
    does not retire.  Lowers to [Terminal]. *)
