(** x86-32 interpreter over {!Memsim.Memory}.

    Faithfully models the properties the paper's exploits rest on:
    instruction fetch goes through page permissions (so W⊕X is a real NX
    check, not a flag), [call]/[ret] move real bytes through the simulated
    stack (so a smashed return address genuinely redirects control), and
    arguments are passed on the stack (cdecl).  The embedded mitigations
    of the paper's §IV run as a {!Machine.Hook.enforce} hook. *)

type t = {
  mem : Memsim.Memory.t;
  regs : int array;  (** eight GPRs indexed by {!Insn.reg_index} *)
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable o_f : bool;
  mutable steps : int;  (** instructions retired, for benches *)
  icache : compiled Memsim.Icache.t option;
      (** this memory's view of the decoded-instruction cache
          ([None] = decode every step) *)
}

and kernel = int -> t -> Machine.Outcome.syscall_result
(** System-call handler: receives the [int n] vector number and the CPU
    (registers carry the arguments, eax the syscall number by Linux i386
    convention). *)

and compiled = private {
  insn : Insn.t;
  size : int;  (** encoded length *)
  run : t -> kernel -> Machine.Outcome.stop_reason option;
  mutable block : block;
}
(** Icache payload: the decoded instruction plus an execution thunk
    specialized for the instruction's address (successor eip and branch
    targets pre-resolved), and the straight-line block that starts
    there once it has been built.  Behaviorally identical to
    interpreting [insn] — the cache only ever changes speed, never
    outcomes. *)

and block
(** A cached straight-line run of compiled instructions (see {!run}). *)

val new_icache : unit -> compiled Memsim.Icache.table
(** An empty decoded-instruction cache.  Its owner (a booted process,
    shared by every fork of it) hands it to each {!create}, so compiled
    instructions outlive the run. *)

val create : icache:compiled Memsim.Icache.table option -> Memsim.Memory.t -> t
(** A CPU over [mem] with zeroed registers.  [icache:(Some table)] runs
    through the write-invalidated decoded-instruction cache [table],
    viewed through [mem]; [None] decodes every step.  Execution is
    bit-identical either way (self-modifying pages re-decode via
    {!Memsim.Memory.page_gen}). *)

val get : t -> Insn.reg -> int
val set : t -> Insn.reg -> int -> unit

val push : t -> int -> unit
(** Decrement [esp] by 4 and store a 32-bit word. *)

val pop : t -> int
(** Load a 32-bit word and increment [esp] by 4. *)

val run :
  ?fuel:int ->
  traps:int list ->
  kernel:kernel ->
  hooks:(t, Insn.t) Machine.Hook.t list ->
  t ->
  Machine.Outcome.stop_reason
(** Run until a trap address is reached ([Halted]), a stop condition fires,
    or [fuel] instructions (default 2_000_000) have retired, calling the
    [hooks] as {!Machine.Hook} describes.

    Without an icache this is the reference loop: decode and the generic
    interpreter every step.  With one, the loop executes cached blocks:
    a run of up to 32 compiled instructions on the head's page, through
    direct [jmp]s, that ends where {!ends_block} says or before an
    instruction straddling a page.  A block is built, without decoding,
    from entries already cached at its head's page generation, on the
    head's second execution, and rebuilt when a member's slot may have
    been refilled since ({!Memsim.Icache.refills}).  Fuel and traps are checked once per
    block; the loop runs the head alone when the remaining fuel is
    shorter than the block, a trap address lies inside it, or a hook
    lowers to [Step].  A store into the block's page ends the block after
    the storing instruction.  Outcome, steps, registers, flags, hook
    calls and icache hit/miss counts are those of one lookup per step. *)

val ends_block : Insn.t -> bool
(** The instruction ends a block: [call], an indirect [jmp], [jcc],
    [ret], [int] or [hlt].  A direct [jmp] does not: the block goes on at
    its target.  Every instruction that does not end a block classifies
    as {!Machine.Hook.Other} under {!isa}[.transfer], which is what lets
    enforcement run only at a block's last instruction. *)

val isa : (t, Insn.t) Machine.Hook.isa
(** The instruction classifier behind the shared hooks: [call] pushes
    the fall-through, [call]/[jmp] through a register or memory operand
    are indirect, [ret]/[ret n] return to the word at [esp]; [int n]
    traces with its vector and [eax]. *)

val taint : Sanitizer.Oracle.t -> (t, Insn.t) Machine.Hook.t
(** The taint sanitizer: loads, stores and ALU ops propagate labels
    through the oracle's shadow state, and its detections (redzone
    write, return-slot overwrite, tainted pc, tainted syscall) fire as
    instructions are about to retire.  Never touches guest state, and
    vetoes only when a halting oracle already holds a report: the run
    then stops before the next instruction with [Aborted "sanitizer"]. *)
