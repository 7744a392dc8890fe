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

and compiled = (t, Insn.t) Machine.Engine.compiled
(** Icache payload: see {!Machine.Engine.compiled}. *)

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
(** {!Machine.Engine.run} over this ISA's semantics (default [fuel]
    2_000_000): the reference loop without an icache, block-at-a-time
    execution with one. *)

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
