(** ARMv7 (A32) interpreter over {!Memsim.Memory}.

    Models the ARM-specific properties the paper's §III-B2/§III-C2 exploits
    depend on: arguments in r0–r3 (so classic ret2libc cannot set them from
    the stack), function return via [pop {…, pc}] or [bx lr], [blx rN]
    link semantics (lr = next instruction), and pc reading as
    "current + 8".  As on x86, the embedded mitigations run as a
    {!Machine.Hook.enforce} hook. *)

type t = {
  mem : Memsim.Memory.t;
  regs : int array;  (** r0–r15; index 15 is the current instruction address *)
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable steps : int;
  mutable branched : bool;
      (** interpreter-internal: the executing instruction transferred
          control, so the fall-through pc update is skipped *)
  icache : compiled Memsim.Icache.t option;
      (** this memory's view of the decoded-instruction cache
          ([None] = decode every step) *)
}

and kernel = int -> t -> Machine.Outcome.syscall_result
(** [svc n] handler; by ARM EABI convention r7 carries the syscall number
    and r0–r2 the arguments. *)

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
(** Reading [PC] yields the architectural value (current instruction + 8). *)

val set : t -> Insn.reg -> int -> unit
(** Writing [PC] sets the next instruction address. *)

val pc : t -> int
(** Address of the instruction about to execute. *)

val set_pc : t -> int -> unit

val push : t -> int -> unit
val pop : t -> int

val run :
  ?fuel:int ->
  traps:int list ->
  kernel:kernel ->
  hooks:(t, Insn.t) Machine.Hook.t list ->
  t ->
  Machine.Outcome.stop_reason
(** {!Machine.Engine.run} over this ISA's semantics (default [fuel]
    2_000_000): the reference loop without an icache, block-at-a-time
    execution with one.  A pc that is not word-aligned stops the run
    with a [Perm_exec] fault at that pc, context ["unaligned pc"]. *)

val ends_block : Insn.t -> bool
(** The instruction ends a block: a conditional [b], [bl], [bx], [blx],
    [svc], or any write to pc ([pop {…, pc}], a load or data-processing
    op into pc), whatever its condition.  An unconditional [b] does not:
    the block goes on at its target.  Every instruction that does not
    end a block classifies as {!Machine.Hook.Other} under
    {!isa}[.transfer]. *)

val isa : (t, Insn.t) Machine.Hook.isa
(** The instruction classifier behind the shared hooks: [bl]/[blx] push
    the fall-through; [bx lr], [mov pc, lr] and [pop {…, pc}] return; any
    other pc write ([bx r], [blx r], data-processing or load into pc) is
    indirect; a condition-failed instruction is no transfer.  [svc n]
    traces with its vector and [r7]. *)

val taint : Sanitizer.Oracle.t -> (t, Insn.t) Machine.Hook.t
(** The taint sanitizer — the ARM twin of the x86 hook: loads, stores
    and data-processing ops propagate labels through the oracle, and the
    detections (redzone write, return-slot overwrite, tainted pc via
    [pop {…, pc}]/[bx]/[blx]/pc-writing ops, tainted [svc]) fire as
    instructions are about to retire.  Vetoes only as the x86 hook
    does, once a halting oracle holds a report. *)
