(** The block engine both interpreters run on: the reference loop, the
    icache loop with its cached blocks, and how a hook list lowers onto
    them.  An ISA supplies only its instruction semantics ({!isa}); its
    [Cpu.run] is {!run} over them.

    Without an icache, {!run} is the reference loop: fetch and the ISA's
    generic [exec] every step, every hook's [pre] per instruction.  It is
    the path the differential tests compare everything else against.

    With an icache, the loop executes cached blocks: a run of up to 32
    compiled instructions on the head's page, through the direct jumps
    {!isa.follower} names, that ends where {!isa.ends_block} says or
    before an instruction straddling a page.  A block is built, without
    decoding, from entries already cached at its head's page generation,
    on the head's second execution, and rebuilt when a member's slot may
    have been refilled since ({!Memsim.Icache.refills}).  Fuel and traps
    are checked once per block; the loop runs the head alone when the
    remaining fuel is shorter than the block, a trap address lies inside
    it, or the hooks cannot lower to blocks (see {!Hook.lowering}).  A
    store into the block's page ends the block after the storing
    instruction.  Outcome, steps, registers, hook calls and icache
    hit/miss counts are those of one lookup per step: each follower
    credits one hit. *)

type 'cpu kernel = int -> 'cpu -> Outcome.syscall_result
(** A system-call handler: the call's vector and the CPU. *)

type 'cpu thunk = 'cpu -> 'cpu kernel -> Outcome.stop_reason option
(** An instruction compiled for its address: runs it, counting the step
    and moving the pc, and returns why it stopped the run, if it did. *)

type ('cpu, 'insn) compiled
(** The icache payload: the decoded instruction, its size, its {!thunk},
    and the block that starts at its address once it has been built. *)

exception Undecodable of { addr : int; byte : int }
(** What an ISA's {!isa.fetch} raises for bytes it cannot decode; the
    run stops with [Decode_error]. *)

type ('cpu, 'insn) isa = {
  pc : 'cpu -> int;  (** the address of the instruction about to run *)
  fetch : Memsim.Memory.t -> int -> 'insn * int;
      (** decode at an address, with the encoded size.  Raises
          {!Undecodable}, or {!Memsim.Memory.Fault} (the run stops with
          that fault).  On a cached run it is called only on a miss, and
          a raise counts no miss. *)
  exec : 'cpu -> 'cpu kernel -> int -> 'insn -> int -> Outcome.stop_reason option;
      (** [exec cpu kernel pc insn size]: the generic interpreter *)
  compile : int -> int -> 'insn -> 'cpu thunk;
      (** [compile pc size insn]: behaves exactly as [exec] at [pc] *)
  ends_block : 'insn -> bool;
      (** the instruction ends a block.  Every instruction that does not
          must classify as {!Hook.Other} under the ISA's
          {!Hook.isa}[.transfer]: that is what lets [Terminal] hooks run
          only at a block's last instruction. *)
  follower : int -> 'insn -> int -> int;
      (** [follower pc insn size] for an instruction that does not end a
          block: the pc it always goes on at — a direct jump's target,
          else the fall-through *)
}
(** What the engine needs from an ISA. *)

val new_icache : dummy:'insn -> ('cpu, 'insn) compiled Memsim.Icache.table
(** An empty decoded-instruction cache; [dummy] is any instruction. *)

val run :
  ('cpu, 'insn) isa ->
  fuel:int ->
  traps:int list ->
  kernel:'cpu kernel ->
  hooks:('cpu, 'insn) Hook.t list ->
  Memsim.Memory.t ->
  ('cpu, 'insn) compiled Memsim.Icache.t option ->
  'cpu ->
  Outcome.stop_reason
(** [run isa ~fuel ~traps ~kernel ~hooks mem icache cpu] runs [cpu] over
    [mem] until a trap address is reached ([Halted]), a stop condition
    fires, or [fuel] instructions have retired, calling the [hooks] as
    {!Hook} describes: the reference loop for [icache = None], the
    icache loop otherwise. *)
