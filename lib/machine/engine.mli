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
    credits one hit.

    {2 Loop summaries}

    A block whose terminator falls through to its own head may be a
    counted byte copy ({!copy_loop_of}: load a byte at [src], store it at
    [dst], step both up and the count down by one, compare the count
    with zero, leave when it is zero — libc's [memcpy.loop] on both
    ISAs, in any of [Defense.Equiv]'s forms).  The ISA recognises it
    when the block is built ({!isa.copy_loop}), and the loop then runs
    [k] whole iterations as one step: [k] is at most the count, the
    remaining fuel over the block's length, and the bytes left on the
    src page and on the dst page, so no iteration in the span can fault.
    The memory gets {!Memsim.Memory.copy_forward} (forward byte by byte,
    the same generations), the CPU the registers, flags, steps and pc
    [k] iterations leave, and the icache [k] times the block's hits (the
    head's lookup counted the first) and a {!Memsim.Icache.summarised}
    count of [k].  Once the copy has succeeded, each [Observe] hook's
    {!Hook.observer.fold} runs, in hook order, with the block's pcs and
    [k]: the state [k] passes of the observer over them would leave (the
    observers are independent, so that is the same as interleaving
    them).  The block runs as usual instead — through the observers,
    member by member, when there are any — when [k] would be 0, the dst
    is on the block's own page (a store there must end the block), or
    the first byte would fault, so a fault keeps its pc, step, partial
    bytes and every observed pc.  Runs summarise when every [Observe]
    hook has a fold and no hook lowers to [Step]: an observer without a
    fold must see every pc and a [Step] hook every instruction, and a
    [Terminal] hook acts only on a transfer that is not {!Hook.Other},
    which a copy loop's conditional branch is.  There is no switch: the
    reference loop is the path that never summarises. *)

type 'cpu kernel = int -> 'cpu -> Outcome.syscall_result
(** A system-call handler: the call's vector and the CPU. *)

type 'cpu thunk = 'cpu -> 'cpu kernel -> Outcome.stop_reason option
(** An instruction compiled for its address: runs it, counting the step
    and moving the pc, and returns why it stopped the run, if it did. *)

type 'cpu copy_loop = {
  src : 'cpu -> int;  (** the next byte's source address *)
  dst : 'cpu -> int;  (** the next byte's destination address *)
  count : 'cpu -> int;  (** the iterations left before the loop exits *)
  retire : 'cpu -> int -> int -> unit;
      (** [retire cpu k last]: the registers, flags, steps and pc [k]
          iterations leave, the last of them having copied byte [last] *)
}
(** A block recognised as a counted byte copy. *)

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
  copy_loop : (int * 'insn * int) list -> 'cpu copy_loop option;
      (** the members [(pc, insn, size)] of a block whose terminator
          falls through to its head: [Some] when the block is a copy
          loop ({!copy_loop_of}) ending in a branch out when the count is
          zero.  Called once per block built. *)
}
(** What the engine needs from an ISA. *)

(** What an instruction does, for {!copy_loop_of}; registers are
    indices into the CPU's register file. *)
type effect =
  | Load_byte of { reg : int; base : int; disp : int }
      (** [reg] gets the byte at [base + disp], zero-extended; no flags *)
  | Store_byte of { reg : int; base : int; disp : int }
      (** the low byte of [reg] goes to [base + disp]; no flags *)
  | Add_imm of { reg : int; imm : int }  (** [reg += imm]; may set flags *)
  | Cmp_zero of int  (** sets every flag from [reg - 0] *)
  | Jump  (** a direct jump: only the step *)
  | Other

val copy_loop_of :
  effect list ->
  regs:('cpu -> int array) ->
  leave:('cpu -> int -> int -> unit) ->
  'cpu copy_loop option
(** [copy_loop_of body ~regs ~leave] recognises a copy loop from the
    effects of its body (every member but the terminator): one
    [Load_byte] through a [src] register into [loaded], one [Store_byte]
    of [loaded] through [dst], [Add_imm] of 1 to [src] and to [dst] and
    of -1 to [count], one [Cmp_zero count] after all three adds, and
    direct jumps, nothing else; the load before the store and before
    [src]'s add, the store before [dst]'s add, the four registers
    distinct.  Order is otherwise free, so equivalent-instruction
    rewrites match, while a step of 2, a store before the load or a load
    through [dst] do not.  [regs] is the CPU's register file; its
    [retire] moves the three registers on by [k], puts the last byte in
    [loaded], then calls [leave cpu count k] for the flags of comparing
    the new [count] with zero, the steps and the pc. *)

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
