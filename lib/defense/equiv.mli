(** Equivalent-instruction randomization (§IV).

    The paper's authors describe "a combination of equivalent-instruction
    randomization and other randomization techniques to randomize compiled
    programs into dynamically equivalent binaries" as work in progress at
    UNC Charlotte.  This module is that pass for the simulated ISAs: a
    seeded rewrite that replaces instructions with semantically-equivalent
    forms, changing the bytes (and, on x86, the lengths — hence every
    downstream address) without changing behaviour.

    Substitution tables (applied with probability ~1/2 per occurrence):
    - x86: [xor r, r] ↔ [mov r, 0];  [add rm, 1] ↔ [inc r];
      [sub rm, 1] ↔ [dec r];  [mov r, 0] → [xor r, r]
    - ARM: [mov rd, #0] ↔ [eor rd, rd, rd];  [mov rd, rm] ↔
      [orr rd, rm, #0] (rd ≠ pc, rm ≠ pc) *)

val x86 : seed:int -> Isa_x86.Asm.program -> Isa_x86.Asm.program * int
(** The rewritten program and the number of instructions it substituted;
    every substitution changes its instruction. *)

val arm : seed:int -> Isa_arm.Asm.program -> Isa_arm.Asm.program * int
