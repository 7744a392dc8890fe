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

type 'item site =
  | Inert  (** draws no coin and is never rewritten *)
  | Coin of 'item option
      (** draws one coin; on heads the item becomes the substitute, if it
          has one *)

val x86_site : Isa_x86.Asm.item -> Isa_x86.Asm.item site
(** Every instruction draws a coin, whether or not it has a substitute. *)

val arm_site : Isa_arm.Asm.item -> Isa_arm.Asm.item site
(** Every unconditional ([AL]) instruction draws a coin. *)

val x86_rng : seed:int -> Memsim.Rng.t
(** The coin stream of {!x86} at [seed]. *)

val arm_rng : seed:int -> Memsim.Rng.t

val x86 : seed:int -> Isa_x86.Asm.program -> Isa_x86.Asm.program * int
(** The rewritten program and the number of instructions it substituted;
    every substitution changes its instruction. *)

val arm : seed:int -> Isa_arm.Asm.program -> Isa_arm.Asm.program * int
