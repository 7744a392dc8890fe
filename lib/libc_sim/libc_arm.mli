(** Simulated ARMv7 libc image (AAPCS: arguments in r0–r3).

    Same symbol set as {!Libc_x86}.  The "/bin/sh" literal lives here, at a
    libc address — static when ASLR is off (§III-B2's payload uses it) and
    randomized when on (forcing §III-C2's .bss-construction detour). *)

val build : base:int -> Isa_arm.Asm.result
(** The image, laid out once, linked at [base]. *)

val exported : string list
