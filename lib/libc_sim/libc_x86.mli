(** Simulated x86-32 libc image.

    Laid out once, linked at any base (the loader randomizes the base under
    ASLR, exactly the property the §III-B1 ret2libc attack depends on when
    off and the §III-C1 ROP attack routes around when on).

    Exported symbols include:
    - ["memcpy"], ["__strcpy_chk"], ["strlen"], ["memset"]
    - ["system"], ["execve"], ["execlp"], ["exit"], ["abort"],
      ["__stack_chk_fail"]
    - ["str_bin_sh"] — the static "/bin/sh" string the paper's payloads
      reference, and ["str_sh"]. *)

val build : base:int -> Isa_x86.Asm.result
(** The image, laid out once, linked at [base]. *)

val exported : string list
(** Functions a main image may import through its PLT. *)
