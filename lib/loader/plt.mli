(** Procedure Linkage Table synthesis.

    PLT stubs live in the (fixed-base) main image and jump through GOT
    slots the loader fills at boot with the (possibly ASLR-randomized)
    libc addresses.  This is the §III-B2/§III-C mechanism: a call through
    ["execlp@plt"] works without knowing where libc landed.

    The stubs are written as the ISA's assembler items and assembled at
    [plt_base]:
    x86 stub: [jmp dword \[got_slot\]] (6 bytes).
    ARM stub: [ldr ip, \[pc, #4\]; ldr ip, \[ip\]; bx ip; .word got_slot]
    (16 bytes). *)

type t = {
  code : string;  (** PLT bytes, to be mapped r-x at [plt_base] *)
  got : (int * int) list;  (** (got slot address, resolved libc address) *)
  symbols : (string * int) list;
      (** ["name@plt"] → stub address, in import order *)
}

val synthesize :
  arch:Arch.t ->
  plt_base:int ->
  got_base:int ->
  imports:(string * int) list ->
  t
(** [imports] maps function names to their resolved libc addresses. *)
