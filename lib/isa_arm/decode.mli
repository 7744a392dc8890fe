(** ARM A32 instruction decoding (inverse of {!Encode} on the subset).

    As on x86, the interpreter fetch-decodes through this module and the
    gadget finder sweeps executable segments with it — ARM gadgets are the
    4-byte-aligned words that decode to useful `pop {…, pc}` / `blx rN`
    tails, mirroring what [ropper] reports on a real binary. *)

exception Error of { addr : int; word : int }

val decode_word : addr:int -> int -> Insn.t
(** Decode one 32-bit instruction word.  Raises {!Error} for words outside
    the subset (SIGILL analogue).  [addr] is only used for error reports. *)

val decode : Memsim.Memory.t -> int -> Insn.t
(** Fetch-decode (honours execute permission; raises [Memsim.Memory.Fault]
    on NX pages). *)

val decode_peek : Memsim.Memory.t -> int -> Insn.t
(** Decode for offline analysis: {!decode} under read permission instead
    of execute. *)
