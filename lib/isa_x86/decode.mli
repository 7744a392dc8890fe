(** IA-32 instruction decoding (inverse of {!Encode} on the subset).

    Decoding is fundamental twice over in this reproduction: the interpreter
    fetch-decodes through it (so executing attacker-written stack bytes only
    works when those bytes are valid machine code), and the gadget finder
    sweeps executable segments through it exactly as [ROPgadget] does. *)

exception Error of { addr : int; byte : int }
(** Raised on a byte sequence outside the subset (SIGILL analogue). *)

val decode_with : (int -> int) -> int -> Insn.t * int
(** [decode_with get addr] decodes one instruction whose bytes are fetched
    by [get] at absolute addresses starting from [addr].  Returns the
    instruction and its encoded length. *)

val decode : Memsim.Memory.t -> int -> Insn.t * int
(** Fetch-decode from memory, honouring execute permission (raises
    [Memsim.Memory.Fault] on NX pages — the W⊕X mechanism).  Raises what
    [decode_with (Memsim.Memory.fetch_u8 mem)] raises, but reads an
    instruction that lies in its page out of the page's buffer under one
    check, allocating only the instruction. *)

val decode_peek : Memsim.Memory.t -> int -> Insn.t * int
(** Decode for offline analysis (gadget scanning): {!decode} under read
    permission instead of execute ([Memsim.Memory.read_u8]'s check). *)
