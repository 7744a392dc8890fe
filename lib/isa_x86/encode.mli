(** IA-32 binary encoding of the {!Insn} subset.

    Encodings are the genuine ones (ModRM with optional SIB-for-ESP and
    displacement compression), so byte strings produced here decode with
    {!Decode} and, where applicable, with any real x86 disassembler. *)

val encode : Insn.t -> string
(** Encode one instruction.  Raises [Invalid_argument] for operand
    combinations outside the subset (e.g. memory-to-memory moves). *)

