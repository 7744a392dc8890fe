(** x86-32 assembler with symbolic labels over {!Machine.Asm}, the core
    both ISAs share: an instruction is encoded once, at layout; a
    symbol-referencing item is a fixed-size rel32/imm32 hole filled at link.

    The Connman DNS-proxy program and the simulated libc are written as
    [item] lists.  External symbols (e.g. PLT entries synthesised by the
    loader) are passed in via [~extern]. *)

type item =
  | Label of string  (** define a symbol at the current position *)
  | I of Insn.t  (** a concrete instruction *)
  | Call of string  (** [call label] (rel32 resolved at link) *)
  | Jmp of string  (** [jmp label] *)
  | Jcc of Insn.cond * string  (** conditional jump to label *)
  | Push_sym of string  (** [push imm32] of a symbol's address *)
  | Mov_ri_sym of Insn.reg * string  (** [mov r, imm32] of a symbol's address *)
  | Bytes of string  (** raw bytes (data, strings) *)
  | Word of int  (** 32-bit little-endian literal *)
  | Word_sym of string  (** 32-bit literal holding a symbol's address *)
  | Align of int  (** pad with NOPs to the given power-of-two multiple *)

type program = item list

type result = Machine.Asm.result = { base : int; code : string; symbols : (string * int) list }

val layout : program -> Machine.Asm.layout
(** For {!Machine.Asm.link}.  Raises [Failure] on a duplicate label or a
    bad alignment. *)

val assemble : ?extern:(string * int) list -> base:int -> program -> result
(** [layout] then link.  Raises [Failure] on undefined or duplicate
    symbols. *)

val symbol : result -> string -> int
(** Address of a defined symbol.  Raises [Not_found]. *)

val disassemble :
  Memsim.Memory.t -> base:int -> len:int -> (int * Insn.t * int * string) list
(** Linear-sweep disassembly: [(addr, insn, length, rendering)] per
    instruction; stops at the first undecodable byte. *)
