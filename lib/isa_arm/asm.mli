(** ARM A32 assembler with symbolic labels and literal pools over
    {!Machine.Asm}, the core both ISAs share: an instruction is encoded
    once, at layout; a branch, literal load or [Word_sym] is a 4-byte hole
    filled at link, at a 4-byte-aligned base.

    Large constants (absolute addresses) are materialised the way real ARM
    compilers do it: a pc-relative [ldr] from a nearby literal pool word
    ({!item.Ldr_sym} + {!item.Word_sym}). *)

type item =
  | Label of string
  | I of Insn.t
  | Bl_sym of string  (** [bl label] *)
  | B_sym of Insn.cond * string  (** [b<cond> label] *)
  | Ldr_sym of Insn.reg * string
      (** [ldr rd, \[pc, #off\]] where [off] reaches the given (literal)
          label; the label must be within ±4095 bytes of pc+8. *)
  | Bytes of string
  | Word of int
  | Word_sym of string
  | Align of int  (** pad with zero bytes to the given power-of-two multiple *)

type program = item list

type result = Machine.Asm.result = { base : int; code : string; symbols : (string * int) list }

val concrete : item -> string option
(** The bytes of an item that depends on no symbol and no offset (an
    instruction, raw bytes, a literal word), encoded; [None] for a
    label, a symbol reference or an alignment. *)

val pool : item array -> Machine.Asm.pool
(** The items prepared for {!Machine.Asm.text}: the pool of a program, or
    of every item a diversified variant may use. *)

val text : program -> Machine.Asm.text
(** The program in order over a pool of its own.  Raises [Failure] on a
    bad alignment. *)

val layout : program -> Machine.Asm.layout
(** For {!Machine.Asm.link}.  Raises [Failure] on a duplicate label or a
    bad alignment. *)

val assemble : ?extern:(string * int) list -> base:int -> program -> result
(** [layout] then link.  [base] must be 4-byte aligned.  Raises
    [Failure] on undefined/duplicate symbols or out-of-range pc-relative
    loads. *)

val symbol : result -> string -> int

val disassemble :
  Memsim.Memory.t -> base:int -> len:int -> (int * Insn.t * string) list
(** Linear sweep at 4-byte stride; undecodable words are skipped (rendered
    only for decodable ones). *)
