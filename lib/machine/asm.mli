(** The assembler core both ISAs share: lay a program out once, then link
    the layout at any base.

    {!Isa_x86.Asm} and {!Isa_arm.Asm} only map their items to {!piece}s.
    The loader lays each main image out once per boot (its size fixes the
    text region) and links it at the text base; libc, whose program never
    changes, is laid out once per ISA and linked at each boot's libc base.

    - {b Layout} places every label and piece at its offset, copies the
      concrete bytes (each instruction encoded exactly once, by its ISA)
      into an image, leaves a hole for each symbol reference, and resolves
      references to the program's own labels to offsets.  Nothing here
      depends on the base.
    - {b Link} copies the image, checks the externs against the labels,
      and fills each hole with its emitter's bytes. *)

type piece =
  | Label of string  (** define a symbol at the current offset *)
  | Bytes of string  (** concrete bytes: an encoded instruction, data *)
  | Ref of { size : int; sym : string; emit : int -> int -> string }
      (** a [size]-byte field that depends on [sym]'s address: [emit here
          target] must render exactly [size] bytes, [here] being the
          field's own address *)
  | Align of int * char
      (** pad with the fill byte to a power-of-two multiple, counted from
          the start of the program *)

type layout

val layout : ?base_align:int -> piece list -> layout
(** [base_align] (default 1) is the alignment {!link} demands of a base.
    Raises [Failure] on a duplicate label or a bad alignment. *)

val size : layout -> int
(** Bytes the program occupies at any base. *)

type result = { base : int; code : string; symbols : (string * int) list }
(** [symbols]: every label's address, sorted by name. *)

val link : ?extern:(string * int) list -> ?pad_to:int -> base:int -> layout -> result
(** A reference that names no label resolves against [extern].  With
    [pad_to], the code is the image followed by zeros up to that many
    bytes ([Invalid_argument] if the image is longer).  Raises
    [Failure] on a misaligned base, an extern that is also a label (a
    duplicate symbol), a symbol defined nowhere, or an emitter's own
    failure (an out-of-range ARM literal load). *)

val symbol : result -> string -> int
(** Raises [Not_found]. *)

val le32 : int -> string
(** The low 32 bits, little-endian. *)
