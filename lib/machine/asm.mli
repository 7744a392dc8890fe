(** The assembler core both ISAs share: prepare pieces once, lay a program
    out in one pass, and link the layout at any base.

    {!Isa_x86.Asm} and {!Isa_arm.Asm} only map their items to {!piece}s.

    - A {b pool} holds pieces prepared once: each instruction already
      encoded (by its ISA), each label name given an id, the names'
      sorted order fixed, and each reference's hole knowing the label it
      names, if the pool defines one.
    - A {b text} is a program: a sequence of the pool's pieces.  A stock
      program is its pool in order ({!whole}); a diversified variant is
      the pieces of its template's pool in the variant's order, pads and
      rewrites included, so making one prepares nothing.
    - {b Layout} is one pass over a text: each label placed at its
      offset, each piece's bytes copied, a hole left for each symbol
      reference.  {!layout} keeps the result for {!link} at any base
      (libc, whose program never changes, is laid out once per ISA and
      linked at each boot's libc base); {!write} links as it goes,
      straight into the caller's buffer (the loader's text page). *)

type piece =
  | Label of string  (** define a symbol at the current offset *)
  | Bytes of string  (** concrete bytes: an encoded instruction, data *)
  | Ref of { prefix : string; sym : string; field : int -> int -> int }
      (** bytes that depend on [sym]'s address: [prefix] (an opcode,
          possibly empty), then a 32-bit little-endian field holding the
          low 32 bits of [field here target], [here] being the piece's
          own address.  [field] may raise [Failure] (an out-of-range ARM
          literal load). *)
  | Align of int * char
      (** pad with the fill byte to a power-of-two multiple, counted from
          the start of the program *)

type pool

val pool : ?base_align:int -> piece array -> pool
(** [base_align] (default 1) is the alignment a base must have.  Raises
    [Failure] on a bad alignment. *)

type text

val text : pool -> int array -> text
(** The pieces at these indices of the pool, in this order.  A piece may
    appear more than once (a padding run), except a reference
    ([Invalid_argument] when the text is laid out); a label placed twice
    is a duplicate symbol. *)

val whole : pool -> text
(** Every piece of the pool, in order. *)

val text_size : text -> int
(** Bytes the program occupies at any base. *)

val write :
  ?extern:(string * int) list ->
  base:int ->
  text ->
  Bytes.t ->
  int ->
  room:int ->
  (int * (string * int) list) option
(** [write ~base text buf pos ~room] lays the text out for [base] into
    [buf] from [pos], every reference resolved, and returns its size and
    every label's address, sorted by name; [None], having written part of
    it, when the text needs more than [room] bytes ([buf] must have
    those).  A reference that names no label of the text resolves
    against [extern].  Raises [Failure] on a misaligned base, a label
    placed twice or an extern that is also a label (a duplicate symbol),
    a symbol defined nowhere, or a field's own failure; [buf] then holds
    part of the text.  The fixups run in the pool's order of its
    references. *)

type layout

val layout : text -> layout
(** The text placed once, for {!link}.  Raises [Failure] on a label
    placed twice. *)

val size : layout -> int
(** [text_size] of the text laid out. *)

type result = { base : int; code : string; symbols : (string * int) list }
(** [symbols]: every label's address, sorted by name. *)

val link : ?extern:(string * int) list -> base:int -> layout -> result
(** The layout's bytes with every reference resolved for [base]; the
    same bytes and symbols {!write} gives.  Raises as {!write} does. *)

val symbol : result -> string -> int
(** Raises [Not_found]. *)

val le32 : int -> string
(** The low 32 bits, little-endian. *)
