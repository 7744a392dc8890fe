(** Seeded per-boot diversification over named assembly chunks — the
    variant generator of the diversity engine (DAEDALUS-style artificial
    software diversity, the "work in progress" the paper's §IV points
    at).

    Input is a program cut into named chunks (one per function plus
    rodata), each carrying its own labels and, on ARM, its own literal
    pools — so reordering chunks is always relocation-safe: the
    assembler's label/fixup machinery re-resolves every reference at the
    new addresses.  The pass composes three layers, all drawn from one
    seed:

    - {b layout shuffling} — Fisher–Yates over the chunk order, moving
      every function (and with it every gadget) to a new address;
    - {b padding insertion} — a random NOP sled (0–63 bytes on x86,
      0–15 words on ARM, [Align 4]-safe) before each chunk, sliding
      addresses even within an unmoved prefix;
    - {b gadget-breaking rewrites} — {!Defense.Equiv} equivalent-
      instruction randomization over the shuffled+padded list, changing
      instruction bytes (and on x86, lengths) in place.

    The same seed reproduces the same variant bit-for-bit; distinct
    seeds give variants that are behaviorally equivalent (the
    differential suite replays every exploit cell, DoS, and benign parse
    against them) but share almost no gadget addresses.

    What does not depend on the seed is done once, in a {!template}:
    every instruction is encoded there, each run of instructions Equiv
    cannot change becomes one item of bytes, each instruction it can
    change carries both encodings, and every such item (and every
    padding run) is a piece of one assembler pool ({!Machine.Asm.pool}:
    label ids, their sorted names and the reference sites, prepared
    once).  A variant is then a shuffle, one padding draw per chunk and
    one coin per substitutable instruction over the template — no
    instruction is encoded per variant — and its program is the
    sequence of pool pieces those draws pick ({!text}), which the loader
    lays out in one pass straight into the text page: cheap enough to
    pair with copy-on-write forks for µs-scale diversified device
    spawning ([Loader.Process.reimage]).  {!generate}, the same draws
    as an item list, is the reference path the tests hold {!text}
    to. *)

type plan = {
  seed : int;
  order : string list;  (** chunk names in post-shuffle layout order *)
  moved : int;  (** chunks displaced from their original position *)
  pad_bytes : int;  (** total NOP padding inserted *)
  rewrites : int;  (** {!Defense.Equiv} substitutions applied *)
}
(** What a variant's diversification did — the per-variant stats the
    survival matrix aggregates. *)

type 'item template
(** A chunked program prepared for {!generate}. *)

val x86_template : (string * Isa_x86.Asm.item list) list -> Isa_x86.Asm.item template
val arm_template : (string * Isa_arm.Asm.item list) list -> Isa_arm.Asm.item template

val text : seed:int -> 'item template -> Machine.Asm.text * plan
(** The variant [seed] selects, as a program over the template's pool,
    and what it did: the same draws as {!generate}, whose item list
    assembles to the same bytes and symbols. *)

val stock : 'item template -> Machine.Asm.text
(** The program the template was prepared from, unshuffled, unpadded and
    unrewritten, over the same pool: the stock build, which assembles
    to the same bytes and symbols as the chunks' items in order. *)

val plan : seed:int -> 'item template -> plan
(** [snd (generate ~seed t)], from the same draws, building no
    program. *)

val generate : seed:int -> 'item template -> 'item list * plan
(** The variant [seed] selects and what it did.  Bit-for-bit the
    historical in-spec pipeline — shuffle, then padding, then
    {!Defense.Equiv.x86} / {!Defense.Equiv.arm} over the padded chunk
    list, with the same draws — so committed experiment seeds keep their
    meaning; its program assembles to the same bytes and symbols. *)
