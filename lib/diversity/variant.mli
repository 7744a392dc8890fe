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
    against them) but share almost no gadget addresses.  Generation is a
    list shuffle plus one assembly — cheap enough to pair with
    copy-on-write forks for µs-scale diversified device spawning
    ([Loader.Process.reimage]). *)

type plan = {
  seed : int;
  order : string list;  (** chunk names in post-shuffle layout order *)
  moved : int;  (** chunks displaced from their original position *)
  pad_bytes : int;  (** total NOP padding inserted *)
  rewrites : int;  (** {!Defense.Equiv} substitutions applied *)
}
(** What a variant's diversification did — the per-variant stats the
    survival matrix aggregates. *)

val x86 :
  seed:int ->
  (string * Isa_x86.Asm.item list) list ->
  Isa_x86.Asm.item list * plan

val arm :
  seed:int ->
  (string * Isa_arm.Asm.item list) list ->
  Isa_arm.Asm.item list * plan
(** Both passes are bit-for-bit compatible with the historical in-spec
    diversification pipeline, so committed experiment seeds keep their
    meaning. *)
