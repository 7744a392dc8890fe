(** Boot a program into a simulated process and call its functions.

    [boot] performs what execve + ld.so do on the paper's targets: sizes
    the main image ({!Machine.Asm}; its size fixes the text region),
    lays out the address space ({!Layout}), links and maps the simulated
    libc, synthesizes PLT/GOT stubs for the program's imports, lays the
    main image out at its fixed base straight into the text pages,
    applies the protection profile
    (stack executable iff W⊕X is off; libc/stack bases randomized iff
    ASLR is on; canary cookie written iff canaries are on), and exposes a
    symbol table playing the role of the attacker's offline [gdb] /
    [ropper] analysis of their local copy of the binary. *)

type code = { arch : Arch.t; text : Machine.Asm.text }
(** A program ready for the assembler core: a stock program, or a
    diversified variant laid out from its template
    ({!Diversity.Variant.text}). *)

val x86_code : Isa_x86.Asm.program -> code
val arm_code : Isa_arm.Asm.program -> code

type spec = {
  name : string;
  code : code;
  imports : string list;  (** libc functions reached through the PLT *)
  bss_size : int;
}

type icache
(** The decoded-instruction cache of a fork family (one per ISA's
    instruction type). *)

type t = {
  spec : spec;
  arch : Arch.t;
  mem : Memsim.Memory.t;
  layout : Layout.t;
  profile : Defense.Profile.t;
  symbols : (string * int) list;
      (** main-image symbols, ["f@plt"] stubs, libc symbols, and the
          specials ["__bss_start"], ["__canary"]. *)
  world : (string * int) list;
      (** the symbols outside the main image — PLT stubs, libc, the
          specials — fixed at boot: [symbols] is the main image's
          followed by these. *)
  extern : (string * int) list;
      (** what the main image links against: the ["f@plt"] stubs,
          ["__bss_start"] and ["__canary"], fixed at boot. *)
  trap : int;  (** top-level return address; reaching it means Halted *)
  valid_targets : unit Memsim.Int_table.t Lazy.t * unit Memsim.Int_table.t Lazy.t;
      (** forward-edge CFI policy set — every symbol address (function
          entries, PLT stubs, loader specials): coarse-grained label
          CFI as an embedded toolchain would emit it.  The main image's
          addresses, then everything else's, which a {!reimage}d variant
          shares with its template.  Lazy so unmitigated processes pay
          nothing; shared across forks. *)
  icache : icache;
      (** compiled instructions, owned by the fork family: {!boot}
          creates the cache, {!fork} shares it, {!reimage} gives the
          variant one that owns its text pages and shares every other
          page with the family ({!Memsim.Icache.derive}), and every
          {!call} runs through it, so decoded text survives {!restore}
          and is compiled once for all forks of a template (page
          generations keep each member's own writes out of the others'
          hits). *)
}

val boot : spec -> profile:Defense.Profile.t -> seed:int -> t
(** [seed] drives all per-boot randomness (ASLR draws, canary cookie);
    the same seed reproduces the same address space bit-for-bit.  A boot
    identical to the previous one (the same [code.text] value, and equal name,
    imports, bss size, profile and seed) is a {!fork} of that boot's
    memory as it booted, with a fresh icache: the same process, its page
    buffers shared copy-on-write with the previous boot's. *)

val symbol : t -> string -> int
(** Raises [Not_found]. *)

val symbol_opt : t -> string -> int option

val valid_target : t -> int -> bool
(** Membership in the forward-edge CFI policy set ({!t.valid_targets}). *)

val reimage : t -> spec -> t option
(** Replace the main image in place with a re-assembled variant of the
    program — the per-boot diversification primitive.  The text region
    was page-rounded at boot, so a shuffled/padded/rewritten variant of
    the same program usually still fits in the mapped slack; the
    variant links against the process's {!t.extern} bindings, the
    already-mapped world, and main-image symbols are replaced by the
    variant's.  Returns [None], with the process unchanged, when the
    variant's text does not fit (callers fall back to a full {!boot}).
    Cheap — one sizing pass and one layout pass straight into the text
    pages (the image, then zeros), with no copy of the old text — so it
    composes with {!fork} for µs-scale diversified spawning.  The
    variant's icache owns the text pages, whose entries could serve no
    other member, and resolves every other page (libc, the PLT, the
    stack) in the family's entries, so a variant starts warm outside
    its own text.  Raises if the spec's architecture differs or an
    import has no PLT stub. *)

val snapshot : t -> Memsim.Memory.snapshot
(** Copy-on-write snapshot of the process memory (see
    {!Memsim.Memory.snapshot}).  Everything else in [t] is immutable
    after [boot] (the icache only ever changes speed), so this captures
    the whole machine state between calls: a later {!restore} followed
    by {!call} replays bit-identically (outcome, step count, register
    file). *)

val restore : t -> Memsim.Memory.snapshot -> unit

val fork : t -> Memsim.Memory.snapshot -> t
(** An independent process sharing this one's immutable boot state
    (layout, symbols, profile) and its icache, with memory forked
    copy-on-write from the snapshot.  The snapshot must come from this
    process (or a fork of it). *)

type run_result = {
  outcome : Machine.Outcome.stop_reason;
  steps : int;  (** instructions retired during the call *)
  ret : int;  (** eax / r0 at stop time *)
  regs : int array;  (** full register file at stop time (8 on x86, 16 on ARM) *)
  icache_hits : int;
      (** decoded-instruction cache hits during this call (0 if disabled) *)
  icache_misses : int;
      (** entries this call had to decode and compile: 0 when the family
          has already run every instruction the call reaches *)
  icache_summarised : int;
      (** copy-loop iterations this call ran as bulk steps (see
          {!Machine.Engine}); 0 without the icache, with [trace] or
          [sanitizer] attached, with an [on_step] observer that has no
          fold, or with a [profile] that has a sink *)
}

val call :
  ?fuel:int ->
  ?icache:bool ->
  ?on_step:Machine.Hook.observer ->
  ?sanitizer:Sanitizer.Oracle.t ->
  ?trace:Telemetry.Trace.t ->
  ?profile:Telemetry.Profile.t ->
  t ->
  entry:int ->
  args:int list ->
  run_result
(** Call a function following the architecture's convention (cdecl stack
    arguments on x86, r0–r3 on ARM; at most 4 args on ARM) on a fresh
    stack at the top of the stack region, through the process's
    decoded-instruction cache ({!t.icache}, shared with its fork
    family) unless [icache:false], which decodes every step — the
    reference path.  Execution is bit-identical either way (the
    differential tests step every exploit scenario both ways, from cold,
    restored and forked processes).

    The optional arguments and the process profile become the hooks of
    the ISA's [Cpu.run] (see {!Machine.Hook}), in a fixed order:
    [on_step] (sees every pc before its instruction executes, or with
    its fold a summarised copy loop's pcs at once; e.g.
    [Fuzz.Coverage.observer]), [profile] (per-pc counts,
    {!Machine.Hook.profile}), [trace] (["cpu"] events), [sanitizer]
    (taint propagation and exploit detections), then — when the profile
    carries the embedded mitigations ({!Defense.Profile.mitigated}) —
    enforcement (shadow return stack and forward-edge CFI against
    {!t.valid_targets}).  Observers never change a run: outcome, step
    count and register file are the same with any set of them attached.
    With the icache, [on_step], [profile] and enforcement ride cached
    blocks, and copy loops run as bulk steps unless an observer there
    has no fold; [trace] or [sanitizer] makes the run go one instruction
    per turn. *)

val call_named :
  ?fuel:int ->
  ?icache:bool ->
  ?on_step:Machine.Hook.observer ->
  ?sanitizer:Sanitizer.Oracle.t ->
  ?trace:Telemetry.Trace.t ->
  ?profile:Telemetry.Profile.t ->
  t ->
  entry:string ->
  args:int list ->
  run_result

val pp_summary : Format.formatter -> t -> unit
