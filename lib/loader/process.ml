module Mem = Memsim.Memory
module Word = Memsim.Word
module O = Machine.Outcome

type code = { arch : Arch.t; text : Machine.Asm.text }

let x86_code program = { arch = Arch.X86; text = Isa_x86.Asm.text program }
let arm_code program = { arch = Arch.Arm; text = Isa_arm.Asm.text program }

type spec = {
  name : string;
  code : code;
  imports : string list;
  bss_size : int;
}

(* The decoded-instruction cache of a fork family: [boot] creates it,
   [fork] shares it (page generations tell every member which entries
   hold its own bytes), [reimage] derives one that owns the rewritten
   text pages and shares every other page with the family, and every
   [call] runs through it. *)
type icache =
  | X86_icache of Isa_x86.Cpu.compiled Memsim.Icache.table
  | Arm_icache of Isa_arm.Cpu.compiled Memsim.Icache.table

type t = {
  spec : spec;
  arch : Arch.t;
  mem : Memsim.Memory.t;
  layout : Layout.t;
  profile : Defense.Profile.t;
  symbols : (string * int) list;
  world : (string * int) list;
  extern : (string * int) list;
  trap : int;
  valid_targets : unit Memsim.Int_table.t Lazy.t * unit Memsim.Int_table.t Lazy.t;
  icache : icache;
}

let new_icache = function
  | Arch.X86 -> X86_icache (Isa_x86.Cpu.new_icache ())
  | Arch.Arm -> Arm_icache (Isa_arm.Cpu.new_icache ())

(* The forward-edge CFI policy set: every symbol address — function
   entries in the main image and libc, PLT stubs, the loader specials.
   Coarse-grained label CFI, as an embedded toolchain would emit it.
   Two tables, the main image's and the rest's, so a reimaged variant
   builds only its image's and shares the rest with its template; lazy
   so processes that never run mitigated pay nothing, shared across
   forks (symbols are immutable after boot). *)
let targets_of_symbols symbols =
  lazy
    (let h = Memsim.Int_table.create (2 * List.length symbols) in
     List.iter (fun (_, a) -> Memsim.Int_table.replace h a ()) symbols;
     h)

let valid_target t addr =
  let image, world = t.valid_targets in
  Memsim.Int_table.mem (Lazy.force image) addr || Memsim.Int_table.mem (Lazy.force world) addr

let trap_addr = 0xFFFF_0000

(* The main image, laid out for [base] straight into the text region's
   pages: [size] bytes, the image then zeros, so no bytes of an earlier
   image survive in the slack.  Returns its symbols, or [None], with
   memory unchanged, when it is longer than [size]. *)
let write_main mem ~extern ~base ~size text =
  let symbols = ref [] in
  let fits buf pos =
    match Machine.Asm.write ~extern ~base text buf pos ~room:size with
    | None -> false
    | Some (len, image) ->
        Bytes.fill buf (pos + len) (size - len) '\000';
        symbols := image;
        true
  in
  if Mem.rewrite mem ~base ~size fits then Some !symbols else None

let round_up v = (v + Mem.page_size - 1) land lnot (Mem.page_size - 1)

(* Filler for the env/argv area above the initial stack pointer; gives the
   overflow a realistic amount of writable slack before the guard. *)
let env_strings = "SHELL=/bin/sh\x00PATH=/usr/sbin:/usr/bin:/sbin:/bin\x00HOME=/root\x00USER=root\x00"

let build spec ~profile ~seed =
  let arch = spec.code.arch in
  let rng = Memsim.Rng.create seed in
  let main_size = Machine.Asm.text_size spec.code.text in
  let layout =
    Layout.compute ~arch ~profile ~rng ~text_size:main_size ~bss_size:spec.bss_size
  in
  let libc =
    match arch with
    | Arch.X86 -> Libc_sim.Libc_x86.build ~base:layout.Layout.libc_base
    | Arch.Arm -> Libc_sim.Libc_arm.build ~base:layout.Layout.libc_base
  in
  let libc_syms = libc.Machine.Asm.symbols in
  let import_addrs =
    List.map
      (fun f ->
        match List.assoc_opt f libc_syms with
        | Some a -> (f, a)
        | None -> failwith (spec.name ^ ": unresolved import " ^ f))
      spec.imports
  in
  let plt =
    Plt.synthesize ~arch ~plt_base:layout.Layout.plt_base
      ~got_base:layout.Layout.got_base ~imports:import_addrs
  in
  let extern =
    plt.Plt.symbols
    @ [
        ("__bss_start", layout.Layout.bss_base); ("__canary", layout.Layout.tls_base);
      ]
  in
  (* Map the address space. *)
  let mem = Mem.create () in
  let l = layout in
  Mem.map mem ~base:l.Layout.text_base ~size:l.Layout.text_size ~perm:Mem.rx ~name:".text";
  let main_symbols =
    Option.get (write_main mem ~extern ~base:l.Layout.text_base ~size:l.Layout.text_size spec.code.text)
  in
  Mem.map mem ~base:l.Layout.plt_base ~size:l.Layout.plt_size ~perm:Mem.rx
    ~name:".plt";
  Mem.poke_bytes mem l.Layout.plt_base plt.Plt.code;
  Mem.map mem ~base:l.Layout.got_base ~size:l.Layout.got_size ~perm:Mem.rw
    ~name:".got";
  List.iter (fun (slot, addr) -> Mem.write_u32 mem slot addr) plt.Plt.got;
  Mem.map mem ~base:l.Layout.bss_base ~size:l.Layout.bss_size ~perm:Mem.rw
    ~name:".bss";
  Mem.map mem ~base:l.Layout.tls_base ~size:Mem.page_size ~perm:Mem.rw ~name:"tls";
  Mem.map mem ~base:l.Layout.heap_base ~size:l.Layout.heap_size ~perm:Mem.rw
    ~name:"heap";
  (match l.Layout.canary_value with
  | Some v -> Mem.write_u32 mem l.Layout.tls_base v
  | None -> ());
  let stack_perm = if profile.Defense.Profile.wxorx then Mem.rw else Mem.rwx in
  Mem.map mem ~base:l.Layout.stack_base ~size:l.Layout.stack_size ~perm:stack_perm
    ~name:"stack";
  Mem.map mem ~base:l.Layout.stack_top ~size:l.Layout.env_size ~perm:Mem.rw
    ~name:"env";
  Mem.write_bytes mem l.Layout.stack_top env_strings;
  Mem.map mem ~base:l.Layout.libc_base
    ~size:(round_up (String.length libc.Machine.Asm.code))
    ~perm:Mem.rx ~name:"libc";
  Mem.poke_bytes mem l.Layout.libc_base libc.Machine.Asm.code;
  let world =
    plt.Plt.symbols @ libc_syms
    @ [
        ("__bss_start", l.Layout.bss_base);
        ("__canary", l.Layout.tls_base);
        ("__trap", trap_addr);
      ]
  in
  let symbols = main_symbols @ world in
  {
    spec;
    arch;
    mem;
    layout;
    profile;
    symbols;
    world;
    extern;
    trap = trap_addr;
    valid_targets = (targets_of_symbols main_symbols, targets_of_symbols world);
    icache = new_icache arch;
  }

(* A boot is a pure function of its spec, profile and seed, and callers
   often boot the same device twice in a row (a cell's undiversified and
   diversified templates, an analysis copy and its victim).  The last
   boot is kept with a snapshot of its memory as booted, and a boot
   identical to it forks that snapshot: the same bytes, permissions,
   regions, symbols and CFI sets, the page buffers shared copy-on-write
   rather than built and held twice, and an icache of its own, as cold as
   a fresh boot's.  The program must be the same value (a template's
   stock build is); the rest is compared by value. *)
let last_boot = ref None

let boot spec ~profile ~seed =
  match !last_boot with
  | Some (t, snap, seed')
    when t.spec.code.text == spec.code.text && t.arch = spec.code.arch && seed' = seed
         && t.profile = profile && t.spec.name = spec.name && t.spec.imports = spec.imports
         && t.spec.bss_size = spec.bss_size ->
      { t with spec; mem = Mem.fork snap; icache = new_icache t.arch }
  | _ ->
      let t = build spec ~profile ~seed in
      last_boot := Some (t, Mem.snapshot t.mem, seed);
      t

let symbol t name = List.assoc name t.symbols
let symbol_opt t name = List.assoc_opt name t.symbols

(* Replace the main image in place with a re-assembled spec — the
   per-boot diversification primitive.  The text region was page-rounded
   at boot, so a variant of the same program (shuffled layout, padding,
   equivalent-instruction rewrites) usually still fits in the mapped
   slack; when it does, reimaging is one layout pass straight into the
   text pages — no libc/PLT/stack rebuild, so it composes with
   copy-on-write forks for µs-scale diversified spawning.  The variant
   links against the extern bindings boot linked the stock image against
   (PLT stubs, [__bss_start], [__canary]): the already-mapped world.
   Returns [None] when the variant does not fit (caller falls back to a
   full [boot]).  The write gives the text pages fresh generations, so
   no cache could serve the old text to the variant; its icache owns
   those pages (and any page the variant writes before running it), so
   its unique text never crowds the family's, and finds every page it
   still shares with its template — libc, the PLT — in the family's
   entries, which hold exactly the bytes the variant runs there. *)
let reimage t spec' =
  if spec'.code.arch <> t.arch then invalid_arg "Process.reimage: architecture mismatch";
  (* Every import the process booted with has its stub. *)
  if spec'.imports != t.spec.imports then
    List.iter
      (fun f ->
        if not (List.mem_assoc (f ^ "@plt") t.extern) then
          failwith ("Process.reimage: unresolved import " ^ f))
      spec'.imports;
  let text_base = t.layout.Layout.text_base in
  let text_size = t.layout.Layout.text_size in
  match write_main t.mem ~extern:t.extern ~base:text_base ~size:text_size spec'.code.text with
  | None -> None
  | Some image ->
      let derive table = Memsim.Icache.derive table ~lo:text_base ~hi:(text_base + text_size) in
      Some
        {
          t with
          spec = spec';
          symbols = image @ t.world;
          valid_targets = (targets_of_symbols image, snd t.valid_targets);
          icache =
            (match t.icache with
            | X86_icache c -> X86_icache (derive c)
            | Arm_icache c -> Arm_icache (derive c));
        }

(* Everything in [t] except [mem] and the icache is immutable after boot
   (layout, symbols, profile), so process snapshots delegate entirely to
   the memory's copy-on-write layer and a fork is just a record copy
   around a forked memory — sharing the icache. *)
let snapshot t = Mem.snapshot t.mem
let restore t snap = Mem.restore t.mem snap
let fork t snap = { t with mem = Mem.fork snap }

type run_result = {
  outcome : O.stop_reason;
  steps : int;
  ret : int;
  regs : int array;
  icache_hits : int;
  icache_misses : int;
  icache_summarised : int;
}

(* The hooks of one call, in their fixed order: the observers
   ([on_step], the profiler, the trace, the taint sanitizer), then the
   enforced mitigations — so every observer sees the instruction
   enforcement blocks, and none can skip it.  Observers first is also
   what lets the mitigations run block-at-a-time (see
   {!Machine.Hook.lowering}). *)
let hooks t isa ~taint ?on_step ?sanitizer ?trace ?profile cpu =
  let module H = Machine.Hook in
  let p = t.profile in
  let opt f = function Some x -> [ f x ] | None -> [] in
  List.concat
    [
      opt (H.observe isa) on_step;
      opt (H.profile isa) profile;
      opt (fun tr -> H.trace isa tr cpu) trace;
      opt taint sanitizer;
      (if Defense.Profile.mitigated p then
         [
           H.enforce isa ~shadow_stack:p.Defense.Profile.shadow_stack
             ~forward_cfi:p.Defense.Profile.forward_cfi
             ~valid_target:(valid_target t) ~shadow0:[ t.trap ];
         ]
       else []);
    ]

(* The family cache's counters are cumulative; a call reports its own
   hits, misses and summarised iterations as their difference around the
   run. *)
let icache_stats = function
  | None -> (0, 0, 0)
  | Some c -> Memsim.Icache.(hits c, misses c, summarised c)

let call ?(fuel = 2_000_000) ?(icache = true) ?on_step ?sanitizer ?trace
    ?profile t ~entry ~args =
  let no_exec = t.profile.Defense.Profile.seccomp in
  let sp = t.layout.Layout.stack_top - 0x100 in
  let hooks isa ~taint cpu =
    hooks t isa ~taint ?on_step ?sanitizer ?trace ?profile cpu
  in
  let result outcome ~steps ~ret ~regs table (hits0, misses0, summarised0) =
    let hits1, misses1, summarised1 = icache_stats table in
    {
      outcome;
      steps;
      ret;
      regs = Array.copy regs;
      icache_hits = hits1 - hits0;
      icache_misses = misses1 - misses0;
      icache_summarised = summarised1 - summarised0;
    }
  in
  match t.icache with
  | X86_icache table ->
      let module C = Isa_x86.Cpu in
      let table = if icache then Some table else None in
      let before = icache_stats table in
      let cpu = C.create ~icache:table t.mem in
      C.set cpu Isa_x86.Insn.ESP sp;
      List.iter (C.push cpu) (List.rev args);
      C.push cpu t.trap;
      cpu.C.eip <- entry;
      let outcome =
        C.run ~fuel ~traps:[ t.trap ] ~kernel:(Kernel.x86 ~no_exec)
          ~hooks:(hooks C.isa ~taint:C.taint cpu)
          cpu
      in
      result outcome ~steps:cpu.C.steps ~ret:(C.get cpu Isa_x86.Insn.EAX)
        ~regs:cpu.C.regs table before
  | Arm_icache table ->
      if List.length args > 4 then
        invalid_arg "Process.call: at most 4 register arguments on ARM";
      let module C = Isa_arm.Cpu in
      let table = if icache then Some table else None in
      let before = icache_stats table in
      let cpu = C.create ~icache:table t.mem in
      C.set cpu Isa_arm.Insn.SP sp;
      List.iteri (fun i a -> C.set cpu (Isa_arm.Insn.reg_of_index i) a) args;
      C.set cpu Isa_arm.Insn.LR t.trap;
      C.set_pc cpu entry;
      let outcome =
        C.run ~fuel ~traps:[ t.trap ] ~kernel:(Kernel.arm ~no_exec)
          ~hooks:(hooks C.isa ~taint:C.taint cpu)
          cpu
      in
      result outcome ~steps:cpu.C.steps ~ret:(C.get cpu Isa_arm.Insn.R0)
        ~regs:cpu.C.regs table before

let call_named ?fuel ?icache ?on_step ?sanitizer ?trace ?profile t ~entry ~args
    =
  call ?fuel ?icache ?on_step ?sanitizer ?trace ?profile t
    ~entry:(symbol t entry) ~args

let pp_summary ppf t =
  Format.fprintf ppf "%s (%a, %a)@.%a" t.spec.name Arch.pp t.arch
    Defense.Profile.pp t.profile Layout.pp t.layout
