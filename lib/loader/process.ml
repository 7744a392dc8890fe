module Mem = Memsim.Memory
module Word = Memsim.Word
module O = Machine.Outcome

type code =
  | X86_code of Isa_x86.Asm.program
  | Arm_code of Isa_arm.Asm.program

type spec = {
  name : string;
  code : code;
  imports : string list;
  bss_size : int;
}

(* The decoded-instruction cache of a fork family: [boot] creates it,
   [fork] shares it (page generations tell every member which entries
   hold its own bytes), [reimage] replaces it (the variant's text is
   unique to it), and every [call] runs through it. *)
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
  extern : (string * int) list;
  trap : int;
  valid_targets : (int, unit) Hashtbl.t Lazy.t;
  icache : icache;
}

let new_icache = function
  | Arch.X86 -> X86_icache (Isa_x86.Cpu.new_icache ())
  | Arch.Arm -> Arm_icache (Isa_arm.Cpu.new_icache ())

(* The forward-edge CFI policy set: every symbol address — function
   entries in the main image and libc, PLT stubs, the loader specials.
   Coarse-grained label CFI, as an embedded toolchain would emit it;
   lazy so processes that never run mitigated pay nothing, shared
   across forks (symbols are immutable after boot). *)
let targets_of_symbols symbols =
  lazy
    (let h = Hashtbl.create (2 * List.length symbols) in
     List.iter (fun (_, a) -> Hashtbl.replace h a ()) symbols;
     h)

let valid_target t addr = Hashtbl.mem (Lazy.force t.valid_targets) addr

let trap_addr = 0xFFFF_0000

let arch_of_code = function X86_code _ -> Arch.X86 | Arm_code _ -> Arch.Arm

(* Laid out once per boot: the size fixes the text region. *)
let layout_main spec =
  match spec.code with
  | X86_code program -> Isa_x86.Asm.layout program
  | Arm_code program -> Isa_arm.Asm.layout program

let round_up v = (v + Mem.page_size - 1) land lnot (Mem.page_size - 1)

(* Filler for the env/argv area above the initial stack pointer; gives the
   overflow a realistic amount of writable slack before the guard. *)
let env_strings = "SHELL=/bin/sh\x00PATH=/usr/sbin:/usr/bin:/sbin:/bin\x00HOME=/root\x00USER=root\x00"

let boot spec ~profile ~seed =
  let arch = arch_of_code spec.code in
  let rng = Memsim.Rng.create seed in
  let main = layout_main spec in
  let layout =
    Layout.compute ~arch ~profile ~rng ~text_size:(Machine.Asm.size main)
      ~bss_size:spec.bss_size
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
  let image = Machine.Asm.link ~extern ~base:layout.Layout.text_base main in
  (* Map the address space. *)
  let mem = Mem.create () in
  let l = layout in
  Mem.map mem ~base:l.Layout.text_base ~size:l.Layout.text_size ~perm:Mem.rx ~name:".text";
  Mem.poke_bytes mem l.Layout.text_base image.Machine.Asm.code;
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
  let symbols =
    image.Machine.Asm.symbols @ plt.Plt.symbols @ libc_syms
    @ [
        ("__bss_start", l.Layout.bss_base);
        ("__canary", l.Layout.tls_base);
        ("__trap", trap_addr);
      ]
  in
  {
    spec;
    arch;
    mem;
    layout;
    profile;
    symbols;
    extern;
    trap = trap_addr;
    valid_targets = targets_of_symbols symbols;
    icache = new_icache arch;
  }

let symbol t name = List.assoc name t.symbols
let symbol_opt t name = List.assoc_opt name t.symbols

(* Replace the main image in place with a re-assembled spec — the
   per-boot diversification primitive.  The text region was page-rounded
   at boot, so a variant of the same program (shuffled layout, padding,
   equivalent-instruction rewrites) usually still fits in the mapped
   slack; when it does, reimaging costs one layout, one link and one text
   write — no libc/PLT/stack rebuild, so it composes with copy-on-write
   forks for µs-scale diversified spawning.  The variant links against
   the extern bindings boot linked the stock image against (PLT stubs,
   [__bss_start], [__canary]): the already-mapped world.  Returns [None]
   when the variant does not fit (caller falls back to a full [boot]).
   The [poke_bytes] write bumps the page generations, so no cache could
   serve the old text to the variant anyway; it gets its own cache so
   its unique text never crowds the family's. *)
let reimage t spec' =
  if arch_of_code spec'.code <> t.arch then
    invalid_arg "Process.reimage: architecture mismatch";
  List.iter
    (fun f ->
      if not (List.mem_assoc (f ^ "@plt") t.extern) then
        failwith ("Process.reimage: unresolved import " ^ f))
    spec'.imports;
  let text_base = t.layout.Layout.text_base in
  let text_size = t.layout.Layout.text_size in
  let main = layout_main spec' in
  if Machine.Asm.size main > text_size then None
  else begin
    (* One write of the whole region, the image then zeros, so no gadget
       bytes from the previous image survive in the slack past the new
       code. *)
    let image = Machine.Asm.link ~extern:t.extern ~pad_to:text_size ~base:text_base main in
    Mem.poke_bytes t.mem text_base image.Machine.Asm.code;
    let outside (_, a) = a < text_base || a >= text_base + text_size in
    let symbols = image.Machine.Asm.symbols @ List.filter outside t.symbols in
    Some
      {
        t with
        spec = spec';
        symbols;
        valid_targets = targets_of_symbols symbols;
        icache = new_icache t.arch;
      }
  end

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
