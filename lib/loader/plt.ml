type t = {
  code : string;
  got : (int * int) list;
  symbols : (string * int) list;
}

let synthesize ~arch ~plt_base ~got_base ~imports =
  let stubs = List.mapi (fun i (name, _) -> (name ^ "@plt", got_base + (i * 4))) imports in
  let each stub = List.concat_map (fun (label, slot) -> stub label slot) stubs in
  let image =
    match arch with
    | Arch.X86 ->
        let open Isa_x86 in
        Asm.assemble ~base:plt_base
          (each (fun label slot ->
               Asm.[ Label label; I (Insn.Jmp_rm (Insn.Mem { base = None; disp = slot })) ]))
    | Arch.Arm ->
        (* [ldr ip, [pc, #4]] reads the literal at stub+12 (pc reads stub+8). *)
        let open Isa_arm in
        let open Insn in
        Asm.assemble ~base:plt_base
          (each (fun label slot ->
               Asm.[ Label label; I (al (Ldr (R12, PC, 4))); I (al (Ldr (R12, R12, 0)));
                     I (al (Bx R12)); Word slot ]))
  in
  {
    code = image.Machine.Asm.code;
    got = List.map2 (fun (_, slot) (_, libc_addr) -> (slot, libc_addr)) stubs imports;
    symbols = List.map (fun (label, _) -> (label, Machine.Asm.symbol image label)) stubs;
  }
