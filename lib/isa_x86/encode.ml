open Insn

let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let u16 b v =
  u8 b v;
  u8 b (v lsr 8)

let u32 b v =
  u8 b v;
  u8 b (v lsr 8);
  u8 b (v lsr 16);
  u8 b (v lsr 24)

let fits_i8 v = v >= -128 && v <= 127

(* ModRM (+ optional SIB and displacement) for a register-field value and an
   r/m operand.  mod=00 with rm=101 means absolute disp32, so [ebp] must be
   encoded as [ebp+0] with a disp8; [esp] always needs the SIB byte 0x24. *)
let modrm b reg_field = function
  | Reg r -> u8 b (0xC0 lor (reg_field lsl 3) lor reg_index r)
  | Mem { base = None; disp } ->
      u8 b (0x00 lor (reg_field lsl 3) lor 0x5);
      u32 b disp
  | Mem { base = Some base; disp } ->
      let rm = reg_index base in
      let md =
        if disp = 0 && base <> EBP then 0x0 else if fits_i8 disp then 0x1 else 0x2
      in
      u8 b ((md lsl 6) lor (reg_field lsl 3) lor rm);
      if base = ESP then u8 b 0x24;
      if md = 0x1 then u8 b disp else if md = 0x2 then u32 b disp

(* Two-operand ALU ops share the layout: [op_store /r] when the destination
   is r/m, [op_load /r] when the destination is a register and the source is
   memory.  Register-to-register uses the store form. *)
let alu b ~op_store ~op_load dst src =
  match (dst, src) with
  | (Reg _ | Mem _), Reg r ->
      u8 b op_store;
      modrm b (reg_index r) dst
  | Reg r, Mem _ ->
      u8 b op_load;
      modrm b (reg_index r) src
  | Mem _, Mem _ -> invalid_arg "x86 encode: memory-to-memory operand pair"

let alu_imm b ~ext dst imm =
  if fits_i8 imm then begin
    u8 b 0x83;
    modrm b ext dst;
    u8 b imm
  end
  else begin
    u8 b 0x81;
    modrm b ext dst;
    u32 b imm
  end

let encode insn =
  let b = Buffer.create 8 in
  (match insn with
  | Nop -> u8 b 0x90
  | Push_r r -> u8 b (0x50 + reg_index r)
  | Push_i i ->
      u8 b 0x68;
      u32 b i
  | Push_i8 i ->
      u8 b 0x6A;
      u8 b i
  | Push_m m ->
      u8 b 0xFF;
      modrm b 6 (Mem m)
  | Pop_r r -> u8 b (0x58 + reg_index r)
  | Mov_ri (r, i) ->
      u8 b (0xB8 + reg_index r);
      u32 b i
  | Mov (dst, src) -> alu b ~op_store:0x89 ~op_load:0x8B dst src
  | Mov_mi (d, i) ->
      u8 b 0xC7;
      modrm b 0 d;
      u32 b i
  | Mov_b (dst, src) -> alu b ~op_store:0x88 ~op_load:0x8A dst src
  | Movzx_b (r, src) ->
      u8 b 0x0F;
      u8 b 0xB6;
      modrm b (reg_index r) src
  | Lea (r, m) ->
      u8 b 0x8D;
      modrm b (reg_index r) (Mem m)
  | Add (d, s) -> alu b ~op_store:0x01 ~op_load:0x03 d s
  | Add_i (d, i) -> alu_imm b ~ext:0 d i
  | Sub (d, s) -> alu b ~op_store:0x29 ~op_load:0x2B d s
  | Sub_i (d, i) -> alu_imm b ~ext:5 d i
  | And (d, s) -> alu b ~op_store:0x21 ~op_load:0x23 d s
  | Or (d, s) -> alu b ~op_store:0x09 ~op_load:0x0B d s
  | Xor (d, s) -> alu b ~op_store:0x31 ~op_load:0x33 d s
  | Cmp (d, s) -> alu b ~op_store:0x39 ~op_load:0x3B d s
  | Cmp_i (d, i) -> alu_imm b ~ext:7 d i
  | Test_rr (a, r) ->
      u8 b 0x85;
      modrm b (reg_index r) (Reg a)
  | Inc_r r -> u8 b (0x40 + reg_index r)
  | Dec_r r -> u8 b (0x48 + reg_index r)
  | Shl_i (r, i) ->
      u8 b 0xC1;
      modrm b 4 (Reg r);
      u8 b i
  | Shr_i (r, i) ->
      u8 b 0xC1;
      modrm b 5 (Reg r);
      u8 b i
  | Neg o ->
      u8 b 0xF7;
      modrm b 3 o
  | Not o ->
      u8 b 0xF7;
      modrm b 2 o
  | Imul (r, o) ->
      u8 b 0x0F;
      u8 b 0xAF;
      modrm b (reg_index r) o
  | Call_rel d ->
      u8 b 0xE8;
      u32 b d
  | Call_rm o ->
      u8 b 0xFF;
      modrm b 2 o
  | Jmp_rel d ->
      u8 b 0xE9;
      u32 b d
  | Jmp_short d ->
      u8 b 0xEB;
      u8 b d
  | Jmp_rm o ->
      u8 b 0xFF;
      modrm b 4 o
  | Jcc (c, d) ->
      u8 b 0x0F;
      u8 b (0x80 lor cond_code c);
      u32 b d
  | Jcc_short (c, d) ->
      u8 b (0x70 lor cond_code c);
      u8 b d
  | Ret -> u8 b 0xC3
  | Ret_i i ->
      u8 b 0xC2;
      u16 b i
  | Leave -> u8 b 0xC9
  | Int i ->
      u8 b 0xCD;
      u8 b i
  | Hlt -> u8 b 0xF4);
  Buffer.contents b
