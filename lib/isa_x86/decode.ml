open Insn
module Word = Memsim.Word
module Mem = Memsim.Memory

exception Error of { addr : int; byte : int }

(* The longest encoding in the subset: opcode, ModRM, SIB, disp32 and
   imm32 ([81 /0 id], [C7 /0 id] over [esp + disp32]). *)
let max_size = 11

(* The decoder reads byte [i] of the instruction at [addr] as byte
   [off + i] of [page] while that lies in [page], and as [get (addr + i)]
   past it.  Every reader below is top-level and takes the same five
   arguments, so a decode builds no closure and allocates only the
   instruction; the operands it shares ([Reg r], [Some r]) are built once
   here. *)
let reg_ops = Array.init 8 (fun i -> Reg (reg_of_index i))
let bases = Array.init 8 (fun i -> Some (reg_of_index i))

let[@inline] u8 page off get addr i =
  let j = off + i in
  if j < Bytes.length page then Char.code (Bytes.unsafe_get page j)
  else get (addr + i) land 0xFF

(* Multi-byte fields read their bytes in ascending order, so a fault
   reports the lowest address that faults. *)
let u16 page off get addr i =
  let lo = u8 page off get addr i in
  let hi = u8 page off get addr (i + 1) in
  lo lor (hi lsl 8)

let u32 page off get addr i =
  let b0 = u8 page off get addr i in
  let b1 = u8 page off get addr (i + 1) in
  let b2 = u8 page off get addr (i + 2) in
  let b3 = u8 page off get addr (i + 3) in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let i8 page off get addr i = Word.to_signed (Word.sign8 (u8 page off get addr i))
let i32 page off get addr i = Word.to_signed (u32 page off get addr i)
let bad addr byte = raise (Error { addr; byte })

(* The ModRM byte [m] names a memory operand (mod <> 3). *)
let[@inline] is_mem m = m lsr 6 <> 3

(* Bytes the ModRM operand whose ModRM byte is [m] takes, that byte
   included: a SIB byte for rm = 4, then the displacement. *)
let modrm_size m =
  let md = m lsr 6 and rm = m land 7 in
  if md = 3 then 1
  else
    (if rm = 4 then 2 else 1)
    + match md with 0 -> if rm = 5 then 4 else 0 | 1 -> 1 | _ -> 4

(* The register operand of the reg field of [m]. *)
let[@inline] reg_op m = Array.unsafe_get reg_ops ((m lsr 3) land 7)

(* The memory operand of ModRM byte [m] (mod <> 3), whose SIB and
   displacement bytes start at byte [i].  Only the SIB byte 0x24 ("no
   index, base = esp") is in the subset. *)
let mem_of page off get addr i m =
  let md = m lsr 6 and rm = m land 7 in
  let d =
    if rm = 4 then begin
      let sib = u8 page off get addr i in
      if sib <> 0x24 then bad addr sib;
      i + 1
    end
    else i
  in
  if md = 0 && rm = 5 then { base = None; disp = i32 page off get addr d }
  else
    let disp =
      match md with 0 -> 0 | 1 -> i8 page off get addr d | _ -> i32 page off get addr d
    in
    { base = Array.unsafe_get bases rm; disp }

(* The r/m operand of ModRM byte [m], read as {!mem_of} reads it. *)
let operand page off get addr i m =
  if is_mem m then Mem (mem_of page off get addr i m)
  else Array.unsafe_get reg_ops (m land 7)

(* The two-operand ALU and move forms: [store_form] builds the r/m, reg
   direction of an opcode, [load_form] the reg, r/m one (its opcode is the
   store's plus 2). *)
let store_form opcode d s =
  match opcode with
  | 0x89 -> Mov (d, s)
  | 0x88 -> Mov_b (d, s)
  | 0x01 -> Add (d, s)
  | 0x29 -> Sub (d, s)
  | 0x21 -> And (d, s)
  | 0x09 -> Or (d, s)
  | 0x31 -> Xor (d, s)
  | _ -> Cmp (d, s)

let load_form opcode d s = store_form (opcode - 2) d s

let decode_at page off get addr =
  let opcode = u8 page off get addr 0 in
  match opcode with
  | 0x90 -> (Nop, 1)
  | b when b >= 0x50 && b <= 0x57 -> (Push_r (reg_of_index (b - 0x50)), 1)
  | b when b >= 0x58 && b <= 0x5F -> (Pop_r (reg_of_index (b - 0x58)), 1)
  | 0x68 -> (Push_i (u32 page off get addr 1), 5)
  | 0x6A -> (Push_i8 (i8 page off get addr 1), 2)
  | b when b >= 0xB8 && b <= 0xBF ->
      (Mov_ri (reg_of_index (b - 0xB8), u32 page off get addr 1), 5)
  | 0x89 | 0x88 | 0x01 | 0x29 | 0x21 | 0x09 | 0x31 | 0x39 ->
      let m = u8 page off get addr 1 in
      let d = operand page off get addr 2 m in
      (store_form opcode d (reg_op m), 1 + modrm_size m)
  | 0x8B | 0x8A | 0x03 | 0x2B | 0x23 | 0x0B | 0x33 | 0x3B ->
      let m = u8 page off get addr 1 in
      (* The reg,reg form canonically encodes via the store opcode;
         decoding a load-form reg,reg would break encode/decode
         round-tripping, so it is rejected (assemblers in practice emit
         the store form too). *)
      if not (is_mem m) then bad addr 0x8B;
      let s = Mem (mem_of page off get addr 2 m) in
      (load_form opcode (reg_op m) s, 1 + modrm_size m)
  | 0x0F -> begin
      let ext = u8 page off get addr 1 in
      match ext with
      | 0xB6 | 0xAF ->
          let m = u8 page off get addr 2 in
          let s = operand page off get addr 3 m in
          let r = reg_of_index ((m lsr 3) land 7) in
          ((if ext = 0xB6 then Movzx_b (r, s) else Imul (r, s)), 2 + modrm_size m)
      | e when e >= 0x80 && e <= 0x8F -> begin
          match cond_of_code (e land 0xF) with
          | Some c -> (Jcc (c, i32 page off get addr 2), 6)
          | None -> bad addr ext
        end
      | _ -> bad addr ext
    end
  | 0x8D ->
      let m = u8 page off get addr 1 in
      if not (is_mem m) then bad addr opcode;
      (Lea (reg_of_index ((m lsr 3) land 7), mem_of page off get addr 2 m), 1 + modrm_size m)
  | 0x85 ->
      let m = u8 page off get addr 1 in
      if is_mem m then begin
        ignore (mem_of page off get addr 2 m);
        bad addr opcode
      end;
      (Test_rr (reg_of_index (m land 7), reg_of_index ((m lsr 3) land 7)), 2)
  | 0x83 | 0x81 ->
      let m = u8 page off get addr 1 in
      let rm = operand page off get addr 2 m in
      let at = 1 + modrm_size m in
      let imm = if opcode = 0x83 then i8 page off get addr at else i32 page off get addr at in
      let insn =
        match (m lsr 3) land 7 with
        | 0 -> Add_i (rm, imm)
        | 5 -> Sub_i (rm, imm)
        | 7 -> Cmp_i (rm, imm)
        | _ -> bad addr opcode
      in
      (insn, if opcode = 0x83 then at + 1 else at + 4)
  | 0xC7 ->
      let m = u8 page off get addr 1 in
      let rm = operand page off get addr 2 m in
      if (m lsr 3) land 7 <> 0 then bad addr opcode;
      let at = 1 + modrm_size m in
      (Mov_mi (rm, u32 page off get addr at), at + 4)
  | 0xF7 ->
      let m = u8 page off get addr 1 in
      let rm = operand page off get addr 2 m in
      let insn =
        match (m lsr 3) land 7 with 2 -> Not rm | 3 -> Neg rm | _ -> bad addr opcode
      in
      (insn, 1 + modrm_size m)
  | b when b >= 0x70 && b <= 0x7F -> begin
      match cond_of_code (b land 0xF) with
      | Some c -> (Jcc_short (c, i8 page off get addr 1), 2)
      | None -> bad addr b
    end
  | 0xEB -> (Jmp_short (i8 page off get addr 1), 2)
  | 0xC1 ->
      let m = u8 page off get addr 1 in
      let ext = (m lsr 3) land 7 in
      if is_mem m || (ext <> 4 && ext <> 5) then begin
        ignore (operand page off get addr 2 m);
        bad addr opcode
      end;
      let r = reg_of_index (m land 7) and n = u8 page off get addr 2 in
      ((if ext = 4 then Shl_i (r, n) else Shr_i (r, n)), 3)
  | b when b >= 0x40 && b <= 0x47 -> (Inc_r (reg_of_index (b - 0x40)), 1)
  | b when b >= 0x48 && b <= 0x4F -> (Dec_r (reg_of_index (b - 0x48)), 1)
  | 0xE8 -> (Call_rel (i32 page off get addr 1), 5)
  | 0xE9 -> (Jmp_rel (i32 page off get addr 1), 5)
  | 0xFF ->
      let m = u8 page off get addr 1 in
      let insn =
        match (m lsr 3) land 7 with
        | 2 -> Call_rm (operand page off get addr 2 m)
        | 4 -> Jmp_rm (operand page off get addr 2 m)
        | 6 when is_mem m -> Push_m (mem_of page off get addr 2 m)
        | _ ->
            ignore (operand page off get addr 2 m);
            bad addr opcode
      in
      (insn, 1 + modrm_size m)
  | 0xC3 -> (Ret, 1)
  | 0xC2 -> (Ret_i (u16 page off get addr 1), 3)
  | 0xC9 -> (Leave, 1)
  | 0xCD -> (Int (u8 page off get addr 1), 2)
  | 0xF4 -> (Hlt, 1)
  | b -> bad addr b

(* Never called: an instruction that starts [max_size] or more bytes
   before its page's end lies in the page. *)
let in_page _ = assert false

let decode_with get addr = decode_at Bytes.empty 0 get addr

(* One page check for the whole instruction, unless it may run past the
   page's end: then its bytes there are read one at a time, each under
   its own check, so a fault names the first byte that faults. *)
let decode_in mem ~exec addr =
  let page = Mem.page_bytes mem ~exec addr in
  let off = Word.of_int addr land (Mem.page_size - 1) in
  if off <= Mem.page_size - max_size then decode_at page off in_page addr
  else decode_at page off ((if exec then Mem.fetch_u8 else Mem.read_u8) mem) addr

let decode mem addr = decode_in mem ~exec:true addr
let decode_peek mem addr = decode_in mem ~exec:false addr
