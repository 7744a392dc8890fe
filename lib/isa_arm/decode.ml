open Insn
module Word = Memsim.Word

exception Error of { addr : int; word : int }

(* Every helper below is top-level and gets the word and its address as
   arguments, so a decode builds no closure and allocates only the
   instruction; the plain-register operands it shares are built once
   here.  Every rejection raises the same [Error], so the order of the
   checks is free. *)
let reg_ops = Array.init 16 (fun i -> Reg (reg_of_index i))
let bad addr w = raise (Error { addr; word = w })

(* The second operand: a rotated immediate, or the register forms plain
   (bits 11-4 zero) and lsl-by-immediate (shift type 00, bit 4 clear). *)
let op2 addr w imm =
  if imm then Imm (Word.ror (w land 0xFF) (2 * ((w lsr 8) land 0xF)))
  else begin
    let shift_bits = (w lsr 4) land 0xFF in
    if shift_bits = 0 then Array.unsafe_get reg_ops (w land 0xF)
    else if shift_bits land 0x7 = 0 then Lsl (reg_of_index (w land 0xF), shift_bits lsr 3)
    else bad addr w
  end

let dp addr w imm =
  let o = op2 addr w imm in
  let rn = (w lsr 16) land 0xF and rd = (w lsr 12) land 0xF in
  let rd_r = reg_of_index rd and rn_r = reg_of_index rn in
  match ((w lsr 21) land 0xF, (w lsr 20) land 1) with
  | 0b1101, 0 -> if rn <> 0 then bad addr w else Mov (rd_r, o)
  | 0b1111, 0 -> if rn <> 0 then bad addr w else Mvn (rd_r, o)
  | 0b0100, 0 -> Add (rd_r, rn_r, o)
  | 0b0010, 0 -> Sub (rd_r, rn_r, o)
  | 0b0011, 0 -> Rsb (rd_r, rn_r, o)
  | 0b0000, 0 -> And (rd_r, rn_r, o)
  | 0b1100, 0 -> Orr (rd_r, rn_r, o)
  | 0b0001, 0 -> Eor (rd_r, rn_r, o)
  | 0b1110, 0 -> Bic (rd_r, rn_r, o)
  | 0b1010, 1 -> if rd <> 0 then bad addr w else Cmp (rn_r, o)
  | 0b1000, 1 -> if rd <> 0 then bad addr w else Tst (rn_r, o)
  | _ -> bad addr w

(* The registers of a block transfer's list, ascending, from bit [i]
   down. *)
let rec reg_list w i acc =
  if i < 0 then acc
  else reg_list w (i - 1) (if (w lsr i) land 1 = 1 then reg_of_index i :: acc else acc)

let decode_op addr w =
  let rn = (w lsr 16) land 0xF
  and rd = (w lsr 12) land 0xF
  and rm = w land 0xF in
  match (w lsr 25) land 0x7 with
  | 0b000 ->
      (* bx / blx register forms and the multiply family live here. *)
      if w land 0x0FFF_FFF0 = 0x012F_FF10 then Bx (reg_of_index rm)
      else if w land 0x0FFF_FFF0 = 0x012F_FF30 then Blx_r (reg_of_index rm)
      else if w land 0x0FF0_00F0 = 0x0000_0090 then
        (* mul: bits 27-20 zero (S=0 subset), bits 7-4 = 1001 *)
        Mul (reg_of_index rn, reg_of_index rm, reg_of_index ((w lsr 8) land 0xF))
      else dp addr w false
  | 0b001 -> dp addr w true
  | 0b010 ->
      (* Load/store with immediate offset; subset requires P=1, W=0. *)
      if (w lsr 24) land 1 <> 1 || (w lsr 21) land 1 <> 0 then bad addr w;
      let off = w land 0xFFF in
      let off = if (w lsr 23) land 1 = 1 then off else -off in
      let rd_r = reg_of_index rd and rn_r = reg_of_index rn in
      begin
        match ((w lsr 20) land 1, (w lsr 22) land 1) with
        | 1, 0 -> Ldr (rd_r, rn_r, off)
        | 0, 0 -> Str (rd_r, rn_r, off)
        | 1, _ -> Ldrb (rd_r, rn_r, off)
        | _ -> Strb (rd_r, rn_r, off)
      end
  | 0b100 ->
      (* Only the push/pop idioms (stmdb sp! / ldmia sp!) are in the
         subset. *)
      let bits = (w lsr 20) land 0x1F in
      if rn <> 13 || w land 0xFFFF = 0 then bad addr w;
      if bits = 0b10010 then Push (reg_list w 15 [])
      else if bits = 0b01011 then Pop (reg_list w 15 [])
      else bad addr w
  | 0b011 ->
      (* Register-offset load/store; subset: P=1 U=1 W=0, no shift. *)
      if (w lsr 4) land 0xFF <> 0 then bad addr w;
      if (w lsr 24) land 1 <> 1 || (w lsr 23) land 1 <> 1 || (w lsr 21) land 1 <> 0 then
        bad addr w;
      let rd_r = reg_of_index rd
      and rn_r = reg_of_index rn
      and rm_r = reg_of_index rm in
      begin
        match ((w lsr 20) land 1, (w lsr 22) land 1) with
        | 1, 0 -> Ldr_r (rd_r, rn_r, rm_r)
        | 0, 0 -> Str_r (rd_r, rn_r, rm_r)
        | 1, _ -> Ldrb_r (rd_r, rn_r, rm_r)
        | _ -> Strb_r (rd_r, rn_r, rm_r)
      end
  | 0b101 ->
      let imm24 = w land 0xFF_FFFF in
      let d = if imm24 land 0x80_0000 <> 0 then imm24 - 0x100_0000 else imm24 in
      if (w lsr 24) land 1 = 1 then Bl (d * 4) else B (d * 4)
  | 0b111 -> if (w lsr 24) land 1 = 1 then Svc (w land 0xFF_FFFF) else bad addr w
  | _ -> bad addr w

let decode_word ~addr w =
  match cond_of_code (w lsr 28) with
  | Some cond -> { cond; op = decode_op addr w }
  | None -> bad addr w

(* A word the subset can fetch is aligned, so it never crosses a page:
   [fetch_u32] and [read_u32] read it out of its page's buffer under one
   check. *)
let decode mem addr = decode_word ~addr (Memsim.Memory.fetch_u32 mem addr)
let decode_peek mem addr = decode_word ~addr (Memsim.Memory.read_u32 mem addr)
