(* The pre-change decoders and wire crafting, kept verbatim as test
   oracles: [Isa_x86.Decode] and [Isa_arm.Decode] read a page buffer with
   closure-free cores and [Dns.Craft] writes each wire into one buffer,
   and the properties in test_isa_x86, test_isa_arm and test_dns compare
   them with these on random inputs. *)

module X86_decode = struct
  open Isa_x86.Insn

  exception Error of { addr : int; byte : int }

  let decode_with get addr =
    let pos = ref addr in
    let u8 () =
      let v = get !pos in
      incr pos;
      v land 0xFF
    in
    let u16 () =
      let lo = u8 () in
      lo lor (u8 () lsl 8)
    in
    let u32 () =
      let b0 = u8 () in
      let b1 = u8 () in
      let b2 = u8 () in
      let b3 = u8 () in
      b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
    in
    let i8 () = Memsim.Word.to_signed (Memsim.Word.sign8 (u8 ())) in
    let i32 () = Memsim.Word.to_signed (u32 ()) in
    let bad byte = raise (Error { addr; byte }) in
    (* Returns (reg_field, r/m operand). *)
    let modrm () =
      let m = u8 () in
      let md = m lsr 6 and reg_field = (m lsr 3) land 7 and rm = m land 7 in
      let operand =
        if md = 3 then Reg (reg_of_index rm)
        else begin
          let base =
            if rm = 4 then begin
              (* SIB: only "no index, base=esp" (0x24) is in the subset. *)
              let sib = u8 () in
              if sib <> 0x24 then bad sib;
              Some ESP
            end
            else if rm = 5 && md = 0 then None
            else Some (reg_of_index rm)
          in
          let disp =
            match (md, base) with
            | 0, None -> i32 ()
            | 0, Some _ -> 0
            | 1, _ -> i8 ()
            | 2, _ -> i32 ()
            | _ -> assert false
          in
          Mem { base; disp }
        end
      in
      (reg_field, operand)
    in
    let alu_store build =
      let reg_field, rm = modrm () in
      build rm (Reg (reg_of_index reg_field))
    in
    let alu_load build =
      let reg_field, rm = modrm () in
      (* The reg,reg form canonically encodes via the store opcode; decoding a
         load-form reg,reg would break encode/decode round-tripping, so it is
         rejected (assemblers in practice emit the store form too). *)
      match rm with
      | Reg _ -> bad 0x8B
      | Mem _ -> build (Reg (reg_of_index reg_field)) rm
    in
    let opcode = u8 () in
    let insn =
      match opcode with
      | 0x90 -> Nop
      | b when b >= 0x50 && b <= 0x57 -> Push_r (reg_of_index (b - 0x50))
      | b when b >= 0x58 && b <= 0x5F -> Pop_r (reg_of_index (b - 0x58))
      | 0x68 -> Push_i (u32 ())
      | 0x6A -> Push_i8 (i8 ())
      | b when b >= 0xB8 && b <= 0xBF -> Mov_ri (reg_of_index (b - 0xB8), u32 ())
      | 0x89 -> alu_store (fun d s -> Mov (d, s))
      | 0x8B -> alu_load (fun d s -> Mov (d, s))
      | 0x88 -> alu_store (fun d s -> Mov_b (d, s))
      | 0x8A -> alu_load (fun d s -> Mov_b (d, s))
      | 0x0F -> begin
          let ext = u8 () in
          match ext with
          | 0xB6 ->
              let reg_field, rm = modrm () in
              Movzx_b (reg_of_index reg_field, rm)
          | 0xAF ->
              let reg_field, rm = modrm () in
              Imul (reg_of_index reg_field, rm)
          | e when e >= 0x80 && e <= 0x8F -> begin
              match cond_of_code (e land 0xF) with
              | Some c -> Jcc (c, i32 ())
              | None -> bad ext
            end
          | _ -> bad ext
        end
      | 0x8D -> begin
          let reg_field, rm = modrm () in
          match rm with
          | Mem m -> Lea (reg_of_index reg_field, m)
          | Reg _ -> bad opcode
        end
      | 0x01 -> alu_store (fun d s -> Add (d, s))
      | 0x03 -> alu_load (fun d s -> Add (d, s))
      | 0x29 -> alu_store (fun d s -> Sub (d, s))
      | 0x2B -> alu_load (fun d s -> Sub (d, s))
      | 0x21 -> alu_store (fun d s -> And (d, s))
      | 0x23 -> alu_load (fun d s -> And (d, s))
      | 0x09 -> alu_store (fun d s -> Or (d, s))
      | 0x0B -> alu_load (fun d s -> Or (d, s))
      | 0x31 -> alu_store (fun d s -> Xor (d, s))
      | 0x33 -> alu_load (fun d s -> Xor (d, s))
      | 0x39 -> alu_store (fun d s -> Cmp (d, s))
      | 0x3B -> alu_load (fun d s -> Cmp (d, s))
      | 0x85 -> begin
          let reg_field, rm = modrm () in
          match rm with
          | Reg a -> Test_rr (a, reg_of_index reg_field)
          | Mem _ -> bad opcode
        end
      | 0x83 | 0x81 -> begin
          let ext, rm = modrm () in
          let imm = if opcode = 0x83 then i8 () else i32 () in
          match ext with
          | 0 -> Add_i (rm, imm)
          | 5 -> Sub_i (rm, imm)
          | 7 -> Cmp_i (rm, imm)
          | _ -> bad opcode
        end
      | 0xC7 -> begin
          let ext, rm = modrm () in
          match ext with 0 -> Mov_mi (rm, u32 ()) | _ -> bad opcode
        end
      | 0xF7 -> begin
          let ext, rm = modrm () in
          match ext with
          | 2 -> Not rm
          | 3 -> Neg rm
          | _ -> bad opcode
        end
      | b when b >= 0x70 && b <= 0x7F -> begin
          match cond_of_code (b land 0xF) with
          | Some c -> Jcc_short (c, i8 ())
          | None -> bad b
        end
      | 0xEB -> Jmp_short (i8 ())
      | 0xC1 -> begin
          let ext, rm = modrm () in
          match (ext, rm) with
          | 4, Reg r -> Shl_i (r, u8 ())
          | 5, Reg r -> Shr_i (r, u8 ())
          | _ -> bad opcode
        end
      | b when b >= 0x40 && b <= 0x47 -> Inc_r (reg_of_index (b - 0x40))
      | b when b >= 0x48 && b <= 0x4F -> Dec_r (reg_of_index (b - 0x48))
      | 0xE8 -> Call_rel (i32 ())
      | 0xE9 -> Jmp_rel (i32 ())
      | 0xFF -> begin
          let ext, rm = modrm () in
          match (ext, rm) with
          | 2, _ -> Call_rm rm
          | 4, _ -> Jmp_rm rm
          | 6, Mem m -> Push_m m
          | _ -> bad opcode
        end
      | 0xC3 -> Ret
      | 0xC2 -> Ret_i (u16 ())
      | 0xC9 -> Leave
      | 0xCD -> Int (u8 ())
      | 0xF4 -> Hlt
      | b -> bad b
    in
    (insn, !pos - addr)

  let decode mem addr = decode_with (Memsim.Memory.fetch_u8 mem) addr
  let decode_peek mem addr = decode_with (Memsim.Memory.read_u8 mem) addr
end

module Arm_decode = struct
  open Isa_arm.Insn
  module Word = Memsim.Word

  exception Error of { addr : int; word : int }

  let decode_word ~addr w =
    let bad () = raise (Error { addr; word = w }) in
    let cond = match cond_of_code (w lsr 28) with Some c -> c | None -> bad () in
    let rn = (w lsr 16) land 0xF
    and rd = (w lsr 12) land 0xF
    and rm = w land 0xF in
    let mk op = { cond; op } in
    let op2_of_bits ~imm =
      if imm then
        let rot = (w lsr 8) land 0xF and imm8 = w land 0xFF in
        Imm (Word.ror imm8 (2 * rot))
      else begin
        (* Register form: plain (bits 11-4 zero) or lsl-by-immediate
           (shift type 00, bit 4 clear). *)
        let shift_bits = (w lsr 4) land 0xFF in
        if shift_bits = 0 then Reg (reg_of_index rm)
        else if shift_bits land 0x7 = 0 then Lsl (reg_of_index rm, shift_bits lsr 3)
        else bad ()
      end
    in
    let dp ~imm =
      let opcode = (w lsr 21) land 0xF and s = (w lsr 20) land 1 in
      let o = op2_of_bits ~imm in
      let rd_r = reg_of_index rd and rn_r = reg_of_index rn in
      match (opcode, s) with
      | 0b1101, 0 -> if rn <> 0 then bad () else mk (Mov (rd_r, o))
      | 0b1111, 0 -> if rn <> 0 then bad () else mk (Mvn (rd_r, o))
      | 0b0100, 0 -> mk (Add (rd_r, rn_r, o))
      | 0b0010, 0 -> mk (Sub (rd_r, rn_r, o))
      | 0b0011, 0 -> mk (Rsb (rd_r, rn_r, o))
      | 0b0000, 0 -> mk (And (rd_r, rn_r, o))
      | 0b1100, 0 -> mk (Orr (rd_r, rn_r, o))
      | 0b0001, 0 -> mk (Eor (rd_r, rn_r, o))
      | 0b1110, 0 -> mk (Bic (rd_r, rn_r, o))
      | 0b1010, 1 -> if rd <> 0 then bad () else mk (Cmp (rn_r, o))
      | 0b1000, 1 -> if rd <> 0 then bad () else mk (Tst (rn_r, o))
      | _ -> bad ()
    in
    match (w lsr 25) land 0x7 with
    | 0b000 ->
        (* bx / blx register forms and the multiply family live here. *)
        if w land 0x0FFF_FFF0 = 0x012F_FF10 then mk (Bx (reg_of_index rm))
        else if w land 0x0FFF_FFF0 = 0x012F_FF30 then mk (Blx_r (reg_of_index rm))
        else if w land 0x0FF0_00F0 = 0x0000_0090 then
          (* mul: bits 27-20 zero (S=0 subset), bits 7-4 = 1001 *)
          mk (Mul (reg_of_index rn, reg_of_index rm, reg_of_index ((w lsr 8) land 0xF)))
        else dp ~imm:false
    | 0b001 -> dp ~imm:true
    | 0b010 ->
        (* Load/store with immediate offset; subset requires P=1, W=0. *)
        let p = (w lsr 24) land 1
        and u = (w lsr 23) land 1
        and b = (w lsr 22) land 1
        and wb = (w lsr 21) land 1
        and l = (w lsr 20) land 1 in
        if p <> 1 || wb <> 0 then bad ();
        let off = w land 0xFFF in
        let off = if u = 1 then off else -off in
        let rd_r = reg_of_index rd and rn_r = reg_of_index rn in
        mk
          (match (l, b) with
          | 1, 0 -> Ldr (rd_r, rn_r, off)
          | 0, 0 -> Str (rd_r, rn_r, off)
          | 1, 1 -> Ldrb (rd_r, rn_r, off)
          | 0, 1 -> Strb (rd_r, rn_r, off)
          | _ -> assert false)
    | 0b100 ->
        (* Only the push/pop idioms (stmdb sp! / ldmia sp!) are in the
           subset. *)
        let bits = (w lsr 20) land 0x1F in
        if rn <> 13 then bad ();
        let regs =
          List.filter_map
            (fun i -> if (w lsr i) land 1 = 1 then Some (reg_of_index i) else None)
            (List.init 16 Fun.id)
        in
        if regs = [] then bad ();
        if bits = 0b10010 then mk (Push regs)
        else if bits = 0b01011 then mk (Pop regs)
        else bad ()
    | 0b011 ->
        (* Register-offset load/store; subset: P=1 U=1 W=0, no shift. *)
        if (w lsr 4) land 0xFF <> 0 then bad ();
        let p = (w lsr 24) land 1
        and u = (w lsr 23) land 1
        and b = (w lsr 22) land 1
        and wb = (w lsr 21) land 1
        and l = (w lsr 20) land 1 in
        if p <> 1 || u <> 1 || wb <> 0 then bad ();
        let rd_r = reg_of_index rd
        and rn_r = reg_of_index rn
        and rm_r = reg_of_index rm in
        mk
          (match (l, b) with
          | 1, 0 -> Ldr_r (rd_r, rn_r, rm_r)
          | 0, 0 -> Str_r (rd_r, rn_r, rm_r)
          | 1, 1 -> Ldrb_r (rd_r, rn_r, rm_r)
          | 0, 1 -> Strb_r (rd_r, rn_r, rm_r)
          | _ -> assert false)
    | 0b101 ->
        let l = (w lsr 24) land 1 in
        let imm24 = w land 0xFF_FFFF in
        let d = if imm24 land 0x80_0000 <> 0 then imm24 - 0x100_0000 else imm24 in
        let d = d * 4 in
        mk (if l = 1 then Bl d else B d)
    | 0b111 -> if (w lsr 24) land 1 = 1 then mk (Svc (w land 0xFF_FFFF)) else bad ()
    | _ -> bad ()

  let decode mem addr = decode_word ~addr (Memsim.Memory.fetch_u32 mem addr)
  let decode_peek mem addr = decode_word ~addr (Memsim.Memory.read_u32 mem addr)
end

module Craft = struct
  open Dns

  let dos_name ~size =
    let buf = Buffer.create (size + 64) in
    while Buffer.length buf <= size do
      Buffer.add_char buf '\x3F';
      Buffer.add_string buf (String.make 63 'A')
    done;
    Buffer.add_char buf '\x00';
    Buffer.contents buf

  (* The library's placeholder, so a wire crafted around
     [Dns.Craft.pointer_loop_name ()] gets its self pointer here too. *)
  let pointer_loop_placeholder = Dns.Craft.pointer_loop_name ()

  let hostile_response_into a ~query ?(ttl = 300) ?(rdata = "\x7F\x00\x00\x01")
      ~raw_name () =
    let q =
      match query.Packet.questions with
      | q :: _ -> q
      | [] -> invalid_arg "Craft.hostile_response: query has no question"
    in
    Wire.reset a;
    Wire.add_u16 a query.Packet.header.Packet.id;
    (* QR=1, opcode echoed, RD echoed, RA=1, rcode 0. *)
    let flags =
      (1 lsl 15)
      lor ((query.Packet.header.Packet.opcode land 0xF) lsl 11)
      lor ((if query.Packet.header.Packet.rd then 1 else 0) lsl 8)
      lor (1 lsl 7)
    in
    Wire.add_u16 a flags;
    Wire.add_u16 a 1 (* qdcount *);
    Wire.add_u16 a 1 (* ancount *);
    Wire.add_u16 a 0;
    Wire.add_u16 a 0;
    Wire.add_string a (Name.encode q.Packet.qname);
    Wire.add_u16 a (Packet.qtype_code q.Packet.qtype);
    Wire.add_u16 a 1;
    (* Answer record: attacker-controlled owner name. *)
    let name_off = Wire.length a in
    let raw_name =
      if raw_name == pointer_loop_placeholder then
        (* Self-referential pointer: 0xC0 | high bits of own offset. *)
        String.init 2 (fun i ->
            if i = 0 then Char.chr (0xC0 lor ((name_off lsr 8) land 0x3F))
            else Char.chr (name_off land 0xFF))
      else raw_name
    in
    Wire.add_string a raw_name;
    Wire.add_u16 a (Packet.qtype_code Packet.A);
    Wire.add_u16 a 1;
    Wire.add_u32 a ttl;
    Wire.add_u16 a (String.length rdata);
    Wire.add_string a rdata

  let hostile_response ~query ?ttl ?rdata ~raw_name () =
    let a = Wire.arena ~capacity:256 () in
    hostile_response_into a ~query ?ttl ?rdata ~raw_name ();
    Wire.contents a
end

(* Comparing a page decoder with its reference: one page of bytes at
   [base] under one permission, and the page after it (at [base + 4096]
   modulo 2^32) unmapped or under another, decoded at every offset. *)
module Pages = struct
  module Mem = Memsim.Memory

  (* What one decode did. *)
  type 'a decoded =
    | Decoded of 'a
    | Undecodable of int * int  (* the address and the offending byte or word *)
    | Faulted of Mem.fault

  let perms = [ ("r-x", Mem.rx); ("rwx", Mem.rwx); ("r--", Mem.r); ("rw-", Mem.rw); ("---", Mem.none) ]
  let bases = [ 0x0804_8000; 0xFFFF_F000 ]

  (* A case: the seed of the pages' bytes, the page's base, its
     permission and the next page's. *)
  let arb =
    let perm = QCheck.Gen.oneofl perms in
    QCheck.make
      ~print:(fun (seed, base, (first, _), next) ->
        Printf.sprintf "seed %d, page 0x%x %s, next page %s" seed base first
          (match next with None -> "unmapped" | Some (p, _) -> p))
      QCheck.Gen.(quad int (oneofl bases) perm (opt perm))

  let memory ~base ~first ~next page next_page =
    let mem = Mem.create () in
    Mem.map mem ~base ~size:Mem.page_size ~perm:first ~name:"page";
    Mem.poke_bytes mem base page;
    (match next with
    | None -> ()
    | Some perm ->
        let base = Memsim.Word.add base Mem.page_size in
        Mem.map mem ~base ~size:Mem.page_size ~perm ~name:"next";
        Mem.poke_bytes mem base next_page);
    mem

  let show show_insn = function
    | Decoded d -> show_insn d
    | Undecodable (addr, b) -> Printf.sprintf "undecodable 0x%x at 0x%x" b addr
    | Faulted f -> Mem.fault_to_string f

  (* The first offset of the page at [base] where a decoder and its
     reference disagree, with the path (fetch or peek) and both
     outcomes. *)
  let mismatch ~show_insn paths mem ~base =
    let rec at off =
      if off = Mem.page_size then None
      else
        let addr = base + off in
        match
          List.find_opt (fun (_, decode, reference) -> decode mem addr <> reference mem addr) paths
        with
        | Some (path, decode, reference) ->
            Some
              (Printf.sprintf "%s at offset 0x%x: 0x%x %s, reference %s" path off addr
                 (show show_insn (decode mem addr))
                 (show show_insn (reference mem addr)))
        | None -> at (off + 1)
    in
    at 0
end
