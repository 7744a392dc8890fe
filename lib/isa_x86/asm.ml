module A = Machine.Asm

type item =
  | Label of string
  | I of Insn.t
  | Call of string
  | Jmp of string
  | Jcc of Insn.cond * string
  | Push_sym of string
  | Mov_ri_sym of Insn.reg * string
  | Bytes of string
  | Word of int
  | Word_sym of string
  | Align of int

type program = item list

type result = A.result = { base : int; code : string; symbols : (string * int) list }

(* A pc-relative reference counts from the end of the instruction; an
   absolute one is a 5-byte opcode + imm32. *)
let rel sym size insn =
  A.Ref { size; sym; emit = (fun here t -> Encode.encode (insn (Memsim.Word.sub t (here + size)))) }

let absolute sym insn = A.Ref { size = 5; sym; emit = (fun _ t -> Encode.encode (insn t)) }

let piece = function
  | Label name -> A.Label name
  | I i -> A.Bytes (Encode.encode i)
  | Call sym -> rel sym 5 (fun d -> Insn.Call_rel d)
  | Jmp sym -> rel sym 5 (fun d -> Insn.Jmp_rel d)
  | Jcc (c, sym) -> rel sym 6 (fun d -> Insn.Jcc (c, d))
  | Push_sym sym -> absolute sym (fun a -> Insn.Push_i a)
  | Mov_ri_sym (r, sym) -> absolute sym (fun a -> Insn.Mov_ri (r, a))
  | Bytes s -> A.Bytes s
  | Word v -> A.Bytes (A.le32 v)
  | Word_sym sym -> A.Ref { size = 4; sym; emit = (fun _ t -> A.le32 t) }
  | Align n -> A.Align (n, '\x90')

let layout program = A.layout (List.map piece program)
let assemble ?extern ~base program = A.link ?extern ~base (layout program)
let symbol = A.symbol

let disassemble mem ~base ~len =
  let rec go addr acc =
    if addr >= base + len then List.rev acc
    else
      match Decode.decode_peek mem addr with
      | insn, size ->
          go (addr + size) ((addr, insn, size, Insn.to_string insn) :: acc)
      | exception Decode.Error _ -> List.rev acc
      | exception Memsim.Memory.Fault _ -> List.rev acc
  in
  go base []
