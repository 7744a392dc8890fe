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

(* Every symbol reference is an opcode and then its imm32/rel32 field,
   so its prefix is its encoding with the field cut off.  A pc-relative
   field counts from the end of the instruction. *)
let opcode insn =
  let e = Encode.encode insn in
  String.sub e 0 (String.length e - 4)

let rel sym insn =
  let prefix = opcode (insn 0) in
  let size = String.length prefix + 4 in
  A.Ref { prefix; sym; field = (fun here t -> t - (here + size)) }

let absolute sym insn = A.Ref { prefix = opcode (insn 0); sym; field = (fun _ t -> t) }

let concrete = function
  | I i -> Some (Encode.encode i)
  | Bytes s -> Some s
  | Word v -> Some (A.le32 v)
  | _ -> None

let piece = function
  | Label name -> A.Label name
  | I i -> A.Bytes (Encode.encode i)
  | Call sym -> rel sym (fun d -> Insn.Call_rel d)
  | Jmp sym -> rel sym (fun d -> Insn.Jmp_rel d)
  | Jcc (c, sym) -> rel sym (fun d -> Insn.Jcc (c, d))
  | Push_sym sym -> absolute sym (fun a -> Insn.Push_i a)
  | Mov_ri_sym (r, sym) -> absolute sym (fun a -> Insn.Mov_ri (r, a))
  | Bytes s -> A.Bytes s
  | Word v -> A.Bytes (A.le32 v)
  | Word_sym sym -> A.Ref { prefix = ""; sym; field = (fun _ t -> t) }
  | Align n -> A.Align (n, '\x90')

let pool items = A.pool (Array.map piece items)
let text program = A.whole (pool (Array.of_list program))
let layout program = A.layout (text program)
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
