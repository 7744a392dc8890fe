module A = Machine.Asm

type item =
  | Label of string
  | I of Insn.t
  | Bl_sym of string
  | B_sym of Insn.cond * string
  | Ldr_sym of Insn.reg * string
  | Bytes of string
  | Word of int
  | Word_sym of string
  | Align of int

type program = item list

type result = A.result = { base : int; code : string; symbols : (string * int) list }

(* A pc-relative reference: one instruction word whose offset counts from
   pc, which reads 8 bytes past the instruction. *)
let rel sym insn =
  A.Ref { prefix = ""; sym; field = (fun here t -> Encode.encode_word (insn (t - (here + 8)))) }

let concrete = function
  | I i -> Some (Encode.encode i)
  | Bytes s -> Some s
  | Word v -> Some (A.le32 v)
  | _ -> None

let piece = function
  | Label name -> A.Label name
  | I i -> A.Bytes (Encode.encode i)
  | Bl_sym sym -> rel sym (fun off -> { Insn.cond = Insn.AL; op = Insn.Bl off })
  | B_sym (cond, sym) -> rel sym (fun off -> { Insn.cond; op = Insn.B off })
  | Ldr_sym (rd, sym) ->
      rel sym (fun off ->
          if abs off > 0xFFF then
            failwith
              (Printf.sprintf "Asm: literal %s out of ldr range (%d bytes)" sym off);
          { Insn.cond = Insn.AL; op = Insn.Ldr (rd, Insn.PC, off) })
  | Bytes s -> A.Bytes s
  | Word v -> A.Bytes (A.le32 v)
  | Word_sym sym -> A.Ref { prefix = ""; sym; field = (fun _ t -> t) }
  | Align n -> A.Align (n, '\x00')

let pool items = A.pool ~base_align:4 (Array.map piece items)
let text program = A.whole (pool (Array.of_list program))
let layout program = A.layout (text program)
let assemble ?extern ~base program = A.link ?extern ~base (layout program)
let symbol = A.symbol

let disassemble mem ~base ~len =
  let rec go addr acc =
    if addr + 4 > base + len then List.rev acc
    else
      let acc =
        match Decode.decode_peek mem addr with
        | insn -> (addr, insn, Insn.to_string insn) :: acc
        | exception Decode.Error _ -> acc
        | exception Memsim.Memory.Fault _ -> acc
      in
      go (addr + 4) acc
  in
  go base []
