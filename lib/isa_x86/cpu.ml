open Insn
module Mem = Memsim.Memory
module Word = Memsim.Word
module Outcome = Machine.Outcome
module Hook = Machine.Hook
module Engine = Machine.Engine

type t = {
  mem : Mem.t;
  regs : int array;
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable o_f : bool;
  mutable steps : int;
  icache : compiled Memsim.Icache.t option;
}

and kernel = int -> t -> Outcome.syscall_result
and compiled = (t, Insn.t) Engine.compiled

let new_icache () = Engine.new_icache ~dummy:Insn.Nop

let create ~icache mem =
  {
    mem;
    regs = Array.make 8 0;
    eip = 0;
    zf = false;
    sf = false;
    cf = false;
    o_f = false;
    steps = 0;
    icache = Option.map (fun table -> Memsim.Icache.view table mem) icache;
  }

(* [reg_index] is total over the eight registers, so the bounds checks
   would never fire — and [get]/[set] run several times per interpreted
   instruction. *)
let get t r = Array.unsafe_get t.regs (reg_index r)
let set t r v = Array.unsafe_set t.regs (reg_index r) (Word.of_int v)

let push t v =
  let esp = Word.sub (get t ESP) 4 in
  set t ESP esp;
  Mem.write_u32 t.mem esp v

let pop t =
  let esp = get t ESP in
  let v = Mem.read_u32 t.mem esp in
  set t ESP (Word.add esp 4);
  v

let ea t { base; disp } =
  match base with
  | None -> Word.of_int disp
  | Some r -> Word.add (get t r) disp

let read_op t = function Reg r -> get t r | Mem m -> Mem.read_u32 t.mem (ea t m)

let write_op t op v =
  match op with Reg r -> set t r v | Mem m -> Mem.write_u32 t.mem (ea t m) v

let read_op8 t = function
  | Reg r -> get t r land 0xFF
  | Mem m -> Mem.read_u8 t.mem (ea t m)

let write_op8 t op v =
  match op with
  | Reg r -> set t r (get t r land 0xFFFF_FF00 lor (v land 0xFF))
  | Mem m -> Mem.write_u8 t.mem (ea t m) (v land 0xFF)

(* Flag helpers.  Only ZF/SF/CF/OF are modelled; that is all the subset's
   conditional branches consult. *)

let set_logic_flags t res =
  t.zf <- res = 0;
  t.sf <- Word.bit res 31;
  t.cf <- false;
  t.o_f <- false

let set_add_flags t a b res =
  t.zf <- res = 0;
  t.sf <- Word.bit res 31;
  t.cf <- a + b > Word.mask;
  t.o_f <- Word.bit a 31 = Word.bit b 31 && Word.bit res 31 <> Word.bit a 31

let set_sub_flags t a b res =
  t.zf <- res = 0;
  t.sf <- Word.bit res 31;
  t.cf <- a < b;
  t.o_f <- Word.bit a 31 <> Word.bit b 31 && Word.bit res 31 <> Word.bit a 31

(* SHL/SHR by the masked count [n] of the operand [a].  A zero count
   changes neither the register nor any flag.  Otherwise CF holds the
   last bit shifted out, and OF follows the 1-bit rule (SHL: the result's
   sign differs from CF; SHR: the operand's sign).  Hardware defines OF
   only for 1-bit shifts; like common emulators, the model applies the
   1-bit rule to every count. *)
let shl t d a n =
  if n <> 0 then begin
    let res = Word.of_int (a lsl n) in
    Array.unsafe_set t.regs d res;
    t.zf <- res = 0;
    t.sf <- Word.bit res 31;
    t.cf <- Word.bit a (32 - n);
    t.o_f <- Word.bit res 31 <> t.cf
  end

let shr t d a n =
  if n <> 0 then begin
    let res = a lsr n in
    Array.unsafe_set t.regs d res;
    t.zf <- res = 0;
    t.sf <- Word.bit res 31;
    t.cf <- Word.bit a (n - 1);
    t.o_f <- Word.bit a 31
  end

(* NEG: CF is set unless the operand was 0, OF when it was the one value
   whose negation overflows. *)
let set_neg_flags t a v =
  t.zf <- v = 0;
  t.sf <- Word.bit v 31;
  t.cf <- v <> 0;
  t.o_f <- a = 0x8000_0000

let cond_holds t = function
  | E -> t.zf
  | NE -> not t.zf
  | B -> t.cf
  | AE -> not t.cf
  | BE -> t.cf || t.zf
  | A -> (not t.cf) && not t.zf
  | L -> t.sf <> t.o_f
  | GE -> t.sf = t.o_f
  | LE -> t.zf || t.sf <> t.o_f
  | G -> (not t.zf) && t.sf = t.o_f
  | S -> t.sf
  | NS -> not t.sf

let do_call t target ret_addr =
  push t ret_addr;
  t.eip <- target

(* Top-level (not a per-step closure): the ALU read-modify-write shape
   shared by ADD/SUB/AND/OR/XOR. *)
let binop t setf op d s =
  let a = read_op t d and b = read_op t s in
  let res = op a b in
  write_op t d res;
  setf t a b res;
  None

let exec t ~kernel next insn =
      t.eip <- next;
      t.steps <- t.steps + 1;
      (
      try
        match insn with
        | Nop -> None
        | Push_r r ->
            push t (get t r);
            None
        | Push_i i ->
            push t (Word.of_int i);
            None
        | Push_i8 i ->
            push t (Word.sign8 (i land 0xFF));
            None
        | Push_m m ->
            push t (Mem.read_u32 t.mem (ea t m));
            None
        | Pop_r r ->
            set t r (pop t);
            None
        | Mov_ri (r, i) ->
            set t r i;
            None
        | Mov (d, s) ->
            write_op t d (read_op t s);
            None
        | Mov_mi (d, i) ->
            write_op t d (Word.of_int i);
            None
        | Mov_b (d, s) ->
            write_op8 t d (read_op8 t s);
            None
        | Movzx_b (r, s) ->
            set t r (read_op8 t s);
            None
        | Lea (r, m) ->
            set t r (ea t m);
            None
        | Add (d, s) -> binop t set_add_flags Word.add d s
        | Add_i (d, i) ->
            let a = read_op t d and b = Word.of_int i in
            let res = Word.add a b in
            write_op t d res;
            set_add_flags t a b res;
            None
        | Sub (d, s) -> binop t set_sub_flags Word.sub d s
        | Sub_i (d, i) ->
            let a = read_op t d and b = Word.of_int i in
            let res = Word.sub a b in
            write_op t d res;
            set_sub_flags t a b res;
            None
        | And (d, s) -> binop t (fun t _ _ r -> set_logic_flags t r) ( land ) d s
        | Or (d, s) -> binop t (fun t _ _ r -> set_logic_flags t r) ( lor ) d s
        | Xor (d, s) -> binop t (fun t _ _ r -> set_logic_flags t r) ( lxor ) d s
        | Cmp (d, s) ->
            let a = read_op t d and b = read_op t s in
            set_sub_flags t a b (Word.sub a b);
            None
        | Cmp_i (d, i) ->
            let a = read_op t d and b = Word.of_int i in
            set_sub_flags t a b (Word.sub a b);
            None
        | Test_rr (a, b) ->
            set_logic_flags t (get t a land get t b);
            None
        (* INC/DEC preserve CF but do update OF (overflow at the signed
           extreme), unlike ADD/SUB which set both.  A stale OF here flips
           every signed Jcc (L/GE/LE/G) that follows an inc/dec. *)
        | Inc_r r ->
            let a = get t r in
            let res = Word.add a 1 in
            set t r res;
            t.zf <- res = 0;
            t.sf <- Word.bit res 31;
            t.o_f <- a = 0x7FFF_FFFF;
            None
        | Dec_r r ->
            let a = get t r in
            let res = Word.sub a 1 in
            set t r res;
            t.zf <- res = 0;
            t.sf <- Word.bit res 31;
            t.o_f <- a = 0x8000_0000;
            None
        | Shl_i (r, i) ->
            shl t (reg_index r) (get t r) (i land 31);
            None
        | Shr_i (r, i) ->
            shr t (reg_index r) (get t r) (i land 31);
            None
        | Neg o ->
            let a = read_op t o in
            let v = Word.neg a in
            write_op t o v;
            set_neg_flags t a v;
            None
        | Not o ->
            write_op t o (Word.lognot (read_op t o));
            None
        | Imul (r, o) ->
            let v = Word.mul (get t r) (read_op t o) in
            set t r v;
            None
        | Call_rel d ->
            do_call t (Word.add next d) next;
            None
        | Call_rm o ->
            do_call t (read_op t o) next;
            None
        | Jmp_rel d | Jmp_short d ->
            t.eip <- Word.add next d;
            None
        | Jmp_rm o ->
            t.eip <- read_op t o;
            None
        | Jcc (c, d) | Jcc_short (c, d) ->
            if cond_holds t c then t.eip <- Word.add next d;
            None
        | Ret ->
            t.eip <- pop t;
            None
        | Ret_i n ->
            t.eip <- pop t;
            set t ESP (Word.add (get t ESP) n);
            None
        | Leave -> (
            set t ESP (get t EBP);
            set t EBP (pop t);
            None)
        | Int n -> (
            match kernel n t with
            | Outcome.Resume -> None
            | Outcome.Stop reason -> Some reason)
        | Hlt -> Some Outcome.Halted
      with Mem.Fault f -> Some (Outcome.Fault f))

(* For the thunks: [b] is a memory operand's base register index, or -1
   for an absolute address. *)
let base_index = function None -> -1 | Some r -> reg_index r
let ea_at t b disp = if b < 0 then Word.of_int disp else Word.add (Array.unsafe_get t.regs b) disp

(* [push] of a value: esp moves before the store, so a faulting store
   leaves it moved, as [exec]'s [push] does. *)
let push_word t v =
  let esp = reg_index ESP in
  let sp = Word.sub (Array.unsafe_get t.regs esp) 4 in
  Array.unsafe_set t.regs esp sp;
  match Mem.write_u32 t.mem sp v with
  | () -> None
  | exception Mem.Fault f -> Some (Outcome.Fault f)

(* Specialize one decoded instruction into an execution thunk for its
   (fixed) address: the successor eip and relative branch targets become
   captured constants, register operands become pre-resolved array
   indices, and register-only forms skip the fault handler (they cannot
   fault).  Anything outside the hot set falls back to the generic
   [exec] — behavior is bit-identical either way, which the differential
   tests assert instruction-by-instruction over every exploit scenario.
   The register-base memory forms the parse paths run most (mov and movzx
   loads, mov and byte stores, push, pop, call, ret), the PLT's [jmp *m],
   [push m], [push imm] and [leave] get thunks of their own; like
   [exec], they advance eip and count the step before the access, so a
   fault leaves the same state.  Compilation cost is paid once per (page
   generation, address), i.e. on the same events as decoding itself. *)
let compile start size insn =
  let next = Word.add start size in
  let pre t =
    t.eip <- next;
    t.steps <- t.steps + 1
  in
  (* ALU read-modify-write over two registers / register + immediate. *)
  let alu2 setf f d s =
    let d = reg_index d and s = reg_index s in
    fun t _ ->
      pre t;
      let a = Array.unsafe_get t.regs d and b = Array.unsafe_get t.regs s in
      let res = Word.of_int (f a b) in
      Array.unsafe_set t.regs d res;
      setf t a b res;
      None
  in
  let alu2i setf f d i =
    let d = reg_index d and b = Word.of_int i in
    fun t _ ->
      pre t;
      let a = Array.unsafe_get t.regs d in
      let res = Word.of_int (f a b) in
      Array.unsafe_set t.regs d res;
      setf t a b res;
      None
  in
  let logic t _ _ r = set_logic_flags t r in
  let esp = reg_index ESP in
  match insn with
  | Nop ->
      fun t _ ->
        pre t;
        None
  | Mov_ri (r, i) ->
      let d = reg_index r and v = Word.of_int i in
      fun t _ ->
        pre t;
        Array.unsafe_set t.regs d v;
        None
  | Mov (Reg d, Reg s) ->
      let d = reg_index d and s = reg_index s in
      fun t _ ->
        pre t;
        Array.unsafe_set t.regs d (Array.unsafe_get t.regs s);
        None
  | Lea (r, { base = Some b; disp }) ->
      let d = reg_index r and b = reg_index b in
      fun t _ ->
        pre t;
        Array.unsafe_set t.regs d (Word.add (Array.unsafe_get t.regs b) disp);
        None
  | Lea (r, { base = None; disp }) ->
      let d = reg_index r and v = Word.of_int disp in
      fun t _ ->
        pre t;
        Array.unsafe_set t.regs d v;
        None
  | Add (Reg d, Reg s) -> alu2 set_add_flags Word.add d s
  | Add_i (Reg d, i) -> alu2i set_add_flags Word.add d i
  | Sub (Reg d, Reg s) -> alu2 set_sub_flags Word.sub d s
  | Sub_i (Reg d, i) -> alu2i set_sub_flags Word.sub d i
  | And (Reg d, Reg s) -> alu2 logic ( land ) d s
  | Or (Reg d, Reg s) -> alu2 logic ( lor ) d s
  | Xor (Reg d, Reg s) -> alu2 logic ( lxor ) d s
  | Cmp (Reg d, Reg s) ->
      let d = reg_index d and s = reg_index s in
      fun t _ ->
        pre t;
        let a = Array.unsafe_get t.regs d and b = Array.unsafe_get t.regs s in
        set_sub_flags t a b (Word.sub a b);
        None
  | Cmp_i (Reg d, i) ->
      let d = reg_index d and b = Word.of_int i in
      fun t _ ->
        pre t;
        let a = Array.unsafe_get t.regs d in
        set_sub_flags t a b (Word.sub a b);
        None
  | Test_rr (a, b) ->
      let a = reg_index a and b = reg_index b in
      fun t _ ->
        pre t;
        set_logic_flags t (Array.unsafe_get t.regs a land Array.unsafe_get t.regs b);
        None
  | Inc_r r ->
      let d = reg_index r in
      fun t _ ->
        pre t;
        let a = Array.unsafe_get t.regs d in
        let res = Word.add a 1 in
        Array.unsafe_set t.regs d res;
        t.zf <- res = 0;
        t.sf <- Word.bit res 31;
        t.o_f <- a = 0x7FFF_FFFF;
        None
  | Dec_r r ->
      let d = reg_index r in
      fun t _ ->
        pre t;
        let a = Array.unsafe_get t.regs d in
        let res = Word.sub a 1 in
        Array.unsafe_set t.regs d res;
        t.zf <- res = 0;
        t.sf <- Word.bit res 31;
        t.o_f <- a = 0x8000_0000;
        None
  | Shl_i (r, i) ->
      let d = reg_index r and n = i land 31 in
      fun t _ ->
        pre t;
        shl t d (Array.unsafe_get t.regs d) n;
        None
  | Shr_i (r, i) ->
      let d = reg_index r and n = i land 31 in
      fun t _ ->
        pre t;
        shr t d (Array.unsafe_get t.regs d) n;
        None
  | Not (Reg r) ->
      let d = reg_index r in
      fun t _ ->
        pre t;
        Array.unsafe_set t.regs d (Word.lognot (Array.unsafe_get t.regs d));
        None
  | Neg (Reg r) ->
      let d = reg_index r in
      fun t _ ->
        pre t;
        let a = Array.unsafe_get t.regs d in
        let v = Word.neg a in
        Array.unsafe_set t.regs d v;
        set_neg_flags t a v;
        None
  | Imul (r, Reg s) ->
      let d = reg_index r and s = reg_index s in
      fun t _ ->
        pre t;
        Array.unsafe_set t.regs d
          (Word.mul (Array.unsafe_get t.regs d) (Array.unsafe_get t.regs s));
        None
  | Mov (Reg d, Mem { base = Some b; disp }) ->
      let d = reg_index d and b = reg_index b in
      fun t _ -> (
        pre t;
        match Mem.read_u32 t.mem (Word.add (Array.unsafe_get t.regs b) disp) with
        | v ->
            Array.unsafe_set t.regs d v;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Mov (Mem { base = Some b; disp }, Reg s) ->
      let b = reg_index b and s = reg_index s in
      fun t _ -> (
        pre t;
        match
          Mem.write_u32 t.mem
            (Word.add (Array.unsafe_get t.regs b) disp)
            (Array.unsafe_get t.regs s)
        with
        | () -> None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Mov_b (Mem { base = Some b; disp }, Reg s) ->
      let b = reg_index b and s = reg_index s in
      fun t _ -> (
        pre t;
        match
          Mem.write_u8 t.mem
            (Word.add (Array.unsafe_get t.regs b) disp)
            (Array.unsafe_get t.regs s land 0xFF)
        with
        | () -> None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Movzx_b (d, Mem { base = Some b; disp }) ->
      let d = reg_index d and b = reg_index b in
      fun t _ -> (
        pre t;
        match Mem.read_u8 t.mem (Word.add (Array.unsafe_get t.regs b) disp) with
        | v ->
            Array.unsafe_set t.regs d v;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Push_r r ->
      let s = reg_index r in
      fun t _ ->
        pre t;
        push_word t (Array.unsafe_get t.regs s)
  | Pop_r r ->
      let d = reg_index r in
      fun t _ -> (
        pre t;
        let sp = Array.unsafe_get t.regs esp in
        match Mem.read_u32 t.mem sp with
        | v ->
            Array.unsafe_set t.regs esp (Word.add sp 4);
            Array.unsafe_set t.regs d v;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Call_rel d ->
      let target = Word.add next d in
      fun t _ -> (
        pre t;
        let sp = Word.sub (Array.unsafe_get t.regs esp) 4 in
        Array.unsafe_set t.regs esp sp;
        match Mem.write_u32 t.mem sp next with
        | () ->
            t.eip <- target;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Ret ->
      fun t _ -> (
        pre t;
        let sp = Array.unsafe_get t.regs esp in
        match Mem.read_u32 t.mem sp with
        | v ->
            Array.unsafe_set t.regs esp (Word.add sp 4);
            t.eip <- v;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Jmp_rel d | Jmp_short d ->
      let target = Word.add next d in
      fun t _ ->
        t.steps <- t.steps + 1;
        t.eip <- target;
        None
  | Jcc (c, d) | Jcc_short (c, d) ->
      let target = Word.add next d in
      fun t _ ->
        pre t;
        if cond_holds t c then t.eip <- target;
        None
  | Int n ->
      fun t kernel -> (
        pre t;
        try
          match kernel n t with
          | Outcome.Resume -> None
          | Outcome.Stop reason -> Some reason
        with Mem.Fault f -> Some (Outcome.Fault f))
  | Hlt ->
      fun t _ ->
        pre t;
        Some Outcome.Halted
  | Push_i i ->
      let v = Word.of_int i in
      fun t _ ->
        pre t;
        push_word t v
  | Push_i8 i ->
      let v = Word.sign8 (i land 0xFF) in
      fun t _ ->
        pre t;
        push_word t v
  | Push_m { base; disp } ->
      let b = base_index base in
      fun t _ -> (
        pre t;
        match Mem.read_u32 t.mem (ea_at t b disp) with
        | v -> push_word t v
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Jmp_rm (Reg r) ->
      let r = reg_index r in
      fun t _ ->
        pre t;
        t.eip <- Array.unsafe_get t.regs r;
        None
  | Jmp_rm (Mem { base; disp }) ->
      let b = base_index base in
      fun t _ -> (
        pre t;
        match Mem.read_u32 t.mem (ea_at t b disp) with
        | v ->
            t.eip <- v;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Leave ->
      let ebp = reg_index EBP in
      fun t _ -> (
        pre t;
        let sp = Array.unsafe_get t.regs ebp in
        Array.unsafe_set t.regs esp sp;
        match Mem.read_u32 t.mem sp with
        | v ->
            Array.unsafe_set t.regs esp (Word.add sp 4);
            Array.unsafe_set t.regs ebp v;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  | insn -> fun t kernel -> exec t ~kernel next insn

(* Instructions that end a block: every control transfer but a direct
   [jmp], and the instructions that stop or leave the interpreter.  A
   direct [jmp] has a constant target and classifies as no transfer, so a
   block runs on through it (a loop's back edge joins its body to its
   test). *)
let ends_block = function
  | Call_rel _ | Call_rm _ | Jmp_rm _ | Jcc _ | Jcc_short _ | Ret | Ret_i _
  | Int _ | Hlt ->
      true
  | _ -> false

(* What each member of a copy loop does (see {!Engine.copy_loop_of}). *)
let effect = function
  | Movzx_b (r, Mem { base = Some b; disp }) ->
      Engine.Load_byte { reg = reg_index r; base = reg_index b; disp }
  | Mov_b (Mem { base = Some b; disp }, Reg r) ->
      Engine.Store_byte { reg = reg_index r; base = reg_index b; disp }
  | Inc_r r -> Engine.Add_imm { reg = reg_index r; imm = 1 }
  | Dec_r r -> Engine.Add_imm { reg = reg_index r; imm = -1 }
  | Add_i (Reg r, i) ->
      Engine.Add_imm { reg = reg_index r; imm = Word.to_signed (Word.of_int i) }
  | Sub_i (Reg r, i) ->
      Engine.Add_imm { reg = reg_index r; imm = -Word.to_signed (Word.of_int i) }
  | Cmp_i (Reg r, i) when Word.of_int i = 0 -> Engine.Cmp_zero (reg_index r)
  | Jmp_rel _ | Jmp_short _ -> Engine.Jump
  | _ -> Engine.Other

(* A copy loop ends in [je] out; [k] iterations leave the last [cmp]'s
   flags. *)
let copy_loop members =
  match List.rev members with
  | (pc, (Jcc (E, d) | Jcc_short (E, d)), size) :: rev_body -> (
      let body = List.rev_map (fun (_, insn, _) -> effect insn) rev_body in
      let head, _, _ = List.hd members and n = List.length members in
      let exit = Word.add (Word.add pc size) d in
      Engine.copy_loop_of body
        ~regs:(fun t -> t.regs)
        ~leave:(fun t c k ->
          set_sub_flags t c 0 c;
          t.steps <- t.steps + (n * k);
          t.eip <- (if c = 0 then exit else head)))
  | _ -> None

let engine =
  {
    Engine.pc = (fun t -> t.eip);
    fetch =
      (fun mem addr ->
        try Decode.decode mem addr
        with Decode.Error { addr; byte } -> raise (Engine.Undecodable { addr; byte }));
    exec = (fun t kernel pc insn size -> exec t ~kernel (Word.add pc size) insn);
    compile;
    ends_block;
    follower =
      (fun pc insn size ->
        match insn with
        | Jmp_rel d | Jmp_short d -> Word.add (Word.add pc size) d
        | _ -> Word.add pc size);
    copy_loop;
  }

let run ?(fuel = 2_000_000) ~traps ~kernel ~hooks t =
  Engine.run engine ~fuel ~traps ~kernel ~hooks t.mem t.icache t

(* Guest reads made while planning a hook's verdict: a fault here is the
   instruction's own to raise when it executes, so it reads as 0. *)
let try_read32 t a =
  match Mem.read_u32 t.mem a with v -> v | exception Mem.Fault _ -> 0

let try_read_op t o = match read_op t o with v -> v | exception Mem.Fault _ -> 0

let try_read_op8 t o =
  match read_op8 t o with v -> v | exception Mem.Fault _ -> 0

let isa =
  {
    Hook.track = "cpu-x86";
    pc = (fun t -> t.eip);
    steps = (fun t -> t.steps);
    transfer =
      (fun t pc insn size ->
        match insn with
        | Call_rel _ -> Hook.Call (Word.add pc size)
        | Call_rm o ->
            Hook.Indirect_call { target = try_read_op t o; ret = Word.add pc size }
        | Jmp_rm o -> Hook.Indirect (try_read_op t o)
        | Ret | Ret_i _ -> Hook.Return (try_read32 t (get t ESP))
        | _ -> Hook.Other);
    syscall =
      (fun t -> function
        | Int n ->
            [ ("vector", Telemetry.Trace.I n); ("eax", Telemetry.Trace.I (get t EAX)) ]
        | _ -> []);
  }

(* The taint sanitizer as a hook.  Each step runs the oracle's pre-step
   rules (tainted pc on indirect control transfers, tainted syscall on
   [int]) against the pre-state and plans the taint effects to commit if
   the instruction retires: shadow bytes for stores, register labels for
   loads and ALU ops, return-slot bookkeeping for call/ret.  The oracle
   never touches guest state; it vetoes only once a halting oracle
   ({!Sanitizer.Oracle.create}[ ~halt_on_report]) holds a report.

   Planning the common steps allocates nothing: one register label, one
   labelled store, or a call's store plus its slot goes through the
   oracle's planner ({!Sanitizer.Oracle.planner}); only [ret] and
   [leave] build a closure of their own. *)
let taint oracle =
  let module O = Sanitizer.Oracle in
  let module Shadow = Memsim.Shadow in
  let rlab r = O.reg_label oracle (reg_index r) in
  let set_rlab r l = O.set_reg_label oracle (reg_index r) l in
  let mlab8 a = O.mem_label oracle a in
  let mlab32 a = O.mem_label32 oracle a in
  let lab_op t = function Reg r -> rlab r | Mem m -> mlab32 (ea t m) in
  let lab_op8 t = function Reg r -> rlab r | Mem m -> mlab8 (ea t m) in
  let pl = O.planner oracle in
  let halt = Hook.Veto O.halt_reason in
  let to_reg r l = O.plan_reg pl (reg_index r) l in
  let to_mem t pc addr len value label =
    O.plan_store pl ~pc ~step:t.steps ~addr ~len ~value ~label
  in
  let check_pc t pc0 ~target ~slot ~label ~detail =
    O.check_pc oracle ~pc:pc0 ~step:t.steps ~target ~slot ~label ~detail
  in
  let slot_of t = function Mem m -> ea t m | Reg _ -> 0 in
  let plan t pc0 insn size =
    let sp0 = get t ESP in
    match insn with
    | Nop | Cmp _ | Cmp_i _ | Test_rr _ | Jmp_rel _ | Jmp_short _ | Jcc _
    | Jcc_short _ | Hlt | Inc_r _ | Dec_r _ | Shl_i _ | Shr_i _ | Neg (Reg _)
    | Not (Reg _) | Add_i (Reg _, _) | Sub_i (Reg _, _) ->
        Hook.Go
    | Push_r r -> to_mem t pc0 (Word.sub sp0 4) 4 (get t r) (rlab r)
    | Push_i i -> to_mem t pc0 (Word.sub sp0 4) 4 (Word.of_int i) 0
    | Push_i8 i -> to_mem t pc0 (Word.sub sp0 4) 4 (Word.sign8 (i land 0xFF)) 0
    | Push_m m ->
        let a = ea t m in
        to_mem t pc0 (Word.sub sp0 4) 4 (try_read32 t a) (mlab32 a)
    | Pop_r r -> to_reg r (mlab32 sp0)
    | Mov_ri (r, _) | Mov_mi (Reg r, _) | Lea (r, { base = None; _ }) ->
        to_reg r 0
    | Mov (Reg d, s) -> to_reg d (lab_op t s)
    | Mov (Mem m, s) -> to_mem t pc0 (ea t m) 4 (try_read_op t s) (lab_op t s)
    | Mov_mi (Mem m, i) -> to_mem t pc0 (ea t m) 4 (Word.of_int i) 0
    | Mov_b (Reg d, s) ->
        (* Only the low byte is replaced: merge rather than overwrite the
           register's label. *)
        to_reg d (Shadow.join (lab_op8 t s) (rlab d))
    | Mov_b (Mem m, s) ->
        to_mem t pc0 (ea t m) 1 (try_read_op8 t s) (lab_op8 t s)
    | Movzx_b (r, s) -> to_reg r (lab_op8 t s)
    | Lea (r, { base = Some b; _ }) -> to_reg r (rlab b)
    | Xor (Reg d, Reg s) when d = s ->
        (* xor r, r is an idiomatic clear — the result carries no attacker
           bytes whatever the operand held. *)
        to_reg d 0
    | Add (d, s) | Sub (d, s) | And (d, s) | Or (d, s) | Xor (d, s) -> (
        let l = Shadow.join (lab_op t d) (lab_op t s) in
        match d with Reg r -> to_reg r l | Mem m -> to_mem t pc0 (ea t m) 4 0 l)
    | Add_i (Mem m, _) | Sub_i (Mem m, _) | Neg (Mem m) | Not (Mem m) ->
        let a = ea t m in
        to_mem t pc0 a 4 0 (mlab32 a)
    | Imul (r, o) -> to_reg r (Shadow.join (rlab r) (lab_op t o))
    | Call_rel _ | Call_rm _ ->
        (match insn with
        | Call_rm o ->
            check_pc t pc0 ~target:(try_read_op t o) ~slot:(slot_of t o)
              ~label:(lab_op t o) ~detail:"call through tainted pointer"
        | _ -> ());
        O.plan_call pl ~pc:pc0 ~step:t.steps ~slot:(Word.sub sp0 4)
          ~ret:(Word.add pc0 size)
    | Jmp_rm o ->
        check_pc t pc0 ~target:(try_read_op t o) ~slot:(slot_of t o)
          ~label:(lab_op t o) ~detail:"jmp through tainted pointer";
        Hook.Go
    | Ret | Ret_i _ ->
        check_pc t pc0 ~target:(try_read32 t sp0) ~slot:sp0 ~label:(mlab32 sp0)
          ~detail:"ret to attacker-controlled address";
        Hook.Commit (fun () -> O.clear_ret_slot oracle sp0)
    | Leave ->
        let ebp0 = get t EBP in
        let lsp = rlab EBP and lbp = mlab32 ebp0 in
        Hook.Commit
          (fun () ->
            set_rlab ESP lsp;
            set_rlab EBP lbp)
    | Int n ->
        if n = 0x80 then
          O.check_kernel_entry oracle t.mem ~pc:pc0 ~step:t.steps
            ~number:(get t EAX) ~number_label:(rlab EAX) ~path:(get t EBX)
            ~path_label:(rlab EBX) ~argv_label:(rlab ECX);
        Hook.Go
  in
  {
    Hook.pre =
      (fun t pc insn size -> if O.halted oracle then halt else plan t pc insn size);
    stop = (fun _ _ -> ());
    lower = Hook.Step;
  }
