open Insn
module Mem = Memsim.Memory
module Word = Memsim.Word
module Outcome = Machine.Outcome
module Hook = Machine.Hook
module Engine = Machine.Engine

type t = {
  mem : Mem.t;
  regs : int array;
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable steps : int;
  mutable branched : bool;
  icache : compiled Memsim.Icache.t option;
}

and kernel = int -> t -> Outcome.syscall_result
and compiled = (t, Insn.t) Engine.compiled

let new_icache () = Engine.new_icache ~dummy:(al (Mov (R0, Reg R0)))

let create ~icache mem =
  {
    mem;
    regs = Array.make 16 0;
    n = false;
    z = false;
    c = false;
    v = false;
    steps = 0;
    branched = false;
    icache = Option.map (fun table -> Memsim.Icache.view table mem) icache;
  }

(* [reg_index] is total over r0-r15, so the bounds checks would never
   fire — and these accessors run several times per interpreted
   instruction. *)
let pc t = Array.unsafe_get t.regs 15
let set_pc t v = Array.unsafe_set t.regs 15 (Word.of_int v)

let get t r =
  match r with
  | PC -> Word.add (pc t) 8
  | _ -> Array.unsafe_get t.regs (reg_index r)

let set t r v = Array.unsafe_set t.regs (reg_index r) (Word.of_int v)

let push t v =
  let sp = Word.sub (get t SP) 4 in
  set t SP sp;
  Mem.write_u32 t.mem sp v

let pop t =
  let sp = get t SP in
  let v = Mem.read_u32 t.mem sp in
  set t SP (Word.add sp 4);
  v

let op2_value t = function
  | Imm i -> Word.of_int i
  | Reg r -> get t r
  | Lsl (r, amt) -> Word.of_int (get t r lsl amt)

let cond_holds t = function
  | EQ -> t.z
  | NE -> not t.z
  | CS -> t.c
  | CC -> not t.c
  | MI -> t.n
  | PL -> not t.n
  | HI -> t.c && not t.z
  | LS -> (not t.c) || t.z
  | GE -> t.n = t.v
  | LT -> t.n <> t.v
  | GT -> (not t.z) && t.n = t.v
  | LE -> t.z || t.n <> t.v
  | AL -> true

let set_cmp_flags t a b =
  let res = Word.sub a b in
  t.n <- Word.bit res 31;
  t.z <- res = 0;
  t.c <- a >= b;  (* no borrow *)
  t.v <- Word.bit a 31 <> Word.bit b 31 && Word.bit res 31 <> Word.bit a 31

let set_tst_flags t res =
  t.n <- Word.bit res 31;
  t.z <- res = 0

(* Explicit control transfer: pc stays at the current instruction during
   execution so architectural PC reads yield start+8; [t.branched] marks
   that the fall-through pc update must be skipped.  Top-level (with the
   [branched] flag a CPU field rather than a [ref]) so executing an
   instruction allocates nothing. *)
let branch t target =
  t.branched <- true;
  set_pc t target

(* Data-processing writeback: writing PC is an indirect jump. *)
let dp_write t rd v =
  match rd with
  | PC ->
      branch t (Word.of_int v land lnot 1);
      None
  | _ ->
      set t rd v;
      None

(* The value a data-processing op computes from the current registers;
   shared by [exec] and the hooks that must see a pc write before it
   happens. *)
let dp_value t = function
  | Mov (_, o) -> op2_value t o
  | Mvn (_, o) -> Word.lognot (op2_value t o)
  | Add (_, rn, o) -> Word.add (get t rn) (op2_value t o)
  | Sub (_, rn, o) -> Word.sub (get t rn) (op2_value t o)
  | Rsb (_, rn, o) -> Word.sub (op2_value t o) (get t rn)
  | And (_, rn, o) -> get t rn land op2_value t o
  | Orr (_, rn, o) -> get t rn lor op2_value t o
  | Eor (_, rn, o) -> get t rn lxor op2_value t o
  | Bic (_, rn, o) -> get t rn land Word.lognot (op2_value t o)
  | Mul (_, rm, rs) -> Word.mul (get t rm) (get t rs)
  | _ -> invalid_arg "Cpu.dp_value: not a data-processing op"

(* The address a load or store accesses. *)
let mem_addr t = function
  | Ldr (_, rn, off) | Str (_, rn, off) | Ldrb (_, rn, off) | Strb (_, rn, off) ->
      Word.add (get t rn) off
  | Ldr_r (_, rn, rm) | Str_r (_, rn, rm) | Ldrb_r (_, rn, rm) | Strb_r (_, rn, rm)
    ->
      Word.add (get t rn) (get t rm)
  | _ -> invalid_arg "Cpu.mem_addr: not a load or store"

let exec t ~kernel start cond op =
        t.steps <- t.steps + 1;
        let next = Word.add start 4 in
        if not (cond_holds t cond) then begin
          set_pc t next;
          None
        end
        else begin
          t.branched <- false;
          let stop =
            try
              match op with
            | Mov (rd, _) | Mvn (rd, _) | Add (rd, _, _) | Sub (rd, _, _)
            | Rsb (rd, _, _) | And (rd, _, _) | Orr (rd, _, _) | Eor (rd, _, _)
            | Bic (rd, _, _) | Mul (rd, _, _) ->
                dp_write t rd (dp_value t op)
            | Cmp (rn, o) ->
                set_cmp_flags t (get t rn) (op2_value t o);
                None
            | Tst (rn, o) ->
                set_tst_flags t (get t rn land op2_value t o);
                None
            | Ldr (rd, _, _) | Ldr_r (rd, _, _) ->
                dp_write t rd (Mem.read_u32 t.mem (mem_addr t op))
            | Ldrb (rd, _, _) | Ldrb_r (rd, _, _) ->
                dp_write t rd (Mem.read_u8 t.mem (mem_addr t op))
            | Str (rd, _, _) | Str_r (rd, _, _) ->
                Mem.write_u32 t.mem (mem_addr t op) (get t rd);
                None
            | Strb (rd, _, _) | Strb_r (rd, _, _) ->
                Mem.write_u8 t.mem (mem_addr t op) (get t rd land 0xFF);
                None
            | Push regs ->
                let n = List.length regs in
                let base = Word.sub (get t SP) (4 * n) in
                List.iteri
                  (fun i r -> Mem.write_u32 t.mem (Word.add base (4 * i)) (get t r))
                  regs;
                set t SP base;
                None
            | Pop regs -> (
                let sp0 = get t SP in
                let values =
                  List.mapi
                    (fun i _ -> Mem.read_u32 t.mem (Word.add sp0 (4 * i)))
                    regs
                in
                set t SP (Word.add sp0 (4 * List.length regs));
                let pc_target = ref None in
                List.iter2
                  (fun r v -> if r = PC then pc_target := Some v else set t r v)
                  regs values;
                match !pc_target with
                | None -> None
                | Some target ->
                    branch t (target land lnot 1);
                    None)
            | B d ->
                branch t (Word.add (Word.add start 8) d);
                None
            | Bl d ->
                set t LR next;
                branch t (Word.add (Word.add start 8) d);
                None
            | Bx r ->
                branch t (get t r land lnot 1);
                None
            | Blx_r r ->
                let target = get t r land lnot 1 in
                set t LR next;
                branch t target;
                None
            | Svc n -> (
                match kernel n t with
                | Outcome.Resume -> None
                | Outcome.Stop reason -> Some reason)
            with Mem.Fault f -> Some (Outcome.Fault f)
          in
          (match stop with
          | None -> if not t.branched then set_pc t next
          | Some _ -> ());
          stop
        end

(* The block transfers' memory halves, for their thunks: [idx] holds the
   list's register numbers in list order.  [push] stores each register at
   [base + 4i], pc as [pc8] (its address + 8), and a fault stops it after
   the stores before it, as [exec]'s do. *)
let store_regs t idx base pc8 =
  for i = 0 to Array.length idx - 1 do
    let r = Array.unsafe_get idx i in
    Mem.write_u32 t.mem (Word.add base (4 * i)) (if r = 15 then pc8 else Array.unsafe_get t.regs r)
  done

(* [pop] reads every word into [vals] before it writes any register. *)
let load_regs t vals sp0 =
  for i = 0 to Array.length vals - 1 do
    Array.unsafe_set vals i (Mem.read_u32 t.mem (Word.add sp0 (4 * i)))
  done

(* Then writes them in list order, pc aside: the pc value, or -1. *)
let commit_pop t idx vals =
  let target = ref (-1) in
  for i = 0 to Array.length idx - 1 do
    let r = Array.unsafe_get idx i in
    if r = 15 then target := Array.unsafe_get vals i
    else Array.unsafe_set t.regs r (Array.unsafe_get vals i)
  done;
  !target

(* Specialize one decoded instruction into an execution thunk for its
   (fixed) address: pc+8 reads, the successor pc and pc-relative branch
   targets become captured constants, register operands become
   pre-resolved array indices, and forms that cannot fault or write pc
   skip the fault handler and the [branched] protocol.  Anything outside
   the hot set (pc-writing data-processing and loads, register-offset
   addressing, [blx], conditional [bl] and [svc]) falls back to the
   generic [exec] — behavior is bit-identical either way, which the
   differential tests assert instruction-by-instruction over every
   exploit scenario.
   The hottest forms (mov, add/sub/cmp with an immediate, immediate-offset
   loads and stores, none touching pc) get flat thunks that read their
   registers directly rather than through operand closures.  Compilation
   cost is paid once per (page generation, address), i.e. on the same
   events as decoding itself. *)
let compile start { cond; op } =
  let next = Word.add start 4 in
  (* Pre-resolved operand readers.  pc reads as start+8 — a constant at
     this address, folded here. *)
  let creg r =
    match r with
    | PC ->
        let v = Word.add start 8 in
        fun _ -> v
    | _ ->
        let i = reg_index r in
        fun t -> Array.unsafe_get t.regs i
  in
  let cop2 = function
    | Imm i ->
        let v = Word.of_int i in
        fun _ -> v
    | Reg r -> creg r
    | Lsl (PC, amt) ->
        let v = Word.of_int (Word.add start 8 lsl amt) in
        fun _ -> v
    | Lsl (r, amt) ->
        let i = reg_index r in
        fun t -> Word.of_int (Array.unsafe_get t.regs i lsl amt)
  in
  (* Conditional execution wrapper for the specialized forms: a failed
     condition still retires the instruction (steps counts attempts, as
     in [exec]) and falls through. *)
  let guard body =
    if cond = AL then body
    else
      fun t kernel ->
        if cond_holds t cond then body t kernel
        else begin
          t.steps <- t.steps + 1;
          set_pc t next;
          None
        end
  in
  (* Data-processing writeback to a non-pc register: no fault possible,
     no control transfer, flags untouched (the subset has no S bit
     outside cmp/tst). *)
  let dp rd f =
    let d = reg_index rd in
    guard (fun t _ ->
        t.steps <- t.steps + 1;
        Array.unsafe_set t.regs d (Word.of_int (f t));
        set_pc t next;
        None)
  in
  let load rd read addr_of =
    let d = reg_index rd in
    guard (fun t _ ->
        t.steps <- t.steps + 1;
        match read t.mem (addr_of t) with
        | v ->
            Array.unsafe_set t.regs d v;
            set_pc t next;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  in
  let store write addr_of value_of =
    guard (fun t _ ->
        t.steps <- t.steps + 1;
        match write t.mem (addr_of t) (value_of t) with
        | () ->
            set_pc t next;
            None
        | exception Mem.Fault f -> Some (Outcome.Fault f))
  in
  (* The flat forms: no pc operand, so every register is a plain slot and
     every operation a direct call. *)
  let loaded t d v =
    Array.unsafe_set t.regs d v;
    set_pc t next;
    None
  in
  match op with
  | Mov (rd, Imm i) when rd <> PC ->
      let d = reg_index rd and v = Word.of_int i in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          Array.unsafe_set t.regs d v;
          set_pc t next;
          None)
  | Mov (rd, Reg rs) when rd <> PC && rs <> PC ->
      let d = reg_index rd and s = reg_index rs in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          Array.unsafe_set t.regs d (Array.unsafe_get t.regs s);
          set_pc t next;
          None)
  | Add (rd, rn, Imm i) when rd <> PC && rn <> PC ->
      let d = reg_index rd and n = reg_index rn and i = Word.of_int i in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          Array.unsafe_set t.regs d (Word.add (Array.unsafe_get t.regs n) i);
          set_pc t next;
          None)
  | Sub (rd, rn, Imm i) when rd <> PC && rn <> PC ->
      let d = reg_index rd and n = reg_index rn and i = Word.of_int i in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          Array.unsafe_set t.regs d (Word.sub (Array.unsafe_get t.regs n) i);
          set_pc t next;
          None)
  | Cmp (rn, Imm i) when rn <> PC ->
      let n = reg_index rn and b = Word.of_int i in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          set_cmp_flags t (Array.unsafe_get t.regs n) b;
          set_pc t next;
          None)
  | Ldr (rd, rn, off) when rd <> PC && rn <> PC ->
      let d = reg_index rd and n = reg_index rn in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          match Mem.read_u32 t.mem (Word.add (Array.unsafe_get t.regs n) off) with
          | v -> loaded t d v
          | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Ldrb (rd, rn, off) when rd <> PC && rn <> PC ->
      let d = reg_index rd and n = reg_index rn in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          match Mem.read_u8 t.mem (Word.add (Array.unsafe_get t.regs n) off) with
          | v -> loaded t d v
          | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Str (rd, rn, off) when rd <> PC && rn <> PC ->
      let s = reg_index rd and n = reg_index rn in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          match
            Mem.write_u32 t.mem
              (Word.add (Array.unsafe_get t.regs n) off)
              (Array.unsafe_get t.regs s)
          with
          | () ->
              set_pc t next;
              None
          | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Strb (rd, rn, off) when rd <> PC && rn <> PC ->
      let s = reg_index rd and n = reg_index rn in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          match
            Mem.write_u8 t.mem
              (Word.add (Array.unsafe_get t.regs n) off)
              (Array.unsafe_get t.regs s land 0xFF)
          with
          | () ->
              set_pc t next;
              None
          | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Mov (rd, o) when rd <> PC ->
      let o = cop2 o in
      dp rd o
  | Mvn (rd, o) when rd <> PC ->
      let o = cop2 o in
      dp rd (fun t -> Word.lognot (o t))
  | Add (rd, rn, o) when rd <> PC ->
      let n = creg rn and o = cop2 o in
      dp rd (fun t -> Word.add (n t) (o t))
  | Sub (rd, rn, o) when rd <> PC ->
      let n = creg rn and o = cop2 o in
      dp rd (fun t -> Word.sub (n t) (o t))
  | Rsb (rd, rn, o) when rd <> PC ->
      let n = creg rn and o = cop2 o in
      dp rd (fun t -> Word.sub (o t) (n t))
  | And (rd, rn, o) when rd <> PC ->
      let n = creg rn and o = cop2 o in
      dp rd (fun t -> n t land o t)
  | Orr (rd, rn, o) when rd <> PC ->
      let n = creg rn and o = cop2 o in
      dp rd (fun t -> n t lor o t)
  | Eor (rd, rn, o) when rd <> PC ->
      let n = creg rn and o = cop2 o in
      dp rd (fun t -> n t lxor o t)
  | Bic (rd, rn, o) when rd <> PC ->
      let n = creg rn and o = cop2 o in
      dp rd (fun t -> n t land Word.lognot (o t))
  | Mul (rd, rm, rs) when rd <> PC ->
      let m = creg rm and s = creg rs in
      dp rd (fun t -> Word.mul (m t) (s t))
  | Cmp (rn, o) ->
      let n = creg rn and o = cop2 o in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          set_cmp_flags t (n t) (o t);
          set_pc t next;
          None)
  | Tst (rn, o) ->
      let n = creg rn and o = cop2 o in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          set_tst_flags t (n t land o t);
          set_pc t next;
          None)
  | Ldr (rd, rn, off) when rd <> PC ->
      let a = creg rn in
      load rd Mem.read_u32 (fun t -> Word.add (a t) off)
  | Str (rd, rn, off) ->
      let a = creg rn and s = creg rd in
      store Mem.write_u32 (fun t -> Word.add (a t) off) s
  | Ldrb (rd, rn, off) when rd <> PC ->
      let a = creg rn in
      load rd Mem.read_u8 (fun t -> Word.add (a t) off)
  | Strb (rd, rn, off) ->
      let a = creg rn and s = creg rd in
      store Mem.write_u8 (fun t -> Word.add (a t) off) (fun t -> s t land 0xFF)
  | B d ->
      let target = Word.add (Word.add start 8) d in
      if cond = AL then
        fun t _ ->
          t.steps <- t.steps + 1;
          set_pc t target;
          None
      else
        fun t _ ->
          t.steps <- t.steps + 1;
          set_pc t (if cond_holds t cond then target else next);
          None
  | Bl d when cond = AL ->
      let target = Word.add (Word.add start 8) d in
      fun t _ ->
        t.steps <- t.steps + 1;
        Array.unsafe_set t.regs 14 next;
        set_pc t target;
        None
  | Svc n when cond = AL ->
      fun t kernel -> (
        t.steps <- t.steps + 1;
        try
          match kernel n t with
          | Outcome.Resume ->
              set_pc t next;
              None
          | Outcome.Stop reason -> Some reason
        with Mem.Fault f -> Some (Outcome.Fault f))
  | Push regs ->
      let idx = Array.of_list (List.map reg_index regs) in
      let size = 4 * Array.length idx and pc8 = Word.add start 8 in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          let base = Word.sub (Array.unsafe_get t.regs 13) size in
          match store_regs t idx base pc8 with
          | () ->
              Array.unsafe_set t.regs 13 base;
              set_pc t next;
              None
          | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Pop regs ->
      let idx = Array.of_list (List.map reg_index regs) in
      let vals = Array.make (Array.length idx) 0 in
      let size = 4 * Array.length idx and writes_pc = List.mem PC regs in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          let sp0 = Array.unsafe_get t.regs 13 in
          match load_regs t vals sp0 with
          | () ->
              Array.unsafe_set t.regs 13 (Word.add sp0 size);
              let target = commit_pop t idx vals in
              set_pc t (if writes_pc then target land lnot 1 else next);
              None
          | exception Mem.Fault f -> Some (Outcome.Fault f))
  | Bx PC ->
      let target = Word.add start 8 land lnot 1 in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          set_pc t target;
          None)
  | Bx r ->
      let i = reg_index r in
      guard (fun t _ ->
          t.steps <- t.steps + 1;
          set_pc t (Array.unsafe_get t.regs i land lnot 1);
          None)
  | _ -> fun t kernel -> exec t ~kernel start cond op

(* Instructions that end a block: every branch but an unconditional [b],
   every write to pc and [svc] — whatever the condition, since a
   condition-failed one only falls through.  An unconditional [b] has a
   constant target and classifies as no transfer, so a block runs on
   through it. *)
let ends_block { cond; op } =
  match op with
  | B _ -> cond <> AL
  | Bl _ | Bx _ | Blx_r _ | Svc _ -> true
  | Pop regs -> List.mem PC regs
  | Mov (rd, _) | Mvn (rd, _) | Add (rd, _, _) | Sub (rd, _, _) | Rsb (rd, _, _)
  | And (rd, _, _) | Orr (rd, _, _) | Eor (rd, _, _) | Bic (rd, _, _)
  | Mul (rd, _, _) | Ldr (rd, _, _) | Ldr_r (rd, _, _) | Ldrb (rd, _, _)
  | Ldrb_r (rd, _, _) ->
      rd = PC
  | Cmp _ | Tst _ | Str _ | Strb _ | Str_r _ | Strb_r _ | Push _ -> false

(* What each member of a copy loop does (see {!Engine.copy_loop_of}); a
   conditional member is none of its shapes. *)
let effect = function
  | { cond = AL; op = Ldrb (rd, rn, disp) } when rd <> PC && rn <> PC ->
      Engine.Load_byte { reg = reg_index rd; base = reg_index rn; disp }
  | { cond = AL; op = Strb (rd, rn, disp) } when rd <> PC && rn <> PC ->
      Engine.Store_byte { reg = reg_index rd; base = reg_index rn; disp }
  | { cond = AL; op = Add (rd, rn, Imm i) } when rd = rn && rd <> PC ->
      Engine.Add_imm { reg = reg_index rd; imm = Word.to_signed (Word.of_int i) }
  | { cond = AL; op = Sub (rd, rn, Imm i) } when rd = rn && rd <> PC ->
      Engine.Add_imm { reg = reg_index rd; imm = -Word.to_signed (Word.of_int i) }
  | { cond = AL; op = Cmp (rn, Imm i) } when rn <> PC && Word.of_int i = 0 ->
      Engine.Cmp_zero (reg_index rn)
  | { cond = AL; op = B _ } -> Engine.Jump
  | _ -> Engine.Other

(* A copy loop ends in [beq] out; [k] iterations leave the last [cmp]'s
   flags. *)
let copy_loop members =
  match List.rev members with
  | (pc, { cond = EQ; op = B d }, _) :: rev_body -> (
      let body = List.rev_map (fun (_, insn, _) -> effect insn) rev_body in
      let head, _, _ = List.hd members and n = List.length members in
      let exit = Word.add (Word.add pc 8) d in
      Engine.copy_loop_of body
        ~regs:(fun t -> t.regs)
        ~leave:(fun t c k ->
          set_cmp_flags t c 0;
          t.steps <- t.steps + (n * k);
          set_pc t (if c = 0 then exit else head)))
  | _ -> None

let engine =
  {
    Engine.pc;
    fetch =
      (fun mem addr ->
        (* Checked before decoding, so an unaligned pc counts no icache
           miss. *)
        if addr land 3 <> 0 then
          raise (Mem.Fault { addr; kind = Mem.Perm_exec; context = "unaligned pc" });
        try (Decode.decode mem addr, 4)
        with Decode.Error { addr; word } ->
          raise (Engine.Undecodable { addr; byte = word land 0xFF }));
    exec = (fun t kernel start { cond; op } _ -> exec t ~kernel start cond op);
    compile = (fun start _ insn -> compile start insn);
    ends_block;
    follower =
      (fun pc insn _ ->
        match insn with
        | { cond = AL; op = B d } -> Word.add (Word.add pc 8) d
        | _ -> Word.add pc 4);
    copy_loop;
  }

let run ?(fuel = 2_000_000) ~traps ~kernel ~hooks t =
  Engine.run engine ~fuel ~traps ~kernel ~hooks t.mem t.icache t

(* Guest reads made while planning a hook's verdict: a fault here is the
   instruction's own to raise when it executes, so it reads as 0. *)
let try_read32 t a =
  match Mem.read_u32 t.mem a with v -> v | exception Mem.Fault _ -> 0

(* The stack slot [pop regs] loads pc from, if it does. *)
let pc_slot t regs =
  let rec idx i = function
    | [] -> None
    | PC :: _ -> Some (Word.add (get t SP) (4 * i))
    | _ :: rest -> idx (i + 1) rest
  in
  idx 0 regs

(* Returns are [bx lr], [mov pc, lr] and [pop {…, pc}]; every other pc
   write is an indirect transfer. *)
let isa =
  {
    Hook.track = "cpu-arm";
    pc;
    steps = (fun t -> t.steps);
    transfer =
      (fun t pc { cond; op } _ ->
        if not (cond_holds t cond) then Hook.Other
        else
          match op with
          | Bl _ -> Hook.Call (Word.add pc 4)
          | Blx_r r ->
              Hook.Indirect_call
                { target = get t r land lnot 1; ret = Word.add pc 4 }
          | Bx LR | Mov (PC, Reg LR) -> Hook.Return (get t LR land lnot 1)
          | Bx r -> Hook.Indirect (get t r land lnot 1)
          | Mov (PC, _) | Mvn (PC, _) | Add (PC, _, _) | Sub (PC, _, _)
          | Rsb (PC, _, _) | And (PC, _, _) | Orr (PC, _, _) | Eor (PC, _, _)
          | Bic (PC, _, _) | Mul (PC, _, _) ->
              Hook.Indirect (Word.of_int (dp_value t op) land lnot 1)
          | Ldr (PC, _, _) | Ldr_r (PC, _, _) ->
              Hook.Indirect (try_read32 t (mem_addr t op) land lnot 1)
          | Pop regs -> (
              match pc_slot t regs with
              | Some a -> Hook.Return (try_read32 t a land lnot 1)
              | None -> Hook.Other)
          | _ -> Hook.Other);
    syscall =
      (fun t -> function
        | { op = Svc n; _ } ->
            [ ("vector", Telemetry.Trace.I n); ("r7", Telemetry.Trace.I (get t R7)) ]
        | _ -> []);
  }

(* The taint sanitizer as a hook — the ARM twin of the x86 one: the
   oracle's pre-step rules against the pre-state, taint effects
   committed only if the instruction retires, a veto only once a halting
   oracle holds a report.  A condition-failed instruction plans nothing,
   exactly as it executes nothing.  As on x86, a register label or a
   labelled store goes through the oracle's planner and allocates
   nothing; only [push] and [pop] build closures of their own. *)
let taint oracle =
  let module O = Sanitizer.Oracle in
  let module Shadow = Memsim.Shadow in
  let rlab r = match r with PC -> 0 | _ -> O.reg_label oracle (reg_index r) in
  let set_rlab r l = O.set_reg_label oracle (reg_index r) l in
  let mlab8 a = O.mem_label oracle a in
  let mlab32 a = O.mem_label32 oracle a in
  let lab_op2 = function Imm _ -> 0 | Reg r | Lsl (r, _) -> rlab r in
  let pl = O.planner oracle in
  let halt = Hook.Veto O.halt_reason in
  let to_reg r l = O.plan_reg pl (reg_index r) l in
  let to_mem t pc addr len value label =
    O.plan_store pl ~pc ~step:t.steps ~addr ~len ~value ~label
  in
  let check_pc t pc0 ~target ~slot ~label ~detail =
    O.check_pc oracle ~pc:pc0 ~step:t.steps ~target ~slot ~label ~detail
  in
  (* Data-processing result label; a write to pc with a tainted result
     is the hijack. *)
  let dp t pc0 op rd l =
    if rd = PC then begin
      check_pc t pc0
        ~target:(Word.of_int (dp_value t op) land lnot 1)
        ~slot:0 ~label:l ~detail:"tainted value written to pc";
      Hook.Go
    end
    else to_reg rd l
  in
  let plan t pc0 op =
    match op with
    | Cmp _ | Tst _ | B _ -> Hook.Go
    | Mov (rd, o) | Mvn (rd, o) -> dp t pc0 op rd (lab_op2 o)
    | Eor (rd, rn, Reg rm) when rn = rm ->
        (* eor r, r, r clears the value — no attacker bytes survive. *)
        dp t pc0 op rd 0
    | Add (rd, rn, o) | Sub (rd, rn, o) | Rsb (rd, rn, o) | And (rd, rn, o)
    | Orr (rd, rn, o) | Eor (rd, rn, o) | Bic (rd, rn, o) ->
        dp t pc0 op rd (Shadow.join (rlab rn) (lab_op2 o))
    | Mul (rd, rm, rs) -> dp t pc0 op rd (Shadow.join (rlab rm) (rlab rs))
    | Ldr (rd, _, _) | Ldr_r (rd, _, _) ->
        let a = mem_addr t op in
        let l = mlab32 a in
        if rd = PC then begin
          check_pc t pc0
            ~target:(try_read32 t a land lnot 1)
            ~slot:a ~label:l ~detail:"pc loaded from tainted memory";
          Hook.Go
        end
        else to_reg rd l
    | Ldrb (rd, _, _) | Ldrb_r (rd, _, _) -> to_reg rd (mlab8 (mem_addr t op))
    | Str (rd, _, _) | Str_r (rd, _, _) ->
        to_mem t pc0 (mem_addr t op) 4 (get t rd) (rlab rd)
    | Strb (rd, _, _) | Strb_r (rd, _, _) ->
        to_mem t pc0 (mem_addr t op) 1 (get t rd land 0xFF) (rlab rd)
    | Push regs ->
        let stepno = t.steps in
        let n = List.length regs in
        let base = Word.sub (get t SP) (4 * n) in
        let slots =
          List.mapi (fun i r -> (Word.add base (4 * i), r, rlab r, get t r)) regs
        in
        Hook.Commit
          (fun () ->
            List.iter
              (fun (a, r, l, v) ->
                O.store oracle ~pc:pc0 ~step:stepno ~addr:a ~len:4 ~value:v
                  ~label:l;
                if r = LR then O.note_ret_slot oracle a)
              slots)
    | Pop regs ->
        let sp0 = get t SP in
        let slots = List.mapi (fun i r -> (Word.add sp0 (4 * i), r)) regs in
        List.iter
          (fun (a, r) ->
            if r = PC then
              check_pc t pc0
                ~target:(try_read32 t a land lnot 1)
                ~slot:a ~label:(mlab32 a)
                ~detail:"pop {…, pc} from attacker-controlled stack")
          slots;
        Hook.Commit
          (fun () ->
            List.iter
              (fun (a, r) ->
                if r = PC then O.clear_ret_slot oracle a
                else set_rlab r (mlab32 a))
              slots)
    | Bl _ -> to_reg LR 0
    | Bx r ->
        check_pc t pc0
          ~target:(get t r land lnot 1)
          ~slot:0 ~label:(rlab r) ~detail:"bx through tainted register";
        Hook.Go
    | Blx_r r ->
        check_pc t pc0
          ~target:(get t r land lnot 1)
          ~slot:0 ~label:(rlab r) ~detail:"blx through tainted register";
        to_reg LR 0
    | Svc n ->
        if n = 0 then
          O.check_kernel_entry oracle t.mem ~pc:pc0 ~step:t.steps
            ~number:(get t R7) ~number_label:(rlab R7) ~path:(get t R0)
            ~path_label:(rlab R0) ~argv_label:(rlab R1);
        Hook.Go
  in
  {
    Hook.pre =
      (fun t pc { cond; op } _ ->
        if O.halted oracle then halt
        else if not (cond_holds t cond) then Hook.Go
        else plan t pc op);
    stop = (fun _ _ -> ());
    lower = Hook.Step;
  }
