module Rng = Memsim.Rng

(* Each rewrite preserves the architectural effect the surrounding code can
   observe; flag effects are deliberately matched only where our programs
   rely on them (none of the substituted forms is followed by a dependent
   conditional in the builders, and the property tests in
   test_differential check end-state equality). *)

let x86 ~seed program =
  let rng = Rng.create (seed lxor 0xE9_01) in
  let rewrites = ref 0 in
  let subst insn =
    incr rewrites;
    Isa_x86.Asm.I insn
  in
  let rewrite item =
    let open Isa_x86.Insn in
    match item with
    | Isa_x86.Asm.I insn when Rng.bool rng -> (
        match insn with
        | Xor (Reg a, Reg b) when a = b -> subst (Mov_ri (a, 0))
        | Mov_ri (r, 0) -> subst (Xor (Reg r, Reg r))
        | Add_i (Reg r, 1) -> subst (Inc_r r)
        | Inc_r r -> subst (Add_i (Reg r, 1))
        | Sub_i (Reg r, 1) -> subst (Dec_r r)
        | Dec_r r -> subst (Sub_i (Reg r, 1))
        | _ -> item)
    | _ -> item
  in
  (* Bound first: the order a tuple's parts are evaluated in is unspecified. *)
  let rewritten = List.map rewrite program in
  (rewritten, !rewrites)

let arm ~seed program =
  let rng = Rng.create (seed lxor 0xE9_02) in
  let rewrites = ref 0 in
  let subst op =
    incr rewrites;
    Isa_arm.Asm.I (Isa_arm.Insn.al op)
  in
  let rewrite item =
    let open Isa_arm.Insn in
    match item with
    | Isa_arm.Asm.I { cond = AL; op } when Rng.bool rng -> (
        match op with
        | Mov (rd, Imm 0) when rd <> PC -> subst (Eor (rd, rd, Reg rd))
        | Eor (rd, rn, Reg rm) when rd = rn && rn = rm && rd <> PC ->
            subst (Mov (rd, Imm 0))
        | Mov (rd, Reg rm) when rd <> PC && rm <> PC && rd <> rm ->
            subst (Orr (rd, rm, Imm 0))
        | Orr (rd, rm, Imm 0) when rd <> PC && rm <> PC -> subst (Mov (rd, Reg rm))
        | _ -> item)
    | _ -> item
  in
  (* Bound first: the order a tuple's parts are evaluated in is unspecified. *)
  let rewritten = List.map rewrite program in
  (rewritten, !rewrites)
