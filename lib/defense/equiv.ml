module Rng = Memsim.Rng

(* Each rewrite preserves the architectural effect the surrounding code can
   observe; flag effects are deliberately matched only where our programs
   rely on them (none of the substituted forms is followed by a dependent
   conditional in the builders, and the property tests in
   test_differential check end-state equality). *)

type 'item site = Inert | Coin of 'item option

let x86_subst insn =
  let open Isa_x86.Insn in
  match insn with
  | Xor (Reg a, Reg b) when a = b -> Some (Mov_ri (a, 0))
  | Mov_ri (r, 0) -> Some (Xor (Reg r, Reg r))
  | Add_i (Reg r, 1) -> Some (Inc_r r)
  | Inc_r r -> Some (Add_i (Reg r, 1))
  | Sub_i (Reg r, 1) -> Some (Dec_r r)
  | Dec_r r -> Some (Sub_i (Reg r, 1))
  | _ -> None

let x86_site = function
  | Isa_x86.Asm.I insn -> Coin (Option.map (fun i -> Isa_x86.Asm.I i) (x86_subst insn))
  | _ -> Inert

let arm_subst op =
  let open Isa_arm.Insn in
  match op with
  | Mov (rd, Imm 0) when rd <> PC -> Some (Eor (rd, rd, Reg rd))
  | Eor (rd, rn, Reg rm) when rd = rn && rn = rm && rd <> PC -> Some (Mov (rd, Imm 0))
  | Mov (rd, Reg rm) when rd <> PC && rm <> PC && rd <> rm -> Some (Orr (rd, rm, Imm 0))
  | Orr (rd, rm, Imm 0) when rd <> PC && rm <> PC -> Some (Mov (rd, Reg rm))
  | _ -> None

let arm_site = function
  | Isa_arm.Asm.I { cond = Isa_arm.Insn.AL; op } ->
      Coin (Option.map (fun op -> Isa_arm.Asm.I (Isa_arm.Insn.al op)) (arm_subst op))
  | _ -> Inert

let x86_rng ~seed = Rng.create (seed lxor 0xE9_01)
let arm_rng ~seed = Rng.create (seed lxor 0xE9_02)

let rewrite rng site program =
  let rewrites = ref 0 in
  let rewrite item =
    match site item with
    | Coin alt when Rng.bool rng -> (
        match alt with
        | Some alt ->
            incr rewrites;
            alt
        | None -> item)
    | Coin _ | Inert -> item
  in
  (* Bound first: the order a tuple's parts are evaluated in is unspecified. *)
  let rewritten = List.map rewrite program in
  (rewritten, !rewrites)

let x86 ~seed program = rewrite (x86_rng ~seed) x86_site program
let arm ~seed program = rewrite (arm_rng ~seed) arm_site program
