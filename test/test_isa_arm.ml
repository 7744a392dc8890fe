(* Tests for the ARMv7 assembler, decoder, and interpreter. *)

module Mem = Memsim.Memory
module Word = Memsim.Word
open Isa_arm
module O = Machine.Outcome

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let no_kernel _n _cpu = O.Stop (O.Aborted "unexpected syscall")

let text_base = 0x0001_0000

let setup ?extern program =
  let mem = Mem.create () in
  let result = Asm.assemble ?extern ~base:text_base program in
  let size = max 0x1000 (String.length result.Asm.code) in
  Mem.map mem ~base:text_base ~size ~perm:Mem.rx ~name:"text";
  Mem.poke_bytes mem text_base result.Asm.code;
  Mem.map mem ~base:0x7EFF_0000 ~size:0x10000 ~perm:Mem.rw ~name:"stack";
  let cpu = Cpu.create ~icache:(Some (Cpu.new_icache ())) mem in
  Cpu.set cpu Insn.SP 0x7EFF_F000;
  Cpu.set_pc cpu text_base;
  (mem, cpu, result)

let run ?fuel ?(kernel = no_kernel) ?(traps = []) cpu =
  Cpu.run ?fuel ~traps ~kernel ~hooks:[] cpu

(* A halt convention for tests: svc 0xFF stops with Halted. *)
let halt_kernel n _cpu = if n = 0xFF then O.Stop O.Halted else O.Resume
let halt = Asm.I (Insn.al (Insn.Svc 0xFF))
let run_to_halt cpu = run ~kernel:halt_kernel cpu

(* --- encodings: ground truth from the ARM ARM / gnu as --- *)

let test_known_words () =
  let open Insn in
  let check name insn expected =
    Alcotest.(check string)
      name
      (Printf.sprintf "%08x" expected)
      (Printf.sprintf "%08x" (Encode.encode_word insn))
  in
  check "nop (mov r1, r1)" nop 0xE1A01001;
  check "mov r0, #1" (al (Mov (R0, Imm 1))) 0xE3A00001;
  check "mov r7, #11" (al (Mov (R7, Imm 11))) 0xE3A0700B;
  check "mvn r0, #0" (al (Mvn (R0, Imm 0))) 0xE3E00000;
  check "add r0, r1, #4" (al (Add (R0, R1, Imm 4))) 0xE2810004;
  check "sub sp, sp, #8" (al (Sub (SP, SP, Imm 8))) 0xE24DD008;
  check "rsb r0, r1, #0" (al (Rsb (R0, R1, Imm 0))) 0xE2610000;
  check "cmp r0, #0" (al (Cmp (R0, Imm 0))) 0xE3500000;
  check "cmp r3, r4" (al (Cmp (R3, Reg R4))) 0xE1530004;
  check "ldr r0, [r1, #4]" (al (Ldr (R0, R1, 4))) 0xE5910004;
  check "ldr r0, [r1, #-4]" (al (Ldr (R0, R1, -4))) 0xE5110004;
  check "str r2, [sp]" (al (Str (R2, SP, 0))) 0xE58D2000;
  check "ldrb r2, [r3]" (al (Ldrb (R2, R3, 0))) 0xE5D32000;
  check "strb r2, [r3, #1]" (al (Strb (R2, R3, 1))) 0xE5C32001;
  check "push {r4, lr}" (al (Push [ R4; LR ])) 0xE92D4010;
  check "pop {r4, pc}" (al (Pop [ R4; PC ])) 0xE8BD8010;
  check "paper gadget pop {r0,r1,r2,r3,r5,r6,r7,pc}"
    (al (Pop [ R0; R1; R2; R3; R5; R6; R7; PC ]))
    0xE8BD80EF;
  check "bx lr" (al (Bx LR)) 0xE12FFF1E;
  check "blx r3" (al (Blx_r R3)) 0xE12FFF33;
  check "svc 0" (al (Svc 0)) 0xEF000000;
  check "b +8" (al (B 8)) 0xEA000002;
  check "bl .-4" (al (Bl (-4))) 0xEBFFFFFF;
  check "mov r3, r3, lsl #8" (al (Mov (R3, Lsl (R3, 8)))) 0xE1A03403;
  check "mul r0, r1, r2" (al (Mul (R0, R1, R2))) 0xE0000291;
  check "bic r0, r1, #0xFF" (al (Bic (R0, R1, Imm 0xFF))) 0xE3C100FF;
  check "ldr r0, [r1, r2]" (al (Ldr_r (R0, R1, R2))) 0xE7910002;
  check "strb r3, [r4, r5]" (al (Strb_r (R3, R4, R5))) 0xE7C43005;
  check "beq +0" { cond = EQ; op = B 0 } 0x0A000000;
  check "movne r0, #1" { cond = NE; op = Mov (R0, Imm 1) } 0x13A00001

let test_imm_encoding () =
  check_bool "1 encodable" true (Encode.imm_encodable 1);
  check_bool "0xFF encodable" true (Encode.imm_encodable 0xFF);
  check_bool "0x100 encodable" true (Encode.imm_encodable 0x100);
  check_bool "0x102 not encodable" false (Encode.imm_encodable 0x102);
  check_bool "0xFF000000 encodable" true (Encode.imm_encodable 0xFF000000);
  check_bool "0x3FC encodable" true (Encode.imm_encodable 0x3FC);
  check_bool "0x1024 not encodable" false (Encode.imm_encodable 0x1024);
  (* 1024 = 0x400 is encodable (0x40 ror 28·?) — 0x400 = 1 lsl 10. *)
  check_bool "0x400 encodable" true (Encode.imm_encodable 0x400)

let roundtrip insn =
  let w = Encode.encode_word insn in
  let got = Decode.decode_word ~addr:0 w in
  Alcotest.(check string)
    ("round-trip " ^ Insn.to_string insn)
    (Insn.to_string insn) (Insn.to_string got)

let test_roundtrip_corpus () =
  let open Insn in
  List.iter roundtrip
    [
      nop;
      al (Mov (R0, Imm 0));
      al (Mov (PC, Reg LR));
      al (Mov (R3, Lsl (R3, 8)));
      al (Add (R0, R1, Lsl (R2, 2)));
      al (Mvn (R3, Reg R3));
      al (Add (SP, SP, Imm 0x10));
      al (Sub (R1, R2, Reg R3));
      al (Rsb (R0, R0, Imm 0));
      al (And (R0, R0, Imm 0xFF));
      al (Orr (R4, R4, Reg R5));
      al (Eor (R6, R6, Reg R6));
      al (Cmp (R0, Imm 63));
      al (Tst (R1, Reg R1));
      al (Ldr (R0, SP, 0x40));
      al (Ldr (LR, R11, -4));
      al (Str (R0, SP, -8));
      al (Ldrb (R3, R2, 1));
      al (Strb (R3, R2, -1));
      al (Push [ R4; R5; R11; LR ]);
      al (Pop [ R0; R1; R2; R3; R5; R6; R7; PC ]);
      al (Mul (R0, R1, R2));
      al (Mul (R4, R4, R4));
      al (Bic (R0, R1, Imm 0xFF));
      al (Bic (R2, R3, Reg R4));
      al (Ldr_r (R0, R1, R2));
      al (Str_r (R0, SP, R3));
      al (Ldrb_r (R5, R6, R7));
      al (Strb_r (R5, R6, R7));
      al (B 0x100);
      al (B (-0x100));
      al (Bl 0x7FFF00);
      al (Bx R12);
      al (Blx_r R3);
      al (Svc 0);
      { cond = EQ; op = B 16 };
      { cond = NE; op = Mov (R0, Imm 1) };
      { cond = LT; op = Add (R0, R0, Imm 1) };
    ]

let gen_insn : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Insn in
  let reg =
    oneofl [ R0; R1; R2; R3; R4; R5; R6; R7; R8; R9; R10; R11; R12; SP; LR; PC ]
  in
  let cond = oneofl [ EQ; NE; CS; CC; MI; PL; HI; LS; GE; LT; GT; LE; AL ] in
  let enc_imm =
    (* Generate guaranteed-encodable immediates: imm8 rotated. *)
    map2 (fun imm8 rot -> Word.ror imm8 (2 * rot)) (int_bound 255) (int_bound 15)
  in
  let op2 = oneof [ map (fun i -> Imm i) enc_imm; map (fun r -> Reg r) reg ] in
  let off = int_range (-0xFFF) 0xFFF in
  let reglist =
    (* Non-empty strictly-ascending register list. *)
    map
      (fun bits ->
        let bits = if bits land 0xFFFF = 0 then 1 else bits in
        List.filter_map
          (fun i -> if (bits lsr i) land 1 = 1 then Some (reg_of_index i) else None)
          (List.init 16 Fun.id))
      (int_range 1 0xFFFF)
  in
  let op =
    oneof
      [
        map2 (fun r o -> Mov (r, o)) reg op2;
        map2 (fun r o -> Mvn (r, o)) reg op2;
        map3 (fun d n o -> Add (d, n, o)) reg reg op2;
        map3 (fun d n o -> Sub (d, n, o)) reg reg op2;
        map3 (fun d n o -> Rsb (d, n, o)) reg reg op2;
        map3 (fun d n o -> And (d, n, o)) reg reg op2;
        map3 (fun d n o -> Orr (d, n, o)) reg reg op2;
        map3 (fun d n o -> Eor (d, n, o)) reg reg op2;
        map2 (fun n o -> Cmp (n, o)) reg op2;
        map2 (fun n o -> Tst (n, o)) reg op2;
        map3 (fun d n o -> Ldr (d, n, o)) reg reg off;
        map3 (fun d n o -> Str (d, n, o)) reg reg off;
        map3 (fun d n o -> Ldrb (d, n, o)) reg reg off;
        map3 (fun d n o -> Strb (d, n, o)) reg reg off;
        map3 (fun d n o -> Bic (d, n, o)) reg reg op2;
        map3 (fun d m s -> Mul (d, m, s)) reg reg reg;
        map3 (fun d n m -> Ldr_r (d, n, m)) reg reg reg;
        map3 (fun d n m -> Str_r (d, n, m)) reg reg reg;
        map3 (fun d n m -> Ldrb_r (d, n, m)) reg reg reg;
        map3 (fun d n m -> Strb_r (d, n, m)) reg reg reg;
        map (fun l -> Push l) reglist;
        map (fun l -> Pop l) reglist;
        map (fun d -> B (d * 4)) (int_range (-1000) 1000);
        map (fun d -> Bl (d * 4)) (int_range (-1000) 1000);
        map (fun r -> Bx r) reg;
        map (fun r -> Blx_r r) reg;
        map (fun n -> Svc n) (int_bound 0xFFFF);
      ]
  in
  map2 (fun cond op -> { cond; op }) cond op

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trip" ~count:2000
    (QCheck.make ~print:Insn.to_string gen_insn)
    (fun insn ->
      let w = Encode.encode_word insn in
      Insn.to_string (Decode.decode_word ~addr:0 w) = Insn.to_string insn)

let prop_imm_encoding_sound =
  QCheck.Test.make ~name:"modified-immediate encoding is sound" ~count:1000
    QCheck.(int_bound 0x3FFF_FFFF)
    (fun v ->
      match Encode.encode_imm v with
      | None -> true
      | Some (rot, imm8) -> Word.ror imm8 (2 * rot) = Word.of_int v && imm8 <= 0xFF)

let test_all_arm_conditions () =
  let open Insn in
  (* cmp a, b then a conditional mov per condition. *)
  let cases =
    [
      (EQ, (5, 5), (5, 6));
      (NE, (5, 6), (5, 5));
      (CS, (2, 1), (1, 2));  (* unsigned >= *)
      (CC, (1, 2), (2, 1));
      (MI, (1, 2), (2, 1));  (* negative result *)
      (PL, (2, 1), (1, 2));
      (HI, (2, 1), (1, 1));
      (LS, (1, 1), (2, 1));
      (GE, (1, 1), (-1, 1));
      (LT, (-1, 1), (1, 1));
      (GT, (2, 1), (1, 1));
      (LE, (1, 1), (2, 1));
    ]
  in
  List.iter
    (fun (c, (ta, tb), (fa, fb)) ->
      let probe a b expected =
        let load v r =
          Asm.I
            (if v >= 0 then al (Mov (r, Imm v)) else al (Mvn (r, Imm (-v - 1))))
        in
        let program =
          [
            load a R0;
            load b R1;
            Asm.I (al (Cmp (R0, Reg R1)));
            Asm.I (al (Mov (R2, Imm 0)));
            Asm.I { cond = c; op = Mov (R2, Imm 1) };
            halt;
          ]
        in
        let _, cpu, _ = setup program in
        ignore (run_to_halt cpu);
        check_int
          (Printf.sprintf "%s: %d vs %d" (cond_name c) a b)
          expected (Cpu.get cpu R2)
      in
      probe ta tb 1;
      probe fa fb 0)
    cases

let test_arm_code_across_page_boundary () =
  let open Insn in
  let program =
    List.init 1023 (fun _ -> Asm.I nop)
    @ [ Asm.I (al (Mov (R0, Imm 0x42))); halt ]
  in
  let _, cpu, _ = setup program in
  ignore (run ~fuel:10_000 ~kernel:halt_kernel cpu);
  check_int "mov across boundary" 0x42 (Cpu.get cpu R0)

(* --- interpreter semantics --- *)

let test_mov_add_sub () =
  let open Insn in
  let program =
    [
      Asm.I (al (Mov (R0, Imm 10)));
      Asm.I (al (Add (R1, R0, Imm 5)));
      Asm.I (al (Sub (R2, R1, Reg R0)));
      Asm.I (al (Rsb (R3, R0, Imm 0)));
      halt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "add" 15 (Cpu.get cpu R1);
  check_int "sub" 5 (Cpu.get cpu R2);
  check_int "rsb negates" (Word.of_int (-10)) (Cpu.get cpu R3)

let test_pc_reads_plus_8 () =
  let open Insn in
  let program = [ Asm.I (al (Mov (R0, Reg PC))); halt ] in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "pc+8" (text_base + 8) (Cpu.get cpu R0)

let test_literal_pool_ldr () =
  let open Insn in
  let program =
    [
      Asm.Ldr_sym (R0, "lit");
      halt;
      Asm.Label "lit";
      Asm.Word 0xDEADBEEF;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "literal loaded" 0xDEADBEEF (Cpu.get cpu R0)

let test_bl_sets_lr_and_returns () =
  let open Insn in
  let program =
    [
      Asm.I (al (Mov (R0, Imm 0)));
      Asm.Bl_sym "f";
      Asm.Bl_sym "f";
      halt;
      Asm.Label "f";
      Asm.I (al (Add (R0, R0, Imm 7)));
      Asm.I (al (Bx LR));
    ]
  in
  let _, cpu, _ = setup program in
  let outcome = run_to_halt cpu in
  check_bool "halted" true (outcome = O.Halted);
  check_int "called twice" 14 (Cpu.get cpu R0)

let test_push_pop_frame () =
  let open Insn in
  (* Standard ARM prologue/epilogue: push {fp, lr} … pop {fp, pc}. *)
  let program =
    [
      Asm.Bl_sym "f";
      halt;
      Asm.Label "f";
      Asm.I (al (Push [ R11; LR ]));
      Asm.I (al (Mov (R11, Reg SP)));
      Asm.I (al (Mov (R0, Imm 99)));
      Asm.I (al (Pop [ R11; PC ]));
    ]
  in
  let _, cpu, _ = setup program in
  let sp0 = Cpu.get cpu SP in
  let outcome = run_to_halt cpu in
  check_bool "returned via pop pc" true (outcome = O.Halted);
  check_int "result" 99 (Cpu.get cpu R0);
  check_int "sp balanced" sp0 (Cpu.get cpu SP)

let test_push_stores_ascending () =
  let open Insn in
  let program =
    [
      Asm.I (al (Mov (R0, Imm 1)));
      Asm.I (al (Mov (R1, Imm 2)));
      Asm.I (al (Push [ R0; R1 ]));
      halt;
    ]
  in
  let mem, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  let sp = Cpu.get cpu SP in
  (* Lowest register at lowest address (stmdb semantics). *)
  check_int "r0 at [sp]" 1 (Mem.read_u32 mem sp);
  check_int "r1 at [sp+4]" 2 (Mem.read_u32 mem (sp + 4))

let test_register_args_convention () =
  let open Insn in
  (* f(a, b) = a - b with args in r0/r1 — the AAPCS property that defeats
     classic ret2libc on ARM (§III-B2). *)
  let program =
    [
      Asm.I (al (Mov (R0, Imm 9)));
      Asm.I (al (Mov (R1, Imm 3)));
      Asm.Bl_sym "sub_fn";
      halt;
      Asm.Label "sub_fn";
      Asm.I (al (Sub (R0, R0, Reg R1)));
      Asm.I (al (Bx LR));
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "r0 result" 6 (Cpu.get cpu R0)

let test_conditional_execution () =
  let open Insn in
  let program =
    [
      Asm.I (al (Mov (R0, Imm 5)));
      Asm.I (al (Cmp (R0, Imm 5)));
      Asm.I { cond = EQ; op = Mov (R1, Imm 1) };
      Asm.I { cond = NE; op = Mov (R1, Imm 2) };
      Asm.I (al (Cmp (R0, Imm 9)));
      Asm.I { cond = LT; op = Mov (R2, Imm 1) };
      Asm.I { cond = GE; op = Mov (R2, Imm 2) };
      halt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "moveq taken" 1 (Cpu.get cpu R1);
  check_int "movlt taken" 1 (Cpu.get cpu R2)

let test_branch_loop () =
  let open Insn in
  (* Sum 1..10. *)
  let program =
    [
      Asm.I (al (Mov (R0, Imm 0)));
      Asm.I (al (Mov (R1, Imm 10)));
      Asm.Label "loop";
      Asm.I (al (Add (R0, R0, Reg R1)));
      Asm.I (al (Sub (R1, R1, Imm 1)));
      Asm.I (al (Cmp (R1, Imm 0)));
      Asm.B_sym (NE, "loop");
      halt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "sum" 55 (Cpu.get cpu R0)

let test_mul_bic_and_reg_offsets () =
  let open Insn in
  let program =
    [
      Asm.I (al (Mov (R0, Imm 6)));
      Asm.I (al (Mov (R1, Imm 7)));
      Asm.I (al (Mul (R2, R0, R1)));
      Asm.I (al (Mvn (R3, Imm 0)));
      Asm.I (al (Bic (R3, R3, Imm 0xFF)));
      (* store 0x2A via register offset, read it back *)
      Asm.Ldr_sym (R4, "buf");
      Asm.I (al (Mov (R5, Imm 8)));
      Asm.I (al (Mov (R6, Imm 0x2A)));
      Asm.I (al (Str_r (R6, R4, R5)));
      Asm.I (al (Ldr_r (R7, R4, R5)));
      halt;
      Asm.Label "buf";
      Asm.Word 0x7EFF_1000;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "mul" 42 (Cpu.get cpu R2);
  check_int "bic clears low byte" 0xFFFFFF00 (Cpu.get cpu R3);
  check_int "reg-offset round trip" 0x2A (Cpu.get cpu R7)

let test_byte_loads_stores () =
  let open Insn in
  let program =
    [
      Asm.I (al (Mov (R0, Imm 0x41)));
      Asm.Ldr_sym (R1, "buf_addr");
      Asm.I (al (Strb (R0, R1, 0)));
      Asm.I (al (Ldrb (R2, R1, 0)));
      halt;
      Asm.Label "buf_addr";
      Asm.Word 0x7EFF_1000;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "byte round trip" 0x41 (Cpu.get cpu R2)

let test_blx_r_links () =
  let open Insn in
  let program =
    [
      Asm.Ldr_sym (R3, "fptr");
      Asm.I (al (Blx_r R3));
      halt;
      Asm.Label "fptr";
      Asm.Word_sym "target";
      Asm.Label "target";
      Asm.I (al (Mov (R0, Imm 0x55)));
      Asm.I (al (Bx LR));
    ]
  in
  let _, cpu, _ = setup program in
  let outcome = run_to_halt cpu in
  check_bool "returned" true (outcome = O.Halted);
  check_int "blx reached target" 0x55 (Cpu.get cpu R0)

let test_svc_kernel () =
  let open Insn in
  let program =
    [
      Asm.I (al (Mov (R7, Imm 11)));
      Asm.I (al (Mov (R0, Imm 3)));
      Asm.I (al (Svc 0));
    ]
  in
  let _, cpu, _ = setup program in
  let kernel n cpu =
    check_int "svc imm" 0 n;
    if Cpu.get cpu R7 = 11 then O.Stop (O.Exited (Cpu.get cpu R0)) else O.Resume
  in
  check_bool "syscall dispatched" true (run ~kernel cpu = O.Exited 3)

let test_nx_fetch_blocked () =
  let open Insn in
  (* mov pc, sp: jump to the non-executable stack → NX fault. *)
  let program = [ Asm.I (al (Mov (PC, Reg SP))) ] in
  let _, cpu, _ = setup program in
  match run cpu with
  | O.Fault f -> check_bool "NX" true (f.Mem.kind = Mem.Perm_exec)
  | other -> Alcotest.failf "expected NX fault, got %s" (O.to_string other)

let test_undecodable_word () =
  let program = [ Asm.Word 0xE7F000F0 (* udf *) ] in
  let _, cpu, _ = setup program in
  match run cpu with
  | O.Decode_error _ -> ()
  | other -> Alcotest.failf "expected SIGILL, got %s" (O.to_string other)

let test_smashed_pop_pc_hijacks () =
  let open Insn in
  (* Overwrite the stacked return address consumed by pop {pc}. *)
  let program =
    [
      Asm.Bl_sym "victim";
      halt;
      Asm.Label "victim";
      Asm.I (al (Push [ LR ]));
      (* Smash the saved LR slot with &win. *)
      Asm.Ldr_sym (R0, "win_ptr");
      Asm.I (al (Str (R0, SP, 0)));
      Asm.I (al (Pop [ PC ]));
      Asm.Label "win_ptr";
      Asm.Word_sym "win";
      Asm.Label "win";
      Asm.I (al (Mov (R4, Imm 0x77)));
      halt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run_to_halt cpu);
  check_int "hijacked" 0x77 (Cpu.get cpu R4)

(* The hooked loop with the shadow-stack hook alone. *)
let run_shadow_stack cpu =
  let hook =
    Machine.Hook.enforce Cpu.isa ~shadow_stack:true ~forward_cfi:false
      ~valid_target:(fun _ -> true) ~shadow0:[]
  in
  Cpu.run ~traps:[] ~kernel:halt_kernel ~hooks:[ hook ] cpu

(* The veto lands before the smashed [pop {pc}] executes: [at] is the
   pop's own address and it does not count as a retired step. *)
let test_cfi_blocks_smashed_pop_pc () =
  let open Insn in
  let program =
    [
      Asm.Bl_sym "victim";
      Asm.Label "after";
      halt;
      Asm.Label "victim";
      Asm.I (al (Push [ LR ]));
      Asm.Ldr_sym (R0, "win_ptr");
      Asm.I (al (Str (R0, SP, 0)));
      Asm.Label "pop";
      Asm.I (al (Pop [ PC ]));
      Asm.Label "win_ptr";
      Asm.Word_sym "win";
      Asm.Label "win";
      halt;
    ]
  in
  let _, cpu, r = setup program in
  match run_shadow_stack cpu with
  | O.Cfi_violation { at; expected = O.Return_to expected; got } ->
      check_int "at the pop" (Asm.symbol r "pop") at;
      check_int "expected the bl's return" (Asm.symbol r "after") expected;
      check_int "got the smashed target" (Asm.symbol r "win") got;
      check_int "bl, push, ldr, str retired; the pop did not" 4 cpu.Cpu.steps;
      check_int "pc left on the pop" (Asm.symbol r "pop") (Cpu.pc cpu)
  | other -> Alcotest.failf "expected CFI violation, got %s" (O.to_string other)

let test_cfi_allows_benign_nesting () =
  let open Insn in
  let program =
    [
      Asm.Bl_sym "f";
      halt;
      Asm.Label "f";
      Asm.I (al (Push [ R4; LR ]));
      Asm.Bl_sym "g";
      Asm.I (al (Pop [ R4; PC ]));
      Asm.Label "g";
      Asm.I (al (Bx LR));
    ]
  in
  let _, cpu, _ = setup program in
  check_bool "benign ok" true (run_shadow_stack cpu = O.Halted)

let test_disassemble_sweep () =
  let open Insn in
  let program = [ Asm.I nop; Asm.I (al (Bx LR)) ] in
  let mem, _, result = setup program in
  let listing =
    Asm.disassemble mem ~base:result.Asm.base ~len:(String.length result.Asm.code)
  in
  Alcotest.(check (list string))
    "sweep"
    [ "mov r1, r1"; "bx lr" ]
    (List.map (fun (_, _, s) -> s) listing)

(* --- Self-modifying code through the decoded-instruction cache --- *)

(* Call a two-add function, [str] a mov-r0-r0 word over its first add
   (text mapped rwx for the test), call it again: the second call must
   execute the NEW word, so r0 ends at 2+1=3.  The stale-cache failure
   mode re-runs the cached add and ends at 4. *)
let selfmod_program =
  let open Insn in
  [
    Asm.I (al (Mov (R0, Imm 0)));
    Asm.Bl_sym "fn";
    Asm.Ldr_sym (R4, "lit_site");
    Asm.Ldr_sym (R5, "lit_nop");
    Asm.I (al (Str (R5, R4, 0)));
    Asm.Bl_sym "fn";
    halt;
    Asm.Label "fn";
    Asm.Label "site";
    Asm.I (al (Add (R0, R0, Imm 1)));
    Asm.I (al (Add (R0, R0, Imm 1)));
    Asm.I (al (Bx LR));
    Asm.Label "lit_site";
    Asm.Word_sym "site";
    Asm.Label "lit_nop";
    Asm.Word 0xE1A0_0000 (* mov r0, r0 *);
  ]

let run_selfmod ~icache =
  let mem = Mem.create () in
  let result = Asm.assemble ~base:text_base selfmod_program in
  let size = max 0x1000 (String.length result.Asm.code) in
  Mem.map mem ~base:text_base ~size ~perm:Mem.rwx ~name:"text";
  Mem.poke_bytes mem text_base result.Asm.code;
  Mem.map mem ~base:0x7EFF_0000 ~size:0x10000 ~perm:Mem.rw ~name:"stack";
  let cpu =
    Cpu.create ~icache:(if icache then Some (Cpu.new_icache ()) else None) mem
  in
  Cpu.set cpu Insn.SP 0x7EFF_F000;
  Cpu.set_pc cpu text_base;
  let outcome = run ~kernel:halt_kernel cpu in
  check_bool "halted" true (outcome = O.Halted);
  cpu

let test_selfmod_invalidates_icache () =
  let cached = run_selfmod ~icache:true in
  check_int "second call ran the overwritten word" 3 (Cpu.get cached Insn.R0);
  let uncached = run_selfmod ~icache:false in
  check_int "identical to uncached execution" (Cpu.get uncached Insn.R0)
    (Cpu.get cached Insn.R0);
  check_int "identical step counts" uncached.Cpu.steps cached.Cpu.steps

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "isa_arm"
    [
      ( "encoding",
        [
          Alcotest.test_case "known instruction words" `Quick test_known_words;
          Alcotest.test_case "modified-immediate encoding" `Quick test_imm_encoding;
          Alcotest.test_case "round-trip corpus" `Quick test_roundtrip_corpus;
          qt prop_encode_decode_roundtrip;
          qt prop_imm_encoding_sound;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "mov/add/sub/rsb" `Quick test_mov_add_sub;
          Alcotest.test_case "pc reads as +8" `Quick test_pc_reads_plus_8;
          Alcotest.test_case "literal pool ldr" `Quick test_literal_pool_ldr;
          Alcotest.test_case "bl sets lr, bx lr returns" `Quick
            test_bl_sets_lr_and_returns;
          Alcotest.test_case "push/pop frame" `Quick test_push_pop_frame;
          Alcotest.test_case "push stores ascending" `Quick test_push_stores_ascending;
          Alcotest.test_case "register-argument convention" `Quick
            test_register_args_convention;
          Alcotest.test_case "conditional execution" `Quick test_conditional_execution;
          Alcotest.test_case "all condition codes" `Quick test_all_arm_conditions;
          Alcotest.test_case "code across page boundary" `Quick
            test_arm_code_across_page_boundary;
          Alcotest.test_case "branch loop" `Quick test_branch_loop;
          Alcotest.test_case "mul/bic/register offsets" `Quick
            test_mul_bic_and_reg_offsets;
          Alcotest.test_case "byte loads/stores" `Quick test_byte_loads_stores;
          Alcotest.test_case "blx register links" `Quick test_blx_r_links;
          Alcotest.test_case "svc kernel dispatch" `Quick test_svc_kernel;
          Alcotest.test_case "NX fetch blocked" `Quick test_nx_fetch_blocked;
          Alcotest.test_case "undecodable word" `Quick test_undecodable_word;
          Alcotest.test_case "disassemble sweep" `Quick test_disassemble_sweep;
        ] );
      ( "control-flow hijack",
        [
          Alcotest.test_case "smashed pop pc hijacks" `Quick
            test_smashed_pop_pc_hijacks;
          Alcotest.test_case "CFI blocks smashed pop pc" `Quick
            test_cfi_blocks_smashed_pop_pc;
          Alcotest.test_case "CFI allows benign nesting" `Quick
            test_cfi_allows_benign_nesting;
        ] );
      ( "self-modifying code",
        [
          Alcotest.test_case "rewrite invalidates icache" `Quick
            test_selfmod_invalidates_icache;
        ] );
    ]
