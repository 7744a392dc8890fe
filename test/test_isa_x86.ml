(* Tests for the x86-32 assembler, decoder, and interpreter. *)

module Mem = Memsim.Memory
module Word = Memsim.Word
open Isa_x86
module O = Machine.Outcome

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_kernel _n _cpu = O.Stop (O.Aborted "unexpected syscall")

(* Assemble a program at a base, map text rx + a stack, return (mem, cpu,
   result).  The program is expected to end by running into [trap]. *)
let setup ?extern program =
  let mem = Mem.create () in
  let text_base = 0x0804_8000 in
  let result = Asm.assemble ?extern ~base:text_base program in
  let size = max 0x1000 (String.length result.Asm.code) in
  Mem.map mem ~base:text_base ~size ~perm:Mem.rx ~name:"text";
  Mem.poke_bytes mem text_base result.Asm.code;
  Mem.map mem ~base:0xBFFF_0000 ~size:0x10000 ~perm:Mem.rw ~name:"stack";
  let cpu = Cpu.create ~icache:(Some (Cpu.new_icache ())) mem in
  Cpu.set cpu Insn.ESP 0xBFFF_F000;
  cpu.Cpu.eip <- text_base;
  (mem, cpu, result)

let run ?fuel ?(kernel = no_kernel) cpu =
  Cpu.run ?fuel ~traps:[] ~kernel ~hooks:[] cpu

(* The hooked loop with the shadow-stack hook alone. *)
let run_shadow_stack cpu =
  let hook =
    Machine.Hook.enforce Cpu.isa ~shadow_stack:true ~forward_cfi:false
      ~valid_target:(fun _ -> true) ~shadow0:[]
  in
  Cpu.run ~traps:[] ~kernel:no_kernel ~hooks:[ hook ] cpu

(* --- encode/decode --- *)

let roundtrip insn =
  let bytes = Encode.encode insn in
  let got, len = Decode.decode_with (fun i -> Char.code bytes.[i]) 0 in
  Alcotest.(check int) ("length of " ^ Insn.to_string insn) (String.length bytes) len;
  Alcotest.(check string)
    ("round-trip " ^ Insn.to_string insn)
    (Insn.to_string insn) (Insn.to_string got)

let test_encode_known_bytes () =
  let check_hex name insn expected =
    let got =
      String.concat ""
        (List.map (Printf.sprintf "%02x")
           (List.init (String.length (Encode.encode insn)) (fun i ->
                Char.code (Encode.encode insn).[i])))
    in
    Alcotest.(check string) name expected got
  in
  (* Ground truth from the IA-32 manual / nasm. *)
  check_hex "nop" Insn.Nop "90";
  check_hex "push eax" (Insn.Push_r Insn.EAX) "50";
  check_hex "pop ebx" (Insn.Pop_r Insn.EBX) "5b";
  check_hex "ret" Insn.Ret "c3";
  check_hex "leave" Insn.Leave "c9";
  check_hex "int 0x80" (Insn.Int 0x80) "cd80";
  check_hex "push 0x68732f" (Insn.Push_i 0x68732F) "682f736800";
  check_hex "mov eax, 0xb" (Insn.Mov_ri (Insn.EAX, 0xB)) "b80b000000";
  check_hex "push byte 1" (Insn.Push_i8 1) "6a01";
  check_hex "jmp short -2" (Insn.Jmp_short (-2)) "ebfe";
  check_hex "neg eax" (Insn.Neg (Insn.Reg Insn.EAX)) "f7d8";
  check_hex "not ecx" (Insn.Not (Insn.Reg Insn.ECX)) "f7d1";
  check_hex "imul eax, ecx" (Insn.Imul (Insn.EAX, Insn.Reg Insn.ECX)) "0fafc1";
  check_hex "mov ebx, esp" (Insn.Mov (Insn.Reg Insn.EBX, Insn.Reg Insn.ESP)) "89e3";
  check_hex "xor ecx, ecx" (Insn.Xor (Insn.Reg Insn.ECX, Insn.Reg Insn.ECX)) "31c9";
  check_hex "mov ebp, esp" (Insn.Mov (Insn.Reg Insn.EBP, Insn.Reg Insn.ESP)) "89e5";
  check_hex "mov eax,[ebp+8]"
    (Insn.Mov (Insn.Reg Insn.EAX, Insn.Mem { base = Some Insn.EBP; disp = 8 }))
    "8b4508";
  check_hex "mov [esp+4], eax"
    (Insn.Mov (Insn.Mem { base = Some Insn.ESP; disp = 4 }, Insn.Reg Insn.EAX))
    "89442404";
  check_hex "call rel32 0" (Insn.Call_rel 0) "e800000000";
  check_hex "jmp [0x0804a000]"
    (Insn.Jmp_rm (Insn.Mem { base = None; disp = 0x0804A000 }))
    "ff2500a00408"

let test_pop_pop_pop_ret_bytes () =
  (* The gadget shape §III-C1 hunts for. *)
  let bytes =
    String.concat ""
      [
        Encode.encode (Insn.Pop_r Insn.EBX);
        Encode.encode (Insn.Pop_r Insn.ESI);
        Encode.encode (Insn.Pop_r Insn.EDI);
        Encode.encode Insn.Ret;
      ]
  in
  Alcotest.(check string) "pppr" "\x5b\x5e\x5f\xc3" bytes

let all_regs = Insn.[ EAX; ECX; EDX; EBX; ESP; EBP; ESI; EDI ]

let test_roundtrip_corpus () =
  let open Insn in
  let mems =
    [
      { base = None; disp = 0x0804A123 };
      { base = Some EAX; disp = 0 };
      { base = Some EBP; disp = -8 };
      { base = Some EBP; disp = 0 };
      { base = Some ESP; disp = 0 };
      { base = Some ESP; disp = 4 };
      { base = Some ESP; disp = 0x220 };
      { base = Some ESI; disp = 0x1000 };
      { base = Some EDI; disp = -300 };
    ]
  in
  List.iter (fun r -> roundtrip (Push_r r)) all_regs;
  List.iter (fun r -> roundtrip (Pop_r r)) all_regs;
  List.iter (fun r -> roundtrip (Inc_r r)) all_regs;
  List.iter (fun r -> roundtrip (Dec_r r)) all_regs;
  List.iter (fun m -> roundtrip (Push_m m)) mems;
  List.iter
    (fun m ->
      roundtrip (Mov (Reg EAX, Mem m));
      roundtrip (Mov (Mem m, Reg ECX));
      roundtrip (Lea (EDX, m));
      roundtrip (Add (Mem m, Reg EBX));
      roundtrip (Cmp_i (Mem m, 1234567)))
    mems;
  List.iter roundtrip
    [
      Nop;
      Push_i 0xDEADBEEF;
      Mov_ri (ECX, 0x11223344);
      Mov (Reg EAX, Reg EBX);
      Mov_b (Reg EAX, Reg ECX);
      Mov_b (Mem { base = Some EDI; disp = 2 }, Reg EAX);
      Movzx_b (EAX, Mem { base = Some ESI; disp = 0 });
      Movzx_b (EBX, Reg ECX);
      Add_i (Reg ESP, 0xC);
      Add_i (Reg ESP, 0x1000);
      Sub_i (Reg ESP, 0x420);
      Sub (Reg EAX, Reg EBX);
      And (Reg EAX, Reg EBX);
      Or (Reg EAX, Reg EBX);
      Xor (Reg ECX, Reg ECX);
      Cmp (Reg EAX, Reg EBX);
      Cmp_i (Reg EAX, 63);
      Test_rr (EAX, EAX);
      Push_i8 (-1);
      Push_i8 127;
      Mov_mi (Reg EAX, 0x11223344);
      Mov_mi (Mem { base = Some EBP; disp = -8 }, 42);
      Neg (Reg EBX);
      Not (Mem { base = Some ESI; disp = 4 });
      Imul (ECX, Reg EDX);
      Imul (EAX, Mem { base = Some EBP; disp = 8 });
      Jmp_short 10;
      Jmp_short (-10);
      Jcc_short (E, 5);
      Jcc_short (NE, -5);
      Shl_i (EDX, 8);
      Shr_i (EDX, 24);
      Call_rel 1234;
      Call_rel (-1234);
      Call_rm (Reg EAX);
      Call_rm (Mem { base = None; disp = 0x0804C000 });
      Jmp_rel (-5);
      Jmp_rm (Reg ESP);
      Jcc (E, 16);
      Jcc (NE, -32);
      Jcc (B, 7);
      Jcc (A, 7);
      Jcc (L, 7);
      Jcc (GE, 7);
      Ret;
      Ret_i 8;
      Leave;
      Int 0x80;
      Hlt;
    ]

let gen_insn : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Insn in
  let reg = oneofl all_regs in
  let imm = map Word.to_signed (int_bound 0xFFFFFF) in
  let mem =
    map2
      (fun base disp -> { base; disp })
      (oneof [ return None; map Option.some reg ])
      (int_range (-2048) 2048)
  in
  let operand = oneof [ map (fun r -> Reg r) reg; map (fun m -> Mem m) mem ] in
  let rm_pair =
    (* At most one memory operand. *)
    oneof
      [
        map2 (fun a b -> (Reg a, Reg b)) reg reg;
        map2 (fun m r -> (Mem m, Reg r)) mem reg;
        map2 (fun r m -> (Reg r, Mem m)) reg mem;
      ]
  in
  oneof
    [
      return Nop;
      map (fun r -> Push_r r) reg;
      map (fun i -> Push_i i) imm;
      map (fun m -> Push_m m) mem;
      map (fun r -> Pop_r r) reg;
      map2 (fun r i -> Mov_ri (r, i)) reg imm;
      map (fun (d, s) -> Mov (d, s)) rm_pair;
      map2 (fun r m -> Lea (r, m)) reg mem;
      map (fun (d, s) -> Add (d, s)) rm_pair;
      map2 (fun o i -> Add_i (o, i)) operand imm;
      map (fun (d, s) -> Sub (d, s)) rm_pair;
      map2 (fun o i -> Sub_i (o, i)) operand imm;
      map (fun (d, s) -> Xor (d, s)) rm_pair;
      map (fun (d, s) -> Cmp (d, s)) rm_pair;
      map2 (fun o i -> Cmp_i (o, i)) operand imm;
      map2 (fun a b -> Test_rr (a, b)) reg reg;
      map (fun i -> Push_i8 (Word.to_signed (Word.sign8 (i land 0xFF)))) imm;
      map2 (fun o i -> Mov_mi (o, i)) operand imm;
      map (fun o -> Neg o) operand;
      map (fun o -> Not o) operand;
      map2 (fun r o -> Imul (r, o)) reg operand;
      map (fun i -> Jmp_short (Word.to_signed (Word.sign8 (i land 0xFF)))) imm;
      map (fun i -> Jcc_short (E, Word.to_signed (Word.sign8 (i land 0xFF)))) imm;
      map (fun r -> Inc_r r) reg;
      map (fun r -> Dec_r r) reg;
      map (fun i -> Call_rel i) imm;
      map (fun o -> Call_rm o) operand;
      map (fun i -> Jmp_rel i) imm;
      map (fun o -> Jmp_rm o) operand;
      return Ret;
      map (fun i -> Ret_i (i land 0xFFFF)) imm;
      return Leave;
      map (fun i -> Int (i land 0xFF)) imm;
      return Hlt;
    ]

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trip" ~count:2000
    (QCheck.make ~print:Insn.to_string gen_insn)
    (fun insn ->
      let bytes = Encode.encode insn in
      let got, len = Decode.decode_with (fun i -> Char.code bytes.[i]) 0 in
      len = String.length bytes && Insn.to_string got = Insn.to_string insn)

let prop_decoded_length_positive =
  QCheck.Test.make ~name:"decode consumes at least one byte" ~count:500
    QCheck.(string_of_size (Gen.return 16))
    (fun s ->
      QCheck.assume (String.length s = 16);
      match Decode.decode_with (fun i -> Char.code s.[i land 15]) 0 with
      | _, len -> len >= 1 && len <= 16
      | exception Decode.Error _ -> true)

let test_ret_imm_and_indirect_calls () =
  let open Insn in
  (* callee: stdcall-style ret 8 cleaning its own args; caller reaches it
     through a function-pointer table in memory (the PLT shape). *)
  let program =
    [
      Asm.I (Push_i 3);
      Asm.I (Push_i 4);
      Asm.I (Call_rm (Mem { base = None; disp = 0xBFFF_1000 }));
      Asm.I Hlt;
      Asm.Label "callee";
      Asm.I (Mov (Reg EAX, Mem { base = Some ESP; disp = 4 }));
      Asm.I (Add (Reg EAX, Mem { base = Some ESP; disp = 8 }));
      Asm.I (Ret_i 8);
    ]
  in
  let mem, cpu, result = setup program in
  Mem.write_u32 mem 0xBFFF_1000 (Asm.symbol result "callee");
  let sp0 = Cpu.get cpu ESP in
  let outcome = run cpu in
  check_bool "halted" true (outcome = O.Halted);
  check_int "sum" 7 (Cpu.get cpu EAX);
  check_int "ret imm cleaned args" sp0 (Cpu.get cpu ESP)

let test_push_m_and_jmp_rm_mem () =
  let open Insn in
  let program =
    [
      Asm.I (Jmp_rm (Mem { base = None; disp = 0xBFFF_2000 }));
      Asm.I Hlt;
      (* fall-through trap: should be skipped *)
      Asm.Label "land";
      Asm.I (Push_m { base = None; disp = 0xBFFF_2004 });
      Asm.I (Pop_r EDX);
      Asm.I Hlt;
    ]
  in
  let mem, cpu, result = setup program in
  Mem.write_u32 mem 0xBFFF_2000 (Asm.symbol result "land");
  Mem.write_u32 mem 0xBFFF_2004 0xFEEDFACE;
  ignore (run cpu);
  check_int "jmp [mem] + push [mem]" 0xFEEDFACE (Cpu.get cpu EDX)

let test_all_condition_codes_roundtrip_and_hold () =
  let open Insn in
  (* For each condition: set flags with a cmp that makes it true and one
     that makes it false; the interpreter must agree with IA-32 tables. *)
  let cases =
    [
      (* cond, (a, b) making it true, (a', b') making it false *)
      (E, (5, 5), (5, 6));
      (NE, (5, 6), (5, 5));
      (B, (1, 2), (2, 1));
      (AE, (2, 1), (1, 2));
      (BE, (2, 2), (3, 2));
      (A, (3, 2), (2, 2));
      (L, (-1, 0), (0, -1));
      (GE, (0, -1), (-1, 0));
      (LE, (-1, -1), (0, -1));
      (G, (0, -1), (-1, -1));
      (S, (0, 1), (1, 0));
      (NS, (1, 0), (0, 1));
    ]
  in
  List.iter
    (fun (c, (ta, tb), (fa, fb)) ->
      let probe a b expected =
        let program =
          [
            Asm.I (Mov_ri (EAX, a));
            Asm.I (Mov_ri (ECX, b));
            Asm.I (Cmp (Reg EAX, Reg ECX));
            Asm.I (Mov_ri (EDX, 0));
            Asm.Jcc (c, "taken");
            Asm.I Hlt;
            Asm.Label "taken";
            Asm.I (Mov_ri (EDX, 1));
            Asm.I Hlt;
          ]
        in
        let _, cpu, _ = setup program in
        ignore (run cpu);
        check_int (Printf.sprintf "j%s %d?%d" (cond_name c) a b) expected
          (Cpu.get cpu EDX)
      in
      probe ta tb 1;
      probe fa fb 0)
    cases

let test_code_across_page_boundary () =
  (* Instructions straddling a page boundary must fetch correctly. *)
  let open Insn in
  let program =
    [ Asm.Bytes (String.make 4093 '\x90'); Asm.I (Mov_ri (EAX, 0x1234)); Asm.I Hlt ]
  in
  let _, cpu, _ = setup program in
  ignore (run ~fuel:10_000 cpu);
  check_int "mov across boundary" 0x1234 (Cpu.get cpu EAX)

let prop_assemble_disassemble_stream =
  (* Straight-line programs (no control flow) must round-trip through
     assemble → memory → linear-sweep disassembly. *)
  let straight =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (oneof
           [
             map (fun r -> Insn.Push_r r) (oneofl all_regs);
             map (fun r -> Insn.Pop_r r) (oneofl all_regs);
             map2 (fun r i -> Insn.Mov_ri (r, i)) (oneofl all_regs)
               (int_bound 0xFFFFF);
             map2
               (fun d s -> Insn.Mov (Insn.Reg d, Insn.Reg s))
               (oneofl all_regs) (oneofl all_regs);
             return Insn.Nop;
             return Insn.Ret;
           ]))
  in
  QCheck.Test.make ~name:"assemble/disassemble stream identity" ~count:200
    (QCheck.make straight)
    (fun insns ->
      let program = List.map (fun i -> Asm.I i) insns in
      let mem = Mem.create () in
      let result = Asm.assemble ~base:0x1000 program in
      Mem.map mem ~base:0x1000
        ~size:(max 0x1000 (String.length result.Asm.code))
        ~perm:Mem.rx ~name:"t";
      Mem.poke_bytes mem 0x1000 result.Asm.code;
      let listing =
        Asm.disassemble mem ~base:0x1000 ~len:(String.length result.Asm.code)
      in
      List.map (fun (_, _, _, s) -> s) listing
      = List.map Insn.to_string insns)

(* --- assembler --- *)

let test_asm_labels_and_calls () =
  let open Insn in
  let program =
    [
      Asm.Label "main";
      Asm.I (Mov_ri (EAX, 0));
      Asm.Call "add_five";
      Asm.Call "add_five";
      Asm.I Hlt;
      Asm.Label "add_five";
      Asm.I (Add_i (Reg EAX, 5));
      Asm.I Ret;
    ]
  in
  let _, cpu, result = setup program in
  check_bool "symbols defined" true (Asm.symbol result "add_five" > Asm.symbol result "main");
  let outcome = run cpu in
  check_bool "halted" true (outcome = O.Halted);
  check_int "two calls executed" 10 (Cpu.get cpu EAX)

let test_asm_backward_jump_loop () =
  let open Insn in
  (* Sum 1..10 with a conditional backward jump. *)
  let program =
    [
      Asm.I (Mov_ri (EAX, 0));
      Asm.I (Mov_ri (ECX, 10));
      Asm.Label "loop";
      Asm.I (Add (Reg EAX, Reg ECX));
      Asm.I (Dec_r ECX);
      Asm.I (Cmp_i (Reg ECX, 0));
      Asm.Jcc (NE, "loop");
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "sum" 55 (Cpu.get cpu EAX)

let test_asm_word_sym_and_align () =
  let program =
    [
      Asm.I Insn.Hlt;
      Asm.Align 16;
      Asm.Label "table";
      Asm.Word 0x11223344;
      Asm.Word_sym "table";
      Asm.Bytes "/bin/sh\x00";
      Asm.Label "end";
    ]
  in
  let result = Asm.assemble ~base:0x1000 program in
  let table = Asm.symbol result "table" in
  check_int "aligned" 0 (table land 15);
  check_int "end" (table + 16) (Asm.symbol result "end");
  (* Word_sym points at table itself. *)
  let off = table - 0x1000 + 4 in
  let w =
    Char.code result.Asm.code.[off]
    lor (Char.code result.Asm.code.[off + 1] lsl 8)
    lor (Char.code result.Asm.code.[off + 2] lsl 16)
    lor (Char.code result.Asm.code.[off + 3] lsl 24)
  in
  check_int "word_sym resolved" table w

let test_asm_undefined_symbol () =
  Alcotest.check_raises "undefined" (Failure "Asm: undefined symbol nowhere")
    (fun () -> ignore (Asm.assemble ~base:0 [ Asm.Call "nowhere" ]))

let test_asm_duplicate_symbol () =
  Alcotest.check_raises "duplicate" (Failure "Asm: duplicate symbol a") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.Label "a"; Asm.Label "a" ]))

(* --- interpreter semantics --- *)

let test_stack_push_pop () =
  let open Insn in
  let program =
    [
      Asm.I (Push_i 0x1111);
      Asm.I (Push_i 0x2222);
      Asm.I (Pop_r EAX);
      Asm.I (Pop_r EBX);
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  let sp0 = Cpu.get cpu ESP in
  ignore (run cpu);
  check_int "LIFO a" 0x2222 (Cpu.get cpu EAX);
  check_int "LIFO b" 0x1111 (Cpu.get cpu EBX);
  check_int "esp restored" sp0 (Cpu.get cpu ESP)

let test_cdecl_call_frame () =
  let open Insn in
  (* int add(a, b) { return a + b; } called as add(3, 4) — the cdecl
     convention the x86 exploits manipulate. *)
  let program =
    [
      Asm.I (Push_i 4);
      Asm.I (Push_i 3);
      Asm.Call "add";
      Asm.I (Add_i (Reg ESP, 8));
      Asm.I Hlt;
      Asm.Label "add";
      Asm.I (Push_r EBP);
      Asm.I (Mov (Reg EBP, Reg ESP));
      Asm.I (Mov (Reg EAX, Mem { base = Some EBP; disp = 8 }));
      Asm.I (Add (Reg EAX, Mem { base = Some EBP; disp = 12 }));
      Asm.I (Pop_r EBP);
      Asm.I Ret;
    ]
  in
  let _, cpu, _ = setup program in
  let sp0 = Cpu.get cpu ESP in
  let outcome = run cpu in
  check_bool "halted" true (outcome = O.Halted);
  check_int "sum" 7 (Cpu.get cpu EAX);
  check_int "caller cleaned stack" sp0 (Cpu.get cpu ESP)

let test_leave_epilogue () =
  let open Insn in
  let program =
    [
      Asm.Call "f";
      Asm.I Hlt;
      Asm.Label "f";
      Asm.I (Push_r EBP);
      Asm.I (Mov (Reg EBP, Reg ESP));
      Asm.I (Sub_i (Reg ESP, 0x40));
      Asm.I Leave;
      Asm.I Ret;
    ]
  in
  let _, cpu, _ = setup program in
  let sp0 = Cpu.get cpu ESP in
  let ebp0 = Cpu.get cpu EBP in
  ignore (run cpu);
  check_int "esp balanced" sp0 (Cpu.get cpu ESP);
  check_int "ebp restored" ebp0 (Cpu.get cpu EBP)

let test_new_arithmetic_semantics () =
  let open Insn in
  let program =
    [
      Asm.I (Mov_ri (EAX, 6));
      Asm.I (Mov_ri (ECX, 7));
      Asm.I (Imul (EAX, Reg ECX));
      Asm.I (Mov_ri (EBX, 5));
      Asm.I (Neg (Reg EBX));
      Asm.I (Mov_ri (EDX, 0));
      Asm.I (Not (Reg EDX));
      Asm.I (Push_i8 (-1));
      Asm.I (Pop_r ESI);
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "imul" 42 (Cpu.get cpu EAX);
  check_int "neg" (Word.of_int (-5)) (Cpu.get cpu EBX);
  check_int "not" 0xFFFFFFFF (Cpu.get cpu EDX);
  check_int "push imm8 sign-extends" 0xFFFFFFFF (Cpu.get cpu ESI)

let test_byte_ops_and_movzx () =
  let open Insn in
  let program =
    [
      Asm.I (Mov_ri (EAX, 0x11223344));
      Asm.I (Mov_ri (EDI, 0xBFFF_1000));
      Asm.I (Mov_b (Mem { base = Some EDI; disp = 0 }, EAX |> fun r -> Reg r));
      Asm.I (Movzx_b (EBX, Mem { base = Some EDI; disp = 0 }));
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "low byte stored and zero-extended" 0x44 (Cpu.get cpu EBX)

let test_flags_and_conditions () =
  let open Insn in
  let program =
    [
      Asm.I (Mov_ri (EAX, 5));
      Asm.I (Cmp_i (Reg EAX, 5));
      Asm.Jcc (E, "eq");
      Asm.I (Mov_ri (EBX, 0));
      Asm.I Hlt;
      Asm.Label "eq";
      Asm.I (Mov_ri (EBX, 1));
      (* Unsigned comparison: 2 < 0xFFFFFFFF. *)
      Asm.I (Mov_ri (EAX, 2));
      Asm.I (Cmp_i (Reg EAX, -1));
      Asm.Jcc (B, "below");
      Asm.I (Mov_ri (ECX, 0));
      Asm.I Hlt;
      Asm.Label "below";
      Asm.I (Mov_ri (ECX, 1));
      (* Signed comparison: 2 > -1. *)
      Asm.I (Cmp_i (Reg EAX, -1));
      Asm.Jcc (G, "greater");
      Asm.I (Mov_ri (EDX, 0));
      Asm.I Hlt;
      Asm.Label "greater";
      Asm.I (Mov_ri (EDX, 1));
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "jz taken" 1 (Cpu.get cpu EBX);
  check_int "jb unsigned" 1 (Cpu.get cpu ECX);
  check_int "jg signed" 1 (Cpu.get cpu EDX)

let test_syscall_dispatch () =
  let open Insn in
  let program = [ Asm.I (Mov_ri (EAX, 1)); Asm.I (Mov_ri (EBX, 42)); Asm.I (Int 0x80) ] in
  let _, cpu, _ = setup program in
  let kernel n cpu =
    check_int "vector" 0x80 n;
    match Cpu.get cpu EAX with
    | 1 -> O.Stop (O.Exited (Cpu.get cpu EBX))
    | _ -> O.Resume
  in
  let outcome = run ~kernel cpu in
  check_bool "exit(42)" true (outcome = O.Exited 42)

let test_fuel_exhaustion () =
  let program = [ Asm.Label "spin"; Asm.Jmp "spin" ] in
  let _, cpu, _ = setup program in
  let outcome = run ~fuel:1000 cpu in
  check_bool "hang detected" true (outcome = O.Fuel_exhausted)

let test_unmapped_eip_faults () =
  let program = [ Asm.I (Insn.Jmp_rm (Insn.Reg Insn.EAX)) ] in
  let _, cpu, _ = setup program in
  Cpu.set cpu Insn.EAX 0x5000_0000;
  match run cpu with
  | O.Fault f -> check_bool "unmapped" true (f.Mem.kind = Mem.Unmapped)
  | other -> Alcotest.failf "expected fault, got %s" (O.to_string other)

let test_nx_stack_blocks_execution () =
  (* Jumping to rw- stack memory must fault on fetch: the W⊕X mechanism. *)
  let program = [ Asm.I (Insn.Jmp_rm (Insn.Reg Insn.ESP)) ] in
  let _, cpu, _ = setup program in
  match run cpu with
  | O.Fault f -> check_bool "NX fault" true (f.Mem.kind = Mem.Perm_exec)
  | other -> Alcotest.failf "expected NX fault, got %s" (O.to_string other)

let test_illegal_instruction () =
  let program = [ Asm.Bytes "\x06" ] (* push es — outside the subset *) in
  let _, cpu, _ = setup program in
  match run cpu with
  | O.Decode_error { byte; _ } -> check_int "bad byte" 0x06 byte
  | other -> Alcotest.failf "expected SIGILL, got %s" (O.to_string other)

let test_ret_into_overwritten_address () =
  let open Insn in
  (* A hand-made "smashed return": overwrite the saved return address on the
     stack and observe the hijack — the primitive behind every exploit in
     the paper. *)
  let program =
    [
      Asm.Call "victim";
      Asm.I Hlt;
      (* never reached *)
      Asm.Label "victim";
      (* Overwrite [esp] (the saved return address) with &win. *)
      Asm.Mov_ri_sym (EAX, "win");
      Asm.I (Mov (Mem { base = Some ESP; disp = 0 }, Reg EAX));
      Asm.I Ret;
      Asm.Label "win";
      Asm.I (Mov_ri (EBX, 0x31337));
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "control-flow hijacked" 0x31337 (Cpu.get cpu EBX)

(* The veto lands before the smashed [ret] executes: [at] is the ret's
   own address and it does not count as a retired step. *)
let test_cfi_blocks_smashed_return () =
  let open Insn in
  let program =
    [
      Asm.Call "victim";
      Asm.Label "after";
      Asm.I Hlt;
      Asm.Label "victim";
      Asm.Mov_ri_sym (EAX, "win");
      Asm.I (Mov (Mem { base = Some ESP; disp = 0 }, Reg EAX));
      Asm.Label "ret";
      Asm.I Ret;
      Asm.Label "win";
      Asm.I Hlt;
    ]
  in
  let _, cpu, r = setup program in
  match run_shadow_stack cpu with
  | O.Cfi_violation { at; expected = O.Return_to expected; got } ->
      check_int "at the ret" (Asm.symbol r "ret") at;
      check_int "expected the call's return" (Asm.symbol r "after") expected;
      check_int "got the smashed target" (Asm.symbol r "win") got;
      check_int "call, mov, mov retired; the ret did not" 3 cpu.Cpu.steps;
      check_int "eip left on the ret" (Asm.symbol r "ret") cpu.Cpu.eip
  | other -> Alcotest.failf "expected CFI violation, got %s" (O.to_string other)

(* The other two vetoes say what they are: a return with nothing on
   the shadow stack, and an indirect jump outside the policy set. *)
let test_cfi_reports_what_it_expected () =
  let open Insn in
  let run ~forward program =
    let _, cpu, r = setup program in
    let hook =
      Machine.Hook.enforce Cpu.isa ~shadow_stack:true ~forward_cfi:forward
        ~valid_target:(fun _ -> false) ~shadow0:[]
    in
    (r, Cpu.run ~traps:[] ~kernel:no_kernel ~hooks:[ hook ] cpu)
  in
  (match run ~forward:false [ Asm.I Ret ] with
  | r, (O.Cfi_violation { at; expected = O.Empty_shadow_stack; got } as o) ->
      check_int "at the ret" r.Asm.base at;
      Alcotest.(check string)
        "empty shadow stack"
        (Format.asprintf "CFI violation at %a: return to %a but shadow stack empty"
           Memsim.Word.pp at Memsim.Word.pp got)
        (O.to_string o)
  | _, other -> Alcotest.failf "expected an empty-shadow-stack veto, got %s" (O.to_string other));
  match
    run ~forward:true
      [ Asm.Mov_ri_sym (EAX, "win"); Asm.Label "jmp"; Asm.I (Jmp_rm (Reg EAX)); Asm.Label "win"; Asm.I Hlt ]
  with
  | r, (O.Cfi_violation { at; expected = O.Valid_target; got } as o) ->
      check_int "at the jump" (Asm.symbol r "jmp") at;
      check_int "to its target" (Asm.symbol r "win") got;
      Alcotest.(check string)
        "forward edge"
        (Format.asprintf "CFI violation at %a: indirect branch to %a, not a valid target"
           Memsim.Word.pp at Memsim.Word.pp got)
        (O.to_string o)
  | _, other -> Alcotest.failf "expected a forward-edge veto, got %s" (O.to_string other)

let test_cfi_allows_benign_calls () =
  let open Insn in
  let program =
    [
      Asm.Call "f";
      Asm.Call "f";
      Asm.I Hlt;
      Asm.Label "f";
      Asm.Call "g";
      Asm.I Ret;
      Asm.Label "g";
      Asm.I Ret;
    ]
  in
  let _, cpu, _ = setup program in
  let outcome = run_shadow_stack cpu in
  check_bool "benign nesting ok" true (outcome = O.Halted)

let test_disassemble_sweep () =
  let open Insn in
  let program = [ Asm.I Nop; Asm.I (Push_r EAX); Asm.I Ret ] in
  let mem, _, result = setup program in
  let listing =
    Asm.disassemble mem ~base:result.Asm.base
      ~len:(String.length result.Asm.code)
  in
  Alcotest.(check (list string))
    "sweep"
    [ "nop"; "push eax"; "ret" ]
    (List.map (fun (_, _, _, s) -> s) listing)

(* --- INC/DEC flag regressions --- *)

(* inc/dec must set OF at the signed extremes (and leave CF alone): a
   stale OF flips every signed Jcc that follows.  The xor before each
   inc/dec plants OF=0 so the old always-stale behavior is distinguishable. *)
let test_inc_overflow_sets_of () =
  let open Insn in
  let program =
    [
      Asm.I (Mov_ri (EAX, 0x7FFF_FFFF));
      Asm.I (Xor (Reg EBX, Reg EBX));  (* OF := 0 *)
      Asm.I (Inc_r EAX);  (* 0x7FFFFFFF + 1: SF=1, OF must become 1 *)
      Asm.Jcc (GE, "ge");  (* GE = (SF = OF) — taken only if OF updated *)
      Asm.I (Mov_ri (EDX, 0));
      Asm.I Hlt;
      Asm.Label "ge";
      Asm.I (Mov_ri (EDX, 1));
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "jge sees inc's OF" 1 (Cpu.get cpu EDX);
  check_bool "OF set" true cpu.Cpu.o_f

let test_dec_overflow_sets_of () =
  let open Insn in
  let program =
    [
      Asm.I (Mov_ri (EAX, 0x8000_0000));
      Asm.I (Xor (Reg EBX, Reg EBX));  (* OF := 0 *)
      Asm.I (Dec_r EAX);  (* 0x80000000 - 1: SF=0, OF must become 1 *)
      Asm.Jcc (L, "lt");  (* L = (SF <> OF) — taken only if OF updated *)
      Asm.I (Mov_ri (EDX, 0));
      Asm.I Hlt;
      Asm.Label "lt";
      Asm.I (Mov_ri (EDX, 1));
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "jl sees dec's OF" 1 (Cpu.get cpu EDX);
  check_bool "OF set" true cpu.Cpu.o_f

(* The four modelled flags after [program] runs to [hlt], on the reference
   loop and on the cached one: both must give the same answer. *)
let flags_after program =
  let run_with icache =
    let _, cpu, _ = setup program in
    let cpu =
      if icache then cpu
      else begin
        let c = Cpu.create ~icache:None cpu.Cpu.mem in
        Cpu.set c Insn.ESP 0xBFFF_F000;
        c.Cpu.eip <- cpu.Cpu.eip;
        c
      end
    in
    (match run cpu with
    | O.Halted -> ()
    | o -> Alcotest.failf "flags program: %a" O.pp o);
    (cpu.Cpu.zf, cpu.Cpu.sf, cpu.Cpu.cf, cpu.Cpu.o_f, Cpu.get cpu Insn.EAX)
  in
  let cached = run_with true and reference = run_with false in
  if cached <> reference then Alcotest.fail "cached and reference flags differ";
  cached

let check_flags name (zf, sf, cf, o_f, eax) (zf', sf', cf', o_f', eax') =
  check_bool (name ^ ": ZF") zf zf';
  check_bool (name ^ ": SF") sf sf';
  check_bool (name ^ ": CF") cf cf';
  check_bool (name ^ ": OF") o_f o_f';
  check_int (name ^ ": result") eax eax'

let test_shl_flags () =
  let open Insn in
  let shl v n = flags_after [ Asm.I (Mov_ri (EAX, v)); Asm.I (Shl_i (EAX, n)); Asm.I Hlt ] in
  (* The bit shifted out last lands in CF; a 1-bit shift sets OF when
     the result's sign differs from it. *)
  check_flags "shl 0x80000001, 1" (false, false, true, true, 2) (shl 0x8000_0001 1);
  check_flags "shl 0x40000000, 1" (false, true, false, true, 0x8000_0000)
    (shl 0x4000_0000 1);
  check_flags "shl 0x10000000, 4" (true, false, true, true, 0) (shl 0x1000_0000 4);
  check_flags "shl 0x08000000, 4" (false, true, false, true, 0x8000_0000)
    (shl 0x0800_0000 4)

let test_shr_flags () =
  let open Insn in
  let shr v n = flags_after [ Asm.I (Mov_ri (EAX, v)); Asm.I (Shr_i (EAX, n)); Asm.I Hlt ] in
  (* A 1-bit SHR sets OF to the operand's sign. *)
  check_flags "shr 3, 1" (false, false, true, false, 1) (shr 3 1);
  check_flags "shr 0x80000000, 1" (false, false, false, true, 0x4000_0000)
    (shr 0x8000_0000 1);
  check_flags "shr 0x80000000, 31" (false, false, false, true, 1) (shr 0x8000_0000 31);
  check_flags "shr 0x40000000, 31" (true, false, true, false, 0) (shr 0x4000_0000 31)

let test_shift_by_zero_keeps_flags () =
  let open Insn in
  (* 0 cmp 1 borrows: ZF=0, SF=1, CF=1, OF=0.  A count of 0 (and 32,
     which masks to 0) changes neither the register nor a flag. *)
  let after shift =
    flags_after
      [
        Asm.I (Mov_ri (EAX, 0));
        Asm.I (Cmp_i (Reg EAX, 1));
        Asm.I (Mov_ri (EAX, 0x1234));
        Asm.I shift;
        Asm.I Hlt;
      ]
  in
  check_flags "shl by 0" (false, true, true, false, 0x1234) (after (Shl_i (EAX, 0)));
  check_flags "shr by 32" (false, true, true, false, 0x1234) (after (Shr_i (EAX, 32)))

let test_neg_flags () =
  let open Insn in
  (* inc 0x7FFFFFFF leaves OF=1, so a stale OF would survive the neg. *)
  let neg ?(mem = false) v =
    let slot = { base = Some ESP; disp = 0 } in
    flags_after
      ([
         Asm.I (Mov_ri (EAX, 0x7FFF_FFFF));
         Asm.I (Inc_r EAX);
         Asm.I (Mov_ri (EAX, v));
       ]
      @ (if mem then
           [
             Asm.I (Mov (Mem slot, Reg EAX));
             Asm.I (Neg (Mem slot));
             Asm.I (Mov (Reg EAX, Mem slot));
           ]
         else [ Asm.I (Neg (Reg EAX)) ])
      @ [ Asm.I Hlt ])
  in
  check_flags "neg 0x80000000" (false, true, true, true, 0x8000_0000) (neg 0x8000_0000);
  check_flags "neg [0x80000000]" (false, true, true, true, 0x8000_0000)
    (neg ~mem:true 0x8000_0000);
  check_flags "neg 5" (false, true, true, false, Word.neg 5) (neg 5);
  check_flags "neg [5]" (false, true, true, false, Word.neg 5) (neg ~mem:true 5);
  check_flags "neg 0" (true, false, false, false, 0) (neg 0)

let test_inc_dec_preserve_cf () =
  let open Insn in
  let program =
    [
      (* 0 - 1 borrows: CF=1.  The following inc must not clear it. *)
      Asm.I (Mov_ri (EAX, 0));
      Asm.I (Sub_i (Reg EAX, 1));
      Asm.I (Inc_r EAX);
      Asm.Jcc (B, "cf_live");  (* B = CF *)
      Asm.I (Mov_ri (EDX, 0));
      Asm.I Hlt;
      Asm.Label "cf_live";
      Asm.I (Mov_ri (EDX, 1));
      (* And dec must not set a clear CF: 5 cmp 3 → CF=0. *)
      Asm.I (Mov_ri (EAX, 5));
      Asm.I (Cmp_i (Reg EAX, 3));
      Asm.I (Dec_r EAX);
      Asm.Jcc (AE, "cf_clear");  (* AE = not CF *)
      Asm.I (Mov_ri (ECX, 0));
      Asm.I Hlt;
      Asm.Label "cf_clear";
      Asm.I (Mov_ri (ECX, 1));
      Asm.I Hlt;
    ]
  in
  let _, cpu, _ = setup program in
  ignore (run cpu);
  check_int "inc preserved CF=1" 1 (Cpu.get cpu EDX);
  check_int "dec preserved CF=0" 1 (Cpu.get cpu ECX)

(* --- Self-modifying code through the decoded-instruction cache --- *)

(* A program that executes a function, rewrites the function's own bytes
   (text mapped rwx for the test), and executes it again: the second call
   must run the NEW bytes.  The stale-cache failure mode returns 8. *)
let selfmod_program =
  let open Insn in
  [
    Asm.I (Xor (Reg EAX, Reg EAX));
    Asm.Call "fn";
    (* Overwrite all four inc-eax bytes with NOPs. *)
    Asm.Mov_ri_sym (EDX, "fn");
    Asm.I (Mov_mi (Mem { base = Some EDX; disp = 0 }, 0x9090_9090));
    Asm.Call "fn";
    Asm.I Hlt;
    Asm.Label "fn";
    Asm.I (Inc_r EAX);
    Asm.I (Inc_r EAX);
    Asm.I (Inc_r EAX);
    Asm.I (Inc_r EAX);
    Asm.I Ret;
  ]

let run_selfmod ~icache =
  let mem = Mem.create () in
  let text_base = 0x0804_8000 in
  let result = Asm.assemble ~base:text_base selfmod_program in
  let size = max 0x1000 (String.length result.Asm.code) in
  Mem.map mem ~base:text_base ~size ~perm:Mem.rwx ~name:"text";
  Mem.poke_bytes mem text_base result.Asm.code;
  Mem.map mem ~base:0xBFFF_0000 ~size:0x10000 ~perm:Mem.rw ~name:"stack";
  let cpu =
    Cpu.create ~icache:(if icache then Some (Cpu.new_icache ()) else None) mem
  in
  Cpu.set cpu Insn.ESP 0xBFFF_F000;
  cpu.Cpu.eip <- text_base;
  let outcome = run cpu in
  check_bool "halted" true (outcome = O.Halted);
  cpu

let test_selfmod_invalidates_icache () =
  let cached = run_selfmod ~icache:true in
  check_int "second call ran the overwritten bytes" 4 (Cpu.get cached Insn.EAX);
  let uncached = run_selfmod ~icache:false in
  check_int "identical to uncached execution" (Cpu.get uncached Insn.EAX)
    (Cpu.get cached Insn.EAX);
  check_int "identical step counts" uncached.Cpu.steps cached.Cpu.steps

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "isa_x86"
    [
      ( "encoding",
        [
          Alcotest.test_case "known byte patterns" `Quick test_encode_known_bytes;
          Alcotest.test_case "pop-pop-pop-ret bytes" `Quick test_pop_pop_pop_ret_bytes;
          Alcotest.test_case "round-trip corpus" `Quick test_roundtrip_corpus;
          qt prop_encode_decode_roundtrip;
          qt prop_decoded_length_positive;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "labels and calls" `Quick test_asm_labels_and_calls;
          Alcotest.test_case "backward jump loop" `Quick test_asm_backward_jump_loop;
          Alcotest.test_case "word_sym and align" `Quick test_asm_word_sym_and_align;
          Alcotest.test_case "undefined symbol" `Quick test_asm_undefined_symbol;
          Alcotest.test_case "duplicate symbol" `Quick test_asm_duplicate_symbol;
          Alcotest.test_case "disassemble sweep" `Quick test_disassemble_sweep;
          qt prop_assemble_disassemble_stream;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "push/pop LIFO" `Quick test_stack_push_pop;
          Alcotest.test_case "cdecl call frame" `Quick test_cdecl_call_frame;
          Alcotest.test_case "leave epilogue" `Quick test_leave_epilogue;
          Alcotest.test_case "new arithmetic ops" `Quick
            test_new_arithmetic_semantics;
          Alcotest.test_case "byte ops + movzx" `Quick test_byte_ops_and_movzx;
          Alcotest.test_case "flags and conditions" `Quick test_flags_and_conditions;
          Alcotest.test_case "ret imm + indirect calls" `Quick
            test_ret_imm_and_indirect_calls;
          Alcotest.test_case "push [mem] + jmp [mem]" `Quick
            test_push_m_and_jmp_rm_mem;
          Alcotest.test_case "all condition codes" `Quick
            test_all_condition_codes_roundtrip_and_hold;
          Alcotest.test_case "code across page boundary" `Quick
            test_code_across_page_boundary;
          Alcotest.test_case "syscall dispatch" `Quick test_syscall_dispatch;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "unmapped eip faults" `Quick test_unmapped_eip_faults;
          Alcotest.test_case "NX stack blocks execution" `Quick
            test_nx_stack_blocks_execution;
          Alcotest.test_case "illegal instruction" `Quick test_illegal_instruction;
        ] );
      ( "control-flow hijack",
        [
          Alcotest.test_case "smashed return hijacks" `Quick
            test_ret_into_overwritten_address;
          Alcotest.test_case "CFI blocks smashed return" `Quick
            test_cfi_blocks_smashed_return;
          Alcotest.test_case "CFI allows benign calls" `Quick
            test_cfi_allows_benign_calls;
          Alcotest.test_case "CFI says what it expected" `Quick
            test_cfi_reports_what_it_expected;
        ] );
      ( "flag regressions",
        [
          Alcotest.test_case "inc overflow sets OF" `Quick test_inc_overflow_sets_of;
          Alcotest.test_case "dec overflow sets OF" `Quick test_dec_overflow_sets_of;
          Alcotest.test_case "inc/dec preserve CF" `Quick test_inc_dec_preserve_cf;
          Alcotest.test_case "shl: CF is the last bit out" `Quick test_shl_flags;
          Alcotest.test_case "shr: CF is the last bit out" `Quick test_shr_flags;
          Alcotest.test_case "shift by 0 keeps the flags" `Quick
            test_shift_by_zero_keeps_flags;
          Alcotest.test_case "neg 0x80000000 sets OF" `Quick test_neg_flags;
        ] );
      ( "self-modifying code",
        [
          Alcotest.test_case "rewrite invalidates icache" `Quick
            test_selfmod_invalidates_icache;
        ] );
    ]
