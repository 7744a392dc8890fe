open Isa_arm
open Isa_arm.Insn

let entry = "handle_frame"
let i op = Asm.I (al op)

(* See Program_x86 for the message format.  Frame (see Frame.arm):
   [fp-0x210 .. fp-0x11] tag buffer   [fp-0x10] canary
   saved {r4, fp, lr} at [fp .. fp+8] *)
let handle_frame ~patched ~canary =
  [
    Asm.Label "handle_frame";
    i (Push [ R4; R11; LR ]);
    i (Mov (R11, Reg SP));
    i (Sub (SP, SP, Imm 0x210));
  ]
  @ (if canary then
       [
         Asm.Ldr_sym (R3, "hf.lit_canary");
         i (Ldr (R3, R3, 0));
         i (Str (R3, R11, -0x10));
       ]
     else [])
  @ [
      i (Ldrb (R2, R0, 2));
      i (Mov (R2, Lsl (R2, 8)));
      i (Ldrb (R3, R0, 3));
      i (Add (R2, R2, Reg R3));
    ]
  @ (if patched then
       [ i (Cmp (R2, Imm 512)); Asm.B_sym (GT, "hf.reject") ]
     else [])
  @ [
      i (Add (R1, R0, Imm 4));
      i (Sub (R4, R11, Imm 0x210));
      Asm.Label "hf.copy";
      i (Cmp (R2, Imm 0));
      Asm.B_sym (EQ, "hf.done");
      i (Ldrb (R3, R1, 0));
      i (Strb (R3, R4, 0));
      i (Add (R1, R1, Imm 1));
      i (Add (R4, R4, Imm 1));
      i (Sub (R2, R2, Imm 1));
      Asm.B_sym (AL, "hf.copy");
      Asm.Label "hf.done";
      i (Mov (R0, Imm 0));
      Asm.B_sym (AL, "hf.out");
      Asm.Label "hf.reject";
      i (Mvn (R0, Imm 0));
      Asm.Label "hf.out";
    ]
  @ (if canary then
       [
         Asm.Ldr_sym (R3, "hf.lit_canary");
         i (Ldr (R3, R3, 0));
         i (Ldr (R2, R11, -0x10));
         i (Cmp (R2, Reg R3));
         Asm.B_sym (NE, "hf.smashed");
       ]
     else [])
  @ [ i (Mov (SP, Reg R11)); i (Pop [ R4; R11; PC ]) ]
  @ (if canary then
       [ Asm.Label "hf.smashed"; Asm.Bl_sym "__stack_chk_fail@plt" ]
     else [])
  @
  if canary then [ Asm.Label "hf.lit_canary"; Asm.Word_sym "__canary" ] else []

let log_copy =
  [
    Asm.Label "log_copy";
    i (Push [ R4; LR ]);
    i (Mov (R1, Reg R0));
    Asm.Ldr_sym (R0, "lc.lit_bss");
    i (Add (R0, R0, Imm 0x300));
    i (Mov (R2, Imm 32));
    Asm.Bl_sym "memcpy@plt";
    i (Pop [ R4; PC ]);
    Asm.Label "lc.lit_bss";
    Asm.Word_sym "__bss_start";
  ]

let run_helper =
  [
    Asm.Label "run_helper";
    i (Push [ R4; LR ]);
    Asm.Ldr_sym (R0, "rh.lit_notify");
    i (Mov (R1, Imm 0));
    Asm.Bl_sym "execlp@plt";
    i (Pop [ R4; PC ]);
    Asm.Label "rh.lit_notify";
    Asm.Word_sym "str_notify";
  ]

(* Event-loop context restore + indirect dispatch: the gadget inventory. *)
let io_dispatch =
  [
    Asm.Label "io_dispatch";
    i (Push [ R0; R1; R2; R3; R5; R6; R7; LR ]);
    i (Mov (R0, Imm 0));
    i (Pop [ R0; R1; R2; R3; R5; R6; R7; PC ]);
  ]

let call_cb =
  [
    Asm.Label "call_cb";
    i (Push [ R4; LR ]);
    i (Blx_r R3);
    i (Pop [ R4; PC ]);
  ]

let rodata ~patched =
  [
    Asm.Align 4;
    Asm.Label "str_version";
    Asm.Bytes (Printf.sprintf "tcpsvc %s\x00" (if patched then "1.1" else "1.0"));
    Asm.Label "str_notify";
    Asm.Bytes "/usr/bin/svc-notify\x00";
    Asm.Label "str_sock";
    Asm.Bytes "/var/run/tcpsvc.sock\x00";
    Asm.Label "str_hello";
    Asm.Bytes "hello from tcpsvc shim\x00";
    Asm.Align 4;
  ]

let spec ~patched ~profile =
  let canary = profile.Defense.Profile.canary in
  let program =
    handle_frame ~patched ~canary
    @ log_copy @ run_helper @ io_dispatch @ call_cb @ rodata ~patched
  in
  {
    Loader.Process.name = (if patched then "tcpsvc-1.1" else "tcpsvc-1.0");
    code = Loader.Process.arm_code program;
    imports = [ "memcpy"; "execlp"; "exit"; "abort"; "__stack_chk_fail" ];
    bss_size = 0x2000;
  }
