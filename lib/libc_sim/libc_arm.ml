open Isa_arm
open Isa_arm.Insn
module Sys = Machine.Sysno

let exported =
  [
    "memcpy";
    "memset";
    "strlen";
    "__strcpy_chk";
    "system";
    "execve";
    "execlp";
    "exit";
    "abort";
    "__stack_chk_fail";
  ]

let i op = Asm.I (al op)

let program : Asm.program =
  [
    (* --- memcpy(r0 dest, r1 src, r2 n): returns r0; ip as write cursor --- *)
    Asm.Label "memcpy";
    i (Push [ R4; LR ]);
    i (Mov (R12, Reg R0));
    Asm.Label "memcpy.loop";
    i (Cmp (R2, Imm 0));
    Asm.B_sym (EQ, "memcpy.done");
    i (Ldrb (R3, R1, 0));
    i (Strb (R3, R12, 0));
    i (Add (R1, R1, Imm 1));
    i (Add (R12, R12, Imm 1));
    i (Sub (R2, R2, Imm 1));
    Asm.B_sym (AL, "memcpy.loop");
    Asm.Label "memcpy.done";
    i (Pop [ R4; PC ]);
    (* --- memset(r0 dest, r1 c, r2 n) --- *)
    Asm.Label "memset";
    i (Mov (R12, Reg R0));
    Asm.Label "memset.loop";
    i (Cmp (R2, Imm 0));
    Asm.B_sym (EQ, "memset.done");
    i (Strb (R1, R12, 0));
    i (Add (R12, R12, Imm 1));
    i (Sub (R2, R2, Imm 1));
    Asm.B_sym (AL, "memset.loop");
    Asm.Label "memset.done";
    i (Bx LR);
    (* --- strlen(r0 s) --- *)
    Asm.Label "strlen";
    i (Mov (R12, Reg R0));
    i (Mov (R0, Imm 0));
    Asm.Label "strlen.loop";
    i (Ldrb (R3, R12, 0));
    i (Cmp (R3, Imm 0));
    Asm.B_sym (EQ, "strlen.done");
    i (Add (R0, R0, Imm 1));
    i (Add (R12, R12, Imm 1));
    Asm.B_sym (AL, "strlen.loop");
    Asm.Label "strlen.done";
    i (Bx LR);
    (* --- __strcpy_chk(r0 dest, r1 src, r2 destlen) --- *)
    Asm.Label "__strcpy_chk";
    i (Push [ R4; LR ]);
    i (Mov (R12, Reg R0));
    Asm.Label "__strcpy_chk.loop";
    i (Cmp (R2, Imm 0));
    Asm.B_sym (EQ, "__strcpy_chk.overflow");
    i (Ldrb (R3, R1, 0));
    i (Strb (R3, R12, 0));
    i (Cmp (R3, Imm 0));
    Asm.B_sym (EQ, "__strcpy_chk.done");
    i (Add (R1, R1, Imm 1));
    i (Add (R12, R12, Imm 1));
    i (Sub (R2, R2, Imm 1));
    Asm.B_sym (AL, "__strcpy_chk.loop");
    Asm.Label "__strcpy_chk.overflow";
    Asm.Bl_sym "__stack_chk_fail";
    Asm.Label "__strcpy_chk.done";
    i (Pop [ R4; PC ]);
    (* --- system(r0 cmd) --- *)
    Asm.Label "system";
    i (Mov (R7, Imm Sys.execve));
    i (Mov (R1, Imm 0));
    i (Mov (R2, Imm 0));
    i (Svc 0);
    i (Bx LR);
    (* --- execve(r0 path, r1 argv, r2 envp) --- *)
    Asm.Label "execve";
    i (Mov (R7, Imm Sys.execve));
    i (Svc 0);
    i (Bx LR);
    (* --- execlp(r0 file, r1 arg0-or-NULL, …): varargs convention is
       simulator-private (vector 254; see Machine.Sysno) --- *)
    Asm.Label "execlp";
    i (Mov (R7, Imm Sys.exec_varargs));
    i (Svc 0);
    i (Bx LR);
    (* --- exit(r0 code) --- *)
    Asm.Label "exit";
    i (Mov (R7, Imm Sys.exit));
    i (Svc 0);
    (* --- abort / __stack_chk_fail --- *)
    Asm.Label "abort";
    i (Mov (R7, Imm Sys.abort));
    i (Svc 0);
    Asm.Label "__stack_chk_fail";
    i (Mov (R7, Imm Sys.stack_chk_fail));
    i (Svc 0);
    (* --- static strings --- *)
    Asm.Align 4;
    Asm.Label "str_bin_sh";
    Asm.Bytes "/bin/sh\x00";
    Asm.Label "str_sh";
    Asm.Bytes "sh\x00";
    Asm.Label "str_bin_bash";
    Asm.Bytes "/bin/bash\x00";
    Asm.Label "str_dev_null";
    Asm.Bytes "/dev/null\x00";
  ]

(* The program never changes: laid out once, linked at each boot's base. *)
let image = lazy (Asm.layout program)
let build ~base = Machine.Asm.link ~base (Lazy.force image)
