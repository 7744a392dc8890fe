open Isa_x86
open Isa_x86.Insn
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

(* cdecl throughout: args at [esp+4], [esp+8], …; eax returns; ebx/esi/edi
   callee-saved. *)
let program : Asm.program =
  [
    (* --- memcpy(dest, src, n): byte loop, returns dest --- *)
    Asm.Label "memcpy";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r ESI);
    Asm.I (Push_r EDI);
    Asm.I (Mov (Reg EDI, Mem { base = Some EBP; disp = 8 }));
    Asm.I (Mov (Reg ESI, Mem { base = Some EBP; disp = 12 }));
    Asm.I (Mov (Reg ECX, Mem { base = Some EBP; disp = 16 }));
    Asm.Label "memcpy.loop";
    Asm.I (Cmp_i (Reg ECX, 0));
    Asm.Jcc (E, "memcpy.done");
    Asm.I (Movzx_b (EAX, Mem { base = Some ESI; disp = 0 }));
    Asm.I (Mov_b (Mem { base = Some EDI; disp = 0 }, Reg EAX));
    Asm.I (Inc_r ESI);
    Asm.I (Inc_r EDI);
    Asm.I (Dec_r ECX);
    Asm.Jmp "memcpy.loop";
    Asm.Label "memcpy.done";
    Asm.I (Mov (Reg EAX, Mem { base = Some EBP; disp = 8 }));
    Asm.I (Pop_r EDI);
    Asm.I (Pop_r ESI);
    Asm.I (Pop_r EBP);
    Asm.I Ret;
    (* --- memset(dest, c, n) --- *)
    Asm.Label "memset";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r EDI);
    Asm.I (Mov (Reg EDI, Mem { base = Some EBP; disp = 8 }));
    Asm.I (Mov (Reg EDX, Mem { base = Some EBP; disp = 12 }));
    Asm.I (Mov (Reg ECX, Mem { base = Some EBP; disp = 16 }));
    Asm.Label "memset.loop";
    Asm.I (Cmp_i (Reg ECX, 0));
    Asm.Jcc (E, "memset.done");
    Asm.I (Mov_b (Mem { base = Some EDI; disp = 0 }, Reg EDX));
    Asm.I (Inc_r EDI);
    Asm.I (Dec_r ECX);
    Asm.Jmp "memset.loop";
    Asm.Label "memset.done";
    Asm.I (Mov (Reg EAX, Mem { base = Some EBP; disp = 8 }));
    Asm.I (Pop_r EDI);
    Asm.I (Pop_r EBP);
    Asm.I Ret;
    (* --- strlen(s) --- *)
    Asm.Label "strlen";
    Asm.I (Mov (Reg EDX, Mem { base = Some ESP; disp = 4 }));
    Asm.I (Mov_ri (EAX, 0));
    Asm.Label "strlen.loop";
    Asm.I (Movzx_b (ECX, Mem { base = Some EDX; disp = 0 }));
    Asm.I (Cmp_i (Reg ECX, 0));
    Asm.Jcc (E, "strlen.done");
    Asm.I (Inc_r EAX);
    Asm.I (Inc_r EDX);
    Asm.Jmp "strlen.loop";
    Asm.Label "strlen.done";
    Asm.I Ret;
    (* --- __strcpy_chk(dest, src, destlen): the fortified strcpy Connman
       links against instead of strcpy (per §III-C1) --- *)
    Asm.Label "__strcpy_chk";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r ESI);
    Asm.I (Push_r EDI);
    Asm.I (Mov (Reg EDI, Mem { base = Some EBP; disp = 8 }));
    Asm.I (Mov (Reg ESI, Mem { base = Some EBP; disp = 12 }));
    Asm.I (Mov (Reg ECX, Mem { base = Some EBP; disp = 16 }));
    Asm.Label "__strcpy_chk.loop";
    Asm.I (Cmp_i (Reg ECX, 0));
    Asm.Jcc (E, "__strcpy_chk.overflow");
    Asm.I (Movzx_b (EAX, Mem { base = Some ESI; disp = 0 }));
    Asm.I (Mov_b (Mem { base = Some EDI; disp = 0 }, Reg EAX));
    Asm.I (Cmp_i (Reg EAX, 0));
    Asm.Jcc (E, "__strcpy_chk.done");
    Asm.I (Inc_r ESI);
    Asm.I (Inc_r EDI);
    Asm.I (Dec_r ECX);
    Asm.Jmp "__strcpy_chk.loop";
    Asm.Label "__strcpy_chk.overflow";
    Asm.Call "__stack_chk_fail";
    Asm.Label "__strcpy_chk.done";
    Asm.I (Mov (Reg EAX, Mem { base = Some EBP; disp = 8 }));
    Asm.I (Pop_r EDI);
    Asm.I (Pop_r ESI);
    Asm.I (Pop_r EBP);
    Asm.I Ret;
    (* --- system(cmd): execve(cmd, NULL, NULL) via the kernel --- *)
    Asm.Label "system";
    Asm.I (Mov_ri (EAX, Sys.execve));
    Asm.I (Mov (Reg EBX, Mem { base = Some ESP; disp = 4 }));
    Asm.I (Mov_ri (ECX, 0));
    Asm.I (Mov_ri (EDX, 0));
    Asm.I (Int 0x80);
    Asm.I Ret;
    (* --- execve(path, argv, envp) --- *)
    Asm.Label "execve";
    Asm.I (Mov_ri (EAX, Sys.execve));
    Asm.I (Mov (Reg EBX, Mem { base = Some ESP; disp = 4 }));
    Asm.I (Mov (Reg ECX, Mem { base = Some ESP; disp = 8 }));
    Asm.I (Mov_ri (EDX, 0));
    Asm.I (Int 0x80);
    Asm.I Ret;
    (* --- execlp(file, arg0, …, NULL): the varargs live on the caller's
       stack at [esp+8] onward, a NULL-terminated char* array --- *)
    Asm.Label "execlp";
    Asm.I (Mov_ri (EAX, Sys.exec_varargs));
    Asm.I (Mov (Reg EBX, Mem { base = Some ESP; disp = 4 }));
    Asm.I (Lea (ECX, { base = Some ESP; disp = 8 }));
    Asm.I (Int 0x80);
    Asm.I Ret;
    (* --- exit(code) --- *)
    Asm.Label "exit";
    Asm.I (Mov_ri (EAX, Sys.exit));
    Asm.I (Mov (Reg EBX, Mem { base = Some ESP; disp = 4 }));
    Asm.I (Int 0x80);
    (* --- abort / __stack_chk_fail --- *)
    Asm.Label "abort";
    Asm.I (Mov_ri (EAX, Sys.abort));
    Asm.I (Int 0x80);
    Asm.Label "__stack_chk_fail";
    Asm.I (Mov_ri (EAX, Sys.stack_chk_fail));
    Asm.I (Int 0x80);
    (* --- static strings (the §III-B1 payload points eax at str_bin_sh) --- *)
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
