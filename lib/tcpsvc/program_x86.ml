open Isa_x86
open Isa_x86.Insn

let entry = "handle_frame"

let ebp_off d = Mem { base = Some EBP; disp = d }
let at r = Mem { base = Some r; disp = 0 }

(* --- handle_frame(buf, len) ---------------------------------------------
   Message: 'Z' 'Z' | tag_len (u16 BE) | tag bytes.  The tag is copied into
   a 512-byte stack buffer; vulnerable builds never check tag_len.
   Frame (offsets from the buffer, see Frame.x86):
     [ebp-0x210 .. ebp-0x11] tag buffer   [ebp-8] canary   [ebp-4] ebx *)
let handle_frame ~patched ~canary =
  [
    Asm.Label "handle_frame";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r EBX);
    Asm.I (Sub_i (Reg ESP, 0x20C));
  ]
  @ (if canary then
       [
         Asm.Mov_ri_sym (EAX, "__canary");
         Asm.I (Mov (Reg EAX, at EAX));
         Asm.I (Mov (ebp_off (-8), Reg EAX));
       ]
     else [])
  @ [
      Asm.I (Mov (Reg EDX, ebp_off 8));
      Asm.I (Movzx_b (EAX, Mem { base = Some EDX; disp = 2 }));
      Asm.I (Shl_i (EAX, 8));
      Asm.I (Movzx_b (ECX, Mem { base = Some EDX; disp = 3 }));
      Asm.I (Add (Reg EAX, Reg ECX));
    ]
  @ (if patched then
       [ Asm.I (Cmp_i (Reg EAX, 512)); Asm.Jcc (G, "hf.reject") ]
     else [])
  @ [
      Asm.I (Add_i (Reg EDX, 4));
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x210 }));
      Asm.Label "hf.copy";
      Asm.I (Cmp_i (Reg EAX, 0));
      Asm.Jcc (E, "hf.done");
      Asm.I (Movzx_b (EBX, at EDX));
      Asm.I (Mov_b (at ECX, Reg EBX));
      Asm.I (Inc_r EDX);
      Asm.I (Inc_r ECX);
      Asm.I (Dec_r EAX);
      Asm.Jmp "hf.copy";
      Asm.Label "hf.done";
      Asm.I (Xor (Reg EAX, Reg EAX));
      Asm.Jmp "hf.out";
      Asm.Label "hf.reject";
      Asm.I (Mov_ri (EAX, 0xFFFFFFFF));
      Asm.Label "hf.out";
    ]
  @ (if canary then
       [
         Asm.I (Mov (Reg ECX, ebp_off (-8)));
         Asm.Mov_ri_sym (EDX, "__canary");
         Asm.I (Mov (Reg EDX, at EDX));
         Asm.I (Cmp (Reg ECX, Reg EDX));
         Asm.Jcc (NE, "hf.smashed");
       ]
     else [])
  @ [
      Asm.I (Add_i (Reg ESP, 0x20C));
      Asm.I (Pop_r EBX);
      Asm.I (Pop_r EBP);
      Asm.I Ret;
    ]
  @
  if canary then [ Asm.Label "hf.smashed"; Asm.Call "__stack_chk_fail@plt" ]
  else []

(* log_copy(dst, src, n): archive a frame into the .bss ring via memcpy —
   keeps memcpy@plt referenced, as the ROP chain needs. *)
let log_copy =
  [
    Asm.Label "log_copy";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_i 32);
    Asm.I (Push_m { base = Some EBP; disp = 8 });
    Asm.Mov_ri_sym (EAX, "__bss_start");
    Asm.I (Add_i (Reg EAX, 0x300));
    Asm.I (Push_r EAX);
    Asm.Call "memcpy@plt";
    Asm.I (Add_i (Reg ESP, 12));
    Asm.I (Pop_r EBP);
    Asm.I Ret;
  ]

(* run_helper(): the service's external notifier (execlp@plt carrier). *)
let run_helper =
  [
    Asm.Label "run_helper";
    Asm.I (Push_i 0);
    Asm.Push_sym "str_notify";
    Asm.Call "execlp@plt";
    Asm.I (Add_i (Reg ESP, 8));
    Asm.I Ret;
  ]

(* Conventional multi-pop epilogue (pppr raw material). *)
let session_teardown =
  [
    Asm.Label "session_teardown";
    Asm.I (Push_r EBX);
    Asm.I (Push_r ESI);
    Asm.I (Push_r EDI);
    Asm.I (Mov (Reg EAX, Mem { base = Some ESP; disp = 16 }));
    Asm.I (Test_rr (EAX, EAX));
    Asm.I (Pop_r EDI);
    Asm.I (Pop_r ESI);
    Asm.I (Pop_r EBX);
    Asm.I Ret;
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
  ]

let spec ~patched ~profile =
  let canary = profile.Defense.Profile.canary in
  let program =
    handle_frame ~patched ~canary
    @ log_copy @ run_helper @ session_teardown @ rodata ~patched
  in
  {
    Loader.Process.name = (if patched then "tcpsvc-1.1" else "tcpsvc-1.0");
    code = Loader.Process.x86_code program;
    imports = [ "memcpy"; "execlp"; "exit"; "abort"; "__stack_chk_fail" ];
    bss_size = 0x2000;
  }
