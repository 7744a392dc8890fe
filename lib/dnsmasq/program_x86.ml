open Isa_x86
open Isa_x86.Insn

let entry = "process_reply"

let ebp_off d = Mem { base = Some EBP; disp = d }
let at r = Mem { base = Some r; disp = 0 }

(* --- process_reply(buf, len) ------------------------------------------
   Frame (offsets from the 2048-byte buffer, see Frame.x86):
     [ebp-0x814] name_len   [ebp-0x810 .. ebp-0x11] daemon_namebuff[2048]
     [ebp-8] canary (optional)   [ebp-4] saved ebx                       *)
let process_reply ~canary =
  [
    Asm.Label "process_reply";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r EBX);
    Asm.I (Sub_i (Reg ESP, 0x810));
  ]
  @ (if canary then
       [
         Asm.Mov_ri_sym (EAX, "__canary");
         Asm.I (Mov (Reg EAX, at EAX));
         Asm.I (Mov (ebp_off (-8), Reg EAX));
       ]
     else [])
  @ [
      Asm.I (Xor (Reg EAX, Reg EAX));
      Asm.I (Mov (ebp_off (-0x814), Reg EAX));
      (* cursor past header + question, as in the Connman image *)
      Asm.I (Mov (Reg EAX, ebp_off 8));
      Asm.I (Add_i (Reg EAX, 12));
      Asm.Label "dq.skip";
      Asm.I (Movzx_b (ECX, at EAX));
      Asm.I (Cmp_i (Reg ECX, 0));
      Asm.Jcc (E, "dq.end");
      Asm.I (Cmp_i (Reg ECX, 0xC0));
      Asm.Jcc (AE, "dq.ptr");
      Asm.I (Add (Reg EAX, Reg ECX));
      Asm.I (Inc_r EAX);
      Asm.Jmp "dq.skip";
      Asm.Label "dq.ptr";
      Asm.I (Add_i (Reg EAX, 2));
      Asm.Jmp "dq.done";
      Asm.Label "dq.end";
      Asm.I (Inc_r EAX);
      Asm.Label "dq.done";
      Asm.I (Add_i (Reg EAX, 4));
      (* extract_name(buf, p, namebuff, &name_len) *)
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x814 }));
      Asm.I (Push_r ECX);
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x810 }));
      Asm.I (Push_r ECX);
      Asm.I (Push_r EAX);
      Asm.I (Push_m { base = Some EBP; disp = 8 });
      Asm.Call "extract_name";
      Asm.I (Add_i (Reg ESP, 16));
      Asm.I (Cmp_i (Reg EAX, 0));
      Asm.Jcc (NE, "dr.out");
      (* cache_insert(namebuff, name_len) *)
      Asm.I (Push_m { base = Some EBP; disp = -0x814 });
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x810 }));
      Asm.I (Push_r ECX);
      Asm.Call "cache_insert";
      Asm.I (Add_i (Reg ESP, 8));
      Asm.Label "dr.out";
    ]
  @ (if canary then
       [
         Asm.I (Mov (Reg EAX, ebp_off (-8)));
         Asm.Mov_ri_sym (ECX, "__canary");
         Asm.I (Mov (Reg ECX, at ECX));
         Asm.I (Cmp (Reg EAX, Reg ECX));
         Asm.Jcc (NE, "dr.smashed");
       ]
     else [])
  @ [
      Asm.I (Add_i (Reg ESP, 0x810));
      Asm.I (Pop_r EBX);
      Asm.I (Pop_r EBP);
      Asm.I Ret;
    ]
  @
  if canary then [ Asm.Label "dr.smashed"; Asm.Call "__stack_chk_fail@plt" ]
  else []

(* --- extract_name(msg, p, name, name_len) ------------------------------
   The same label-stream expansion as Connman's get_name, but with an
   inline byte loop (dnsmasq links no memcpy on this path) and no bound
   in vulnerable builds. *)
let extract_name ~patched =
  [
    Asm.Label "extract_name";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r EBX);
    Asm.I (Push_r ESI);
    Asm.I (Push_r EDI);
    Asm.I (Mov (Reg ESI, ebp_off 12));
    Asm.I (Mov (Reg EDI, ebp_off 16));
    Asm.I (Mov (Reg EBX, ebp_off 20));
    Asm.Label "en.loop";
    Asm.I (Movzx_b (ECX, at ESI));
    Asm.I (Cmp_i (Reg ECX, 0));
    Asm.Jcc (E, "en.done");
    Asm.I (Cmp_i (Reg ECX, 0xC0));
    Asm.Jcc (AE, "en.pointer");
    Asm.I (Mov (Reg EDX, at EBX));
  ]
  @ (if patched then
       [
         (* The 2.78-style bound. *)
         Asm.I (Mov (Reg EAX, Reg EDX));
         Asm.I (Add (Reg EAX, Reg ECX));
         Asm.I (Add_i (Reg EAX, 2));
         Asm.I (Cmp_i (Reg EAX, 2048));
         Asm.Jcc (G, "en.fail");
       ]
     else [])
  @ [
      (* name[nl++] = len *)
      Asm.I (Mov (Reg EAX, Reg EDI));
      Asm.I (Add (Reg EAX, Reg EDX));
      Asm.I (Mov_b (at EAX, Reg ECX));
      Asm.I (Inc_r EAX);
      Asm.I (Inc_r EDX);
      (* inline copy of the label body *)
      Asm.Label "en.copy";
      Asm.I (Cmp_i (Reg ECX, 0));
      Asm.Jcc (E, "en.copied");
      Asm.I (Inc_r ESI);
      Asm.I (Movzx_b (EDX, at ESI));
      Asm.I (Mov_b (at EAX, Reg EDX));
      Asm.I (Inc_r EAX);
      Asm.I (Dec_r ECX);
      Asm.Jmp "en.copy";
      Asm.Label "en.copied";
      (* nl = dest - name; cursor past the label *)
      Asm.I (Sub (Reg EAX, Reg EDI));
      Asm.I (Mov (at EBX, Reg EAX));
      Asm.I (Inc_r ESI);
      Asm.Jmp "en.loop";
      Asm.Label "en.pointer";
      Asm.I (Sub_i (Reg ECX, 0xC0));
      Asm.I (Shl_i (ECX, 8));
      Asm.I (Movzx_b (EDX, Mem { base = Some ESI; disp = 1 }));
      Asm.I (Add (Reg ECX, Reg EDX));
      Asm.I (Mov (Reg ESI, ebp_off 8));
      Asm.I (Add (Reg ESI, Reg ECX));
      Asm.Jmp "en.loop";
      Asm.Label "en.fail";
      Asm.I (Mov_ri (EAX, 0xFFFFFFFF));
      Asm.Jmp "en.ret";
      Asm.Label "en.done";
      Asm.I (Xor (Reg EAX, Reg EAX));
      Asm.Label "en.ret";
      Asm.I (Pop_r EDI);
      Asm.I (Pop_r ESI);
      Asm.I (Pop_r EBX);
      Asm.I (Pop_r EBP);
      Asm.I Ret;
    ]

let cache_insert =
  [
    Asm.Label "cache_insert";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_i 16);
    Asm.I (Push_m { base = Some EBP; disp = 8 });
    Asm.Mov_ri_sym (EAX, "__bss_start");
    Asm.I (Add_i (Reg EAX, 0x100));
    Asm.I (Push_r EAX);
    Asm.Call "memcpy@plt";
    Asm.I (Add_i (Reg ESP, 12));
    Asm.I (Pop_r EBP);
    Asm.I Ret;
  ]

(* dnsmasq's dhcp-script hook: keeps execlp@plt in the image. *)
let run_script =
  [
    Asm.Label "run_script";
    Asm.I (Push_i 0);
    Asm.Push_sym "str_script";
    Asm.Call "execlp@plt";
    Asm.I (Add_i (Reg ESP, 8));
    Asm.I Ret;
  ]

(* A conventional three-callee-saved epilogue: the pppr raw material. *)
let option_filter =
  [
    Asm.Label "option_filter";
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
    Asm.Bytes (Printf.sprintf "dnsmasq %s\x00" (if patched then "2.78" else "2.77"));
    Asm.Label "str_script";
    Asm.Bytes "/etc/dnsmasq/dhcp-script\x00";
    Asm.Label "str_conf";
    Asm.Bytes "/etc/dnsmasq.conf\x00";
    Asm.Label "str_bin";
    Asm.Bytes "/usr/sbin/dnsmasq\x00";
    Asm.Label "str_host";
    Asm.Bytes "localhost\x00";
  ]

let spec ~patched ~profile =
  let canary = profile.Defense.Profile.canary in
  let program =
    process_reply ~canary @ extract_name ~patched @ cache_insert @ run_script
    @ option_filter @ rodata ~patched
  in
  {
    Loader.Process.name = (if patched then "dnsmasq-2.78" else "dnsmasq-2.77");
    code = Loader.Process.x86_code program;
    imports = [ "memcpy"; "execlp"; "exit"; "abort"; "__stack_chk_fail" ];
    bss_size = 0x2000;
  }
