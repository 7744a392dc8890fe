open Isa_arm
open Isa_arm.Insn

let entry = "process_reply"
let i op = Asm.I (al op)

(* --- process_reply(r0 buf, r1 len) --------------------------------------
   Frame (offsets from the 2048-byte buffer, see Frame.arm):
     [fp-0x81C] name_len   [fp-0x818 .. fp-0x19] daemon_namebuff[2048]
     [fp-0x10] canary (optional)   saved {r4,r5,fp,lr} at [fp .. fp+0xC]  *)
let process_reply ~canary =
  [
    Asm.Label "process_reply";
    i (Push [ R4; R5; R11; LR ]);
    i (Mov (R11, Reg SP));
    i (Sub (SP, SP, Imm 0x800));
    i (Sub (SP, SP, Imm 0x20));
  ]
  @ (if canary then
       [
         Asm.Ldr_sym (R3, "dr.lit_canary");
         i (Ldr (R3, R3, 0));
         i (Str (R3, R11, -0x10));
       ]
     else [])
  @ [
      i (Mov (R3, Imm 0));
      i (Str (R3, R11, -0x81C));
      i (Mov (R4, Reg R0));
      i (Add (R2, R0, Imm 12));
      Asm.Label "dq.skip";
      i (Ldrb (R3, R2, 0));
      i (Cmp (R3, Imm 0));
      Asm.B_sym (EQ, "dq.end");
      i (Cmp (R3, Imm 0xC0));
      Asm.B_sym (CS, "dq.ptr");
      i (Add (R2, R2, Reg R3));
      i (Add (R2, R2, Imm 1));
      Asm.B_sym (AL, "dq.skip");
      Asm.Label "dq.ptr";
      i (Add (R2, R2, Imm 2));
      Asm.B_sym (AL, "dq.done");
      Asm.Label "dq.end";
      i (Add (R2, R2, Imm 1));
      Asm.Label "dq.done";
      i (Add (R2, R2, Imm 4));
      (* extract_name(msg, p, name, &name_len) *)
      i (Mov (R0, Reg R4));
      i (Mov (R1, Reg R2));
      (* 0x818 is not an encodable modified-immediate: split it *)
      i (Sub (R2, R11, Imm 0x800));
      i (Sub (R2, R2, Imm 0x18));
      i (Sub (R3, R11, Imm 0x800));
      i (Sub (R3, R3, Imm 0x1C));
      Asm.Bl_sym "extract_name";
      i (Cmp (R0, Imm 0));
      Asm.B_sym (NE, "dr.out");
      (* cache_insert(name, name_len) *)
      i (Sub (R0, R11, Imm 0x800));
      i (Sub (R0, R0, Imm 0x18));
      i (Ldr (R1, R11, -0x81C));
      Asm.Bl_sym "cache_insert";
      Asm.Label "dr.out";
    ]
  @ (if canary then
       [
         Asm.Ldr_sym (R3, "dr.lit_canary");
         i (Ldr (R3, R3, 0));
         i (Ldr (R2, R11, -0x10));
         i (Cmp (R2, Reg R3));
         Asm.B_sym (NE, "dr.smashed");
       ]
     else [])
  @ [ i (Mov (SP, Reg R11)); i (Pop [ R4; R5; R11; PC ]) ]
  @ (if canary then
       [ Asm.Label "dr.smashed"; Asm.Bl_sym "__stack_chk_fail@plt" ]
     else [])
  @
  if canary then [ Asm.Label "dr.lit_canary"; Asm.Word_sym "__canary" ] else []

(* --- extract_name(r0 msg, r1 p, r2 name, r3 &name_len): inline copy --- *)
let extract_name ~patched =
  [
    Asm.Label "extract_name";
    i (Push [ R4; R5; R6; R7; LR ]);
    i (Mov (R4, Reg R1));  (* cursor *)
    i (Mov (R5, Reg R2));  (* name *)
    i (Mov (R6, Reg R3));  (* &nl *)
    i (Mov (R7, Reg R0));  (* msg *)
    Asm.Label "en.loop";
    i (Ldrb (R3, R4, 0));
    i (Cmp (R3, Imm 0));
    Asm.B_sym (EQ, "en.done");
    i (Cmp (R3, Imm 0xC0));
    Asm.B_sym (CS, "en.pointer");
    i (Ldr (R1, R6, 0));
  ]
  @ (if patched then
       [
         i (Add (R0, R1, Reg R3));
         i (Add (R0, R0, Imm 2));
         i (Cmp (R0, Imm 2048));
         Asm.B_sym (GT, "en.fail");
       ]
     else [])
  @ [
      (* name[nl++] = len; then the inline byte loop *)
      i (Add (R0, R5, Reg R1));
      i (Strb (R3, R0, 0));
      i (Add (R0, R0, Imm 1));
      Asm.Label "en.copy";
      i (Cmp (R3, Imm 0));
      Asm.B_sym (EQ, "en.copied");
      i (Add (R4, R4, Imm 1));
      i (Ldrb (R2, R4, 0));
      i (Strb (R2, R0, 0));
      i (Add (R0, R0, Imm 1));
      i (Sub (R3, R3, Imm 1));
      Asm.B_sym (AL, "en.copy");
      Asm.Label "en.copied";
      i (Sub (R1, R0, Reg R5));
      i (Str (R1, R6, 0));
      i (Add (R4, R4, Imm 1));
      Asm.B_sym (AL, "en.loop");
      Asm.Label "en.pointer";
      i (Sub (R3, R3, Imm 0xC0));
      i (Mov (R3, Lsl (R3, 8)));
      i (Ldrb (R1, R4, 1));
      i (Add (R3, R3, Reg R1));
      i (Add (R4, R7, Reg R3));
      Asm.B_sym (AL, "en.loop");
      Asm.Label "en.fail";
      i (Mvn (R0, Imm 0));
      i (Pop [ R4; R5; R6; R7; PC ]);
      Asm.Label "en.done";
      i (Mov (R0, Imm 0));
      i (Pop [ R4; R5; R6; R7; PC ]);
    ]

let cache_insert =
  [
    Asm.Label "cache_insert";
    i (Push [ R4; LR ]);
    i (Mov (R1, Reg R0));
    Asm.Ldr_sym (R0, "ci.lit_bss");
    i (Add (R0, R0, Imm 0x100));
    i (Mov (R2, Imm 16));
    Asm.Bl_sym "memcpy@plt";
    i (Pop [ R4; PC ]);
    Asm.Label "ci.lit_bss";
    Asm.Word_sym "__bss_start";
  ]

let run_script =
  [
    Asm.Label "run_script";
    i (Push [ R4; LR ]);
    Asm.Ldr_sym (R0, "rs.lit_script");
    i (Mov (R1, Imm 0));
    Asm.Bl_sym "execlp@plt";
    i (Pop [ R4; PC ]);
    Asm.Label "rs.lit_script";
    Asm.Word_sym "str_script";
  ]

(* Event-loop context restore: the paper-shaped pop gadget. *)
let tcp_dispatch =
  [
    Asm.Label "tcp_dispatch";
    i (Push [ R0; R1; R2; R3; R5; R6; R7; LR ]);
    i (Mov (R0, Imm 0));
    i (Pop [ R0; R1; R2; R3; R5; R6; R7; PC ]);
  ]

(* Indirect handler call with a resumable tail. *)
let call_hook =
  [
    Asm.Label "call_hook";
    i (Push [ R4; LR ]);
    i (Blx_r R3);
    i (Pop [ R4; PC ]);
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
    Asm.Align 4;
  ]

let spec ~patched ~profile =
  let canary = profile.Defense.Profile.canary in
  let program =
    process_reply ~canary @ extract_name ~patched @ cache_insert @ run_script
    @ tcp_dispatch @ call_hook @ rodata ~patched
  in
  {
    Loader.Process.name = (if patched then "dnsmasq-2.78" else "dnsmasq-2.77");
    code = Loader.Process.arm_code program;
    imports = [ "memcpy"; "execlp"; "exit"; "abort"; "__stack_chk_fail" ];
    bss_size = 0x2000;
  }
