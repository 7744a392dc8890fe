open Isa_x86
open Isa_x86.Insn

let entry = "parse_response"

let ebp_off d = Mem { base = Some EBP; disp = d }
let at r = Mem { base = Some r; disp = 0 }

(* --- parse_response(buf, len) ---------------------------------------
   Frame (offsets from the name buffer, see Frame.x86):
     [ebp-0x418] name_len          [ebp-0x410..ebp-0x11] name[1024]
     [ebp-0x10] ptr1  [ebp-0xC] ptr2  [ebp-4] canary (optional)        *)
let parse_response ~canary =
  [
    Asm.Label "parse_response";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Sub_i (Reg ESP, 0x418));
  ]
  @ (if canary then
       [
         Asm.Mov_ri_sym (EAX, "__canary");
         Asm.I (Mov (Reg EAX, at EAX));
         Asm.I (Mov (ebp_off (-4), Reg EAX));
       ]
     else [])
  @ [
      (* zero name_len and the pointer locals *)
      Asm.I (Xor (Reg EAX, Reg EAX));
      Asm.I (Mov (ebp_off (-0x418), Reg EAX));
      Asm.I (Mov (ebp_off (-0x10), Reg EAX));
      Asm.I (Mov (ebp_off (-0xC), Reg EAX));
      (* cursor = buf + 12 (skip the DNS header) *)
      Asm.I (Mov (Reg EAX, ebp_off 8));
      Asm.I (Add_i (Reg EAX, 12));
      (* skip the question name (labels or a compression pointer) *)
      Asm.Label "pr.skip_q";
      Asm.I (Movzx_b (ECX, at EAX));
      Asm.I (Cmp_i (Reg ECX, 0));
      Asm.Jcc (E, "pr.q_end");
      Asm.I (Cmp_i (Reg ECX, 0xC0));
      Asm.Jcc (AE, "pr.q_ptr");
      Asm.I (Add (Reg EAX, Reg ECX));
      Asm.I (Inc_r EAX);
      Asm.Jmp "pr.skip_q";
      Asm.Label "pr.q_ptr";
      Asm.I (Add_i (Reg EAX, 2));
      Asm.Jmp "pr.q_done";
      Asm.Label "pr.q_end";
      Asm.I (Inc_r EAX);
      Asm.Label "pr.q_done";
      (* skip qtype + qclass → eax points at the answer's owner name *)
      Asm.I (Add_i (Reg EAX, 4));
      (* get_name(buf, p, name, &name_len) *)
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x418 }));
      Asm.I (Push_r ECX);
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x410 }));
      Asm.I (Push_r ECX);
      Asm.I (Push_r EAX);
      Asm.I (Push_m { base = Some EBP; disp = 8 });
      Asm.Call "get_name";
      Asm.I (Add_i (Reg ESP, 16));
      Asm.I (Cmp_i (Reg EAX, 0));
      Asm.Jcc (NE, "pr.out");
      (* parse_rr(&ptr1) *)
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x10 }));
      Asm.I (Push_r ECX);
      Asm.Call "parse_rr";
      Asm.I (Add_i (Reg ESP, 4));
      (* cache_store(name, name_len) *)
      Asm.I (Push_m { base = Some EBP; disp = -0x418 });
      Asm.I (Lea (ECX, { base = Some EBP; disp = -0x410 }));
      Asm.I (Push_r ECX);
      Asm.Call "cache_store";
      Asm.I (Add_i (Reg ESP, 8));
      Asm.Label "pr.out";
    ]
  @ (if canary then
       [
         Asm.I (Mov (Reg EAX, ebp_off (-4)));
         Asm.Mov_ri_sym (ECX, "__canary");
         Asm.I (Mov (Reg ECX, at ECX));
         Asm.I (Cmp (Reg EAX, Reg ECX));
         Asm.Jcc (NE, "pr.smashed");
       ]
     else [])
  @ [ Asm.I Leave; Asm.I Ret ]
  @
  if canary then [ Asm.Label "pr.smashed"; Asm.Call "__stack_chk_fail@plt" ]
  else []

(* --- get_name(msg, p, name, name_len) --------------------------------
   The CVE site.  Registers: esi cursor, edi name, ebx &name_len.  The
   Listing-1 copy is delegated to libc memcpy through the PLT, exactly as
   in dnsproxy.c. *)
let get_name ~patched =
  [
    Asm.Label "get_name";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r EBX);
    Asm.I (Push_r EDI);
    Asm.I (Push_r ESI);
    Asm.I (Mov (Reg ESI, ebp_off 12));
    Asm.I (Mov (Reg EDI, ebp_off 16));
    Asm.I (Mov (Reg EBX, ebp_off 20));
    Asm.Label "gn.loop";
    Asm.I (Movzx_b (ECX, at ESI));
    Asm.I (Cmp_i (Reg ECX, 0));
    Asm.Jcc (E, "gn.done");
    Asm.I (Cmp_i (Reg ECX, 0xC0));
    Asm.Jcc (AE, "gn.pointer");
    Asm.I (Mov (Reg EDX, at EBX));
  ]
  @ (if patched then
       [
         (* The 1.35 fix: bail out when nl + label_len + 2 > sizeof(name). *)
         Asm.I (Mov (Reg EAX, Reg EDX));
         Asm.I (Add (Reg EAX, Reg ECX));
         Asm.I (Add_i (Reg EAX, 2));
         Asm.I (Cmp_i (Reg EAX, 1024));
         Asm.Jcc (G, "gn.fail");
       ]
     else [])
  @ [
      (* Listing 1: store the length byte at name[nl], bump nl *)
      Asm.I (Mov (Reg EAX, Reg EDI));
      Asm.I (Add (Reg EAX, Reg EDX));
      Asm.I (Mov_b (at EAX, Reg ECX));
      Asm.I (Inc_r EAX);
      Asm.I (Inc_r EDX);
      Asm.I (Mov (at EBX, Reg EDX));
      (* Listing 1: memcpy of label_len+1 bytes from p+1 *)
      Asm.I (Mov (Reg EDX, Reg ECX));
      Asm.I (Inc_r EDX);
      Asm.I (Push_r EDX);
      Asm.I (Mov (Reg EDX, Reg ESI));
      Asm.I (Inc_r EDX);
      Asm.I (Push_r EDX);
      Asm.I (Push_r EAX);
      Asm.Call "memcpy@plt";
      Asm.I (Add_i (Reg ESP, 12));
      (* advance nl and the cursor by label_len (+1 for the cursor) *)
      Asm.I (Movzx_b (ECX, at ESI));
      Asm.I (Mov (Reg EDX, at EBX));
      Asm.I (Add (Reg EDX, Reg ECX));
      Asm.I (Mov (at EBX, Reg EDX));
      Asm.I (Add (Reg ESI, Reg ECX));
      Asm.I (Inc_r ESI);
      Asm.Jmp "gn.loop";
      Asm.Label "gn.pointer";
      (* p = msg + (((len & 0x3F) << 8) | p[1]) *)
      Asm.I (Sub_i (Reg ECX, 0xC0));
      Asm.I (Shl_i (ECX, 8));
      Asm.I (Movzx_b (EDX, Mem { base = Some ESI; disp = 1 }));
      Asm.I (Add (Reg ECX, Reg EDX));
      Asm.I (Mov (Reg ESI, ebp_off 8));
      Asm.I (Add (Reg ESI, Reg ECX));
      Asm.Jmp "gn.loop";
      Asm.Label "gn.fail";
      Asm.I (Mov_ri (EAX, 0xFFFFFFFF));
      Asm.Jmp "gn.ret";
      Asm.Label "gn.done";
      Asm.I (Xor (Reg EAX, Reg EAX));
      Asm.Label "gn.ret";
      (* Epilogue: a natural pop/pop/pop/pop/ret run — the raw material the
         §III-C1 gadget hunt finds (a pppr gadget starts at the second
         pop). *)
      Asm.I (Pop_r ESI);
      Asm.I (Pop_r EDI);
      Asm.I (Pop_r EBX);
      Asm.I (Pop_r EBP);
      Asm.I Ret;
    ]

(* x86 parse_rr: unlike the ARM build, its record bookkeeping does not
   dereference the frame locals — matching the paper, which hit the
   NULL-check obstacle only on ARM. *)
let parse_rr =
  [
    Asm.Label "parse_rr";
    Asm.I (Mov (Reg EAX, Mem { base = Some ESP; disp = 4 }));
    Asm.I (Mov (Reg EAX, at EAX));
    Asm.I (Xor (Reg EAX, Reg EAX));
    Asm.I Ret;
  ]

(* cache_store(name, len): copy a prefix of the expanded name into the
   .bss-resident cache slot (keeps memcpy@plt hot and gives .bss a
   realistic role). *)
let cache_store =
  [
    Asm.Label "cache_store";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_i 16);
    Asm.I (Push_m { base = Some EBP; disp = 8 });
    Asm.Mov_ri_sym (EAX, "__bss_start");
    Asm.I (Add_i (Reg EAX, 0x200));
    Asm.I (Push_r EAX);
    Asm.Call "memcpy@plt";
    Asm.I (Add_i (Reg ESP, 12));
    Asm.I (Pop_r EBP);
    Asm.I Ret;
  ]

(* spawn_helper(): execs the DHCP client helper.  Never called on the
   parse path — it exists so the binary carries an execlp@plt reference,
   as the real daemon does for its helper processes (§III-B2 invokes it). *)
let spawn_helper =
  [
    Asm.Label "spawn_helper";
    Asm.I (Push_i 0);
    Asm.Push_sym "str_dhclient";
    Asm.Call "execlp@plt";
    Asm.I (Add_i (Reg ESP, 8));
    Asm.I Ret;
  ]

(* Auxiliary routines: realistic bulk with conventional multi-pop
   epilogues. *)
let checksum =
  [
    Asm.Label "checksum";
    Asm.I (Push_r EBP);
    Asm.I (Mov (Reg EBP, Reg ESP));
    Asm.I (Push_r ESI);
    Asm.I (Push_r EDI);
    Asm.I (Mov (Reg ESI, ebp_off 8));
    Asm.I (Mov (Reg ECX, ebp_off 12));
    Asm.I (Xor (Reg EAX, Reg EAX));
    Asm.Label "ck.loop";
    Asm.I (Cmp_i (Reg ECX, 0));
    Asm.Jcc (E, "ck.done");
    Asm.I (Movzx_b (EDX, at ESI));
    Asm.I (Add (Reg EAX, Reg EDX));
    Asm.I (Inc_r ESI);
    Asm.I (Dec_r ECX);
    Asm.Jmp "ck.loop";
    Asm.Label "ck.done";
    Asm.I (Pop_r EDI);
    Asm.I (Pop_r ESI);
    Asm.I (Pop_r EBP);
    Asm.I Ret;
  ]

let log_event =
  [
    Asm.Label "log_event";
    Asm.I (Push_r EBX);
    Asm.I (Push_r ESI);
    Asm.I (Push_r EDI);
    Asm.I (Mov (Reg EAX, Mem { base = Some ESP; disp = 16 }));
    Asm.I (Pop_r EDI);
    Asm.I (Pop_r ESI);
    Asm.I (Pop_r EBX);
    Asm.I Ret;
  ]

(* Read-only strings; inline in .text like a real binary's .rodata, they
   feed the §III-C1 "-memstr" single-character hunt ('/', 'b', 'i', 'n',
   's', 'h' all occur). *)
let rodata ~version =
  [
    Asm.Align 4;
    Asm.Label "str_version";
    Asm.Bytes (Printf.sprintf "connman %s\x00" (Version.to_string version));
    Asm.Label "str_dhclient";
    Asm.Bytes "/sbin/dhclient\x00";
    Asm.Label "str_lookup";
    Asm.Bytes "ipv4.connman.net\x00";
    Asm.Label "str_resolv";
    Asm.Bytes "/etc/resolv.conf\x00";
    Asm.Label "str_dbus";
    Asm.Bytes "net.connman\x00";
  ]

let chunks ~version ~profile =
  let patched = not (Version.vulnerable version) in
  let canary = profile.Defense.Profile.canary in
  [
    ("parse_response", parse_response ~canary);
    ("get_name", get_name ~patched);
    ("parse_rr", parse_rr);
    ("cache_store", cache_store);
    ("spawn_helper", spawn_helper);
    ("checksum", checksum);
    ("log_event", log_event);
    ("rodata", rodata ~version);
  ]

let code text = { Loader.Process.arch = Loader.Arch.X86; text }

(* The chunks are pure data of (version, profile), and so is what the
   variant pass prepares from them and the stock spec (the template's
   unshuffled program): both are built once per pair. *)
let prepared = Hashtbl.create 8

let prepare ~version ~profile =
  match Hashtbl.find_opt prepared (version, profile) with
  | Some p -> p
  | None ->
      let t = Diversity.Variant.x86_template (Version.rotate version (chunks ~version ~profile)) in
      let stock =
        {
          Loader.Process.name = Printf.sprintf "connmand-%s" (Version.to_string version);
          code = code (Diversity.Variant.stock t);
          imports =
            [ "memcpy"; "execlp"; "exit"; "abort"; "__stack_chk_fail"; "__strcpy_chk" ];
          bss_size = 0x2000;
        }
      in
      Hashtbl.add prepared (version, profile) (t, stock);
      (t, stock)

let template ~version ~profile = fst (prepare ~version ~profile)

(* Compile-time diversity (§IV): shuffle function order, insert random
   NOP padding, and apply equivalent-instruction rewrites, so every code
   address moves between builds. *)
let variant ~version ~profile ~seed =
  let t, stock = prepare ~version ~profile in
  let text, plan = Diversity.Variant.text ~seed t in
  ({ stock with code = code text }, plan)

let spec ~version ~profile ?diversity_seed () =
  match diversity_seed with
  | None -> snd (prepare ~version ~profile)
  | Some seed -> fst (variant ~version ~profile ~seed)

let variant_plan ~version ~profile ~seed =
  Diversity.Variant.plan ~seed (template ~version ~profile)
