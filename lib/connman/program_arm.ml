open Isa_arm
open Isa_arm.Insn

let entry = "parse_response"
let i op = Asm.I (al op)

(* --- parse_response(r0 buf, r1 len) ----------------------------------
   Frame (offsets from the name buffer, see Frame.arm):
     [fp-0x418] name_len   [fp-0x410 .. fp-0x11] name[1024]
     [fp-0x10] ptr1  [fp-0xC] ptr2  [fp-8] canary (optional)
     saved {r4,r5,r6,r7,fp,lr} at [fp .. fp+0x14]                       *)
let parse_response ~canary =
  [
    Asm.Label "parse_response";
    i (Push [ R4; R5; R6; R7; R11; LR ]);
    i (Mov (R11, Reg SP));
    i (Sub (SP, SP, Imm 0x400));
    i (Sub (SP, SP, Imm 0x18));
  ]
  @ (if canary then
       [
         Asm.Ldr_sym (R3, "pr.lit_canary");
         i (Ldr (R3, R3, 0));
         i (Str (R3, R11, -8));
       ]
     else [])
  @ [
      (* zero name_len, ptr1, ptr2 *)
      i (Mov (R3, Imm 0));
      i (Str (R3, R11, -0x418));
      i (Str (R3, R11, -0x10));
      i (Str (R3, R11, -0xC));
      (* r4 = msg base, r2 = cursor past the header *)
      i (Mov (R4, Reg R0));
      i (Add (R2, R0, Imm 12));
      (* skip the question name *)
      Asm.Label "pr.skip_q";
      i (Ldrb (R3, R2, 0));
      i (Cmp (R3, Imm 0));
      Asm.B_sym (EQ, "pr.q_end");
      i (Cmp (R3, Imm 0xC0));
      Asm.B_sym (CS, "pr.q_ptr");
      i (Add (R2, R2, Reg R3));
      i (Add (R2, R2, Imm 1));
      Asm.B_sym (AL, "pr.skip_q");
      Asm.Label "pr.q_ptr";
      i (Add (R2, R2, Imm 2));
      Asm.B_sym (AL, "pr.q_done");
      Asm.Label "pr.q_end";
      i (Add (R2, R2, Imm 1));
      Asm.Label "pr.q_done";
      i (Add (R2, R2, Imm 4));
      (* get_name(msg, p, name, &name_len) *)
      i (Mov (R0, Reg R4));
      i (Mov (R1, Reg R2));
      i (Sub (R2, R11, Imm 0x410));
      (* 0x418 is not an encodable modified-immediate: split it *)
      i (Sub (R3, R11, Imm 0x400));
      i (Sub (R3, R3, Imm 0x18));
      Asm.Bl_sym "get_name";
      i (Cmp (R0, Imm 0));
      Asm.B_sym (NE, "pr.out");
      (* parse_rr(&ptr1) *)
      i (Sub (R0, R11, Imm 0x10));
      Asm.Bl_sym "parse_rr";
      (* cache_store(name, name_len) *)
      i (Sub (R0, R11, Imm 0x410));
      i (Ldr (R1, R11, -0x418));
      Asm.Bl_sym "cache_store";
      Asm.Label "pr.out";
    ]
  @ (if canary then
       [
         Asm.Ldr_sym (R3, "pr.lit_canary");
         i (Ldr (R3, R3, 0));
         i (Ldr (R2, R11, -8));
         i (Cmp (R2, Reg R3));
         Asm.B_sym (NE, "pr.smashed");
       ]
     else [])
  @ [
      i (Mov (SP, Reg R11));
      i (Pop [ R4; R5; R6; R7; R11; PC ]);
    ]
  @ (if canary then
       [ Asm.Label "pr.smashed"; Asm.Bl_sym "__stack_chk_fail@plt" ]
     else [])
  @
  if canary then [ Asm.Label "pr.lit_canary"; Asm.Word_sym "__canary" ] else []

(* --- get_name(r0 msg, r1 p, r2 name, r3 &name_len) -------------------
   The CVE site (Listing 1), with the 1.35 bound in patched builds. *)
let get_name ~patched =
  [
    Asm.Label "get_name";
    i (Push [ R4; R5; R6; R7; LR ]);
    i (Mov (R4, Reg R1));
    i (Mov (R5, Reg R2));
    i (Mov (R6, Reg R3));
    i (Mov (R7, Reg R0));
    Asm.Label "gn.loop";
    i (Ldrb (R3, R4, 0));
    i (Cmp (R3, Imm 0));
    Asm.B_sym (EQ, "gn.done");
    i (Cmp (R3, Imm 0xC0));
    Asm.B_sym (CS, "gn.pointer");
    i (Ldr (R1, R6, 0));
  ]
  @ (if patched then
       [
         i (Add (R0, R1, Reg R3));
         i (Add (R0, R0, Imm 2));
         i (Cmp (R0, Imm 1024));
         Asm.B_sym (GT, "gn.fail");
       ]
     else [])
  @ [
      (* Listing 1: store the length byte at name[nl], bump nl *)
      i (Add (R0, R5, Reg R1));
      i (Strb (R3, R0, 0));
      i (Add (R1, R1, Imm 1));
      i (Str (R1, R6, 0));
      (* Listing 1: memcpy of label_len+1 bytes from p+1 *)
      i (Add (R0, R0, Imm 1));
      i (Add (R1, R4, Imm 1));
      i (Add (R2, R3, Imm 1));
      Asm.Bl_sym "memcpy@plt";
      (* advance nl and the cursor by label_len (+1 for the cursor) *)
      i (Ldrb (R3, R4, 0));
      i (Ldr (R1, R6, 0));
      i (Add (R1, R1, Reg R3));
      i (Str (R1, R6, 0));
      i (Add (R4, R4, Reg R3));
      i (Add (R4, R4, Imm 1));
      Asm.B_sym (AL, "gn.loop");
      Asm.Label "gn.pointer";
      i (Sub (R3, R3, Imm 0xC0));
      i (Mov (R3, Lsl (R3, 8)));
      i (Ldrb (R1, R4, 1));
      i (Add (R3, R3, Reg R1));
      i (Add (R4, R7, Reg R3));
      Asm.B_sym (AL, "gn.loop");
      Asm.Label "gn.fail";
      i (Mvn (R0, Imm 0));
      i (Pop [ R4; R5; R6; R7; PC ]);
      Asm.Label "gn.done";
      i (Mov (R0, Imm 0));
      i (Pop [ R4; R5; R6; R7; PC ]);
    ]

(* parse_rr(r0 = &ptr1): validates two record bookkeeping pointers,
   dereferencing them when non-NULL — so an overflow that scribbles
   non-NULL garbage there faults here, before any hijack (§III-A2's
   "memory locations Connman expects to be NULL"). *)
let parse_rr =
  [
    Asm.Label "parse_rr";
    i (Ldr (R3, R0, 0));
    i (Cmp (R3, Imm 0));
    Asm.I { cond = NE; op = Ldr (R3, R3, 0) };
    i (Mvn (R3, Reg R3));
    i (Ldr (R3, R0, 4));
    i (Cmp (R3, Imm 0));
    Asm.I { cond = NE; op = Ldr (R3, R3, 0) };
    i (Mvn (R3, Reg R3));
    i (Mov (R0, Imm 0));
    i (Bx LR);
  ]

(* cache_store(r0 name, r1 len): prefix-copy into the .bss cache slot. *)
let cache_store =
  [
    Asm.Label "cache_store";
    i (Push [ R4; LR ]);
    i (Mov (R1, Reg R0));
    Asm.Ldr_sym (R0, "cs.lit_bss");
    i (Add (R0, R0, Imm 0x200));
    i (Mov (R2, Imm 16));
    Asm.Bl_sym "memcpy@plt";
    i (Pop [ R4; PC ]);
    Asm.Label "cs.lit_bss";
    Asm.Word_sym "__bss_start";
  ]

(* spawn_helper(): the execlp@plt reference (DHCP client helper). *)
let spawn_helper =
  [
    Asm.Label "spawn_helper";
    i (Push [ R4; LR ]);
    Asm.Ldr_sym (R0, "sh.lit_dhclient");
    i (Mov (R1, Imm 0));
    Asm.Bl_sym "execlp@plt";
    i (Pop [ R4; PC ]);
    Asm.Label "sh.lit_dhclient";
    Asm.Word_sym "str_dhclient";
  ]

(* event_dispatch: restores a full dispatch context — its epilogue is the
   §III-B2 gadget `pop {r0, r1, r2, r3, r5, r6, r7, pc}`. *)
let event_dispatch =
  [
    Asm.Label "event_dispatch";
    i (Push [ R0; R1; R2; R3; R5; R6; R7; LR ]);
    i (Mov (R0, Imm 0));
    i (Pop [ R0; R1; R2; R3; R5; R6; R7; PC ]);
  ]

(* call_handler(r3 = handler): indirect dispatch through blx — the word
   after the blx is `pop {r4, pc}`, which is what makes the §III-C2
   memcpy chain resumable. *)
let call_handler =
  [
    Asm.Label "call_handler";
    i (Push [ R4; LR ]);
    i (Blx_r R3);
    i (Pop [ R4; PC ]);
  ]

let checksum =
  [
    Asm.Label "checksum";
    i (Push [ R4; LR ]);
    i (Mov (R2, Reg R0));
    i (Mov (R0, Imm 0));
    Asm.Label "ck.loop";
    i (Ldrb (R3, R2, 0));
    i (Cmp (R3, Imm 0));
    Asm.B_sym (EQ, "ck.done");
    i (Add (R0, R0, Reg R3));
    i (Add (R2, R2, Imm 1));
    Asm.B_sym (AL, "ck.loop");
    Asm.Label "ck.done";
    i (Pop [ R4; PC ]);
  ]

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
    Asm.Align 4;
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
    ("event_dispatch", event_dispatch);
    ("call_handler", call_handler);
    ("checksum", checksum);
    ("rodata", rodata ~version);
  ]

let code text = { Loader.Process.arch = Loader.Arch.Arm; text }

(* The chunks are pure data of (version, profile), and so is what the
   variant pass prepares from them and the stock spec (the template's
   unshuffled program): both are built once per pair. *)
let prepared = Hashtbl.create 8

let prepare ~version ~profile =
  match Hashtbl.find_opt prepared (version, profile) with
  | Some p -> p
  | None ->
      let t = Diversity.Variant.arm_template (Version.rotate version (chunks ~version ~profile)) in
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
