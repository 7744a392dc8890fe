(* Tests for the loader: layout, PLT/GOT, libc, ASLR, protections. *)

module Mem = Memsim.Memory
module O = Machine.Outcome
open Loader

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A minimal x86 guest: copy "hi!" into .bss via memcpy@plt and return the
   bss address. *)
let x86_spec =
  let open Isa_x86 in
  let open Isa_x86.Insn in
  {
    Process.name = "mini-x86";
    imports = [ "memcpy"; "execlp"; "exit" ];
    bss_size = 0x1000;
    code =
      Process.x86_code
        [
          Asm.Label "main";
          Asm.I (Push_i 4);
          Asm.Push_sym "greeting";
          Asm.Push_sym "__bss_start";
          Asm.Call "memcpy@plt";
          Asm.I (Add_i (Reg ESP, 0xC));
          Asm.Mov_ri_sym (EAX, "__bss_start");
          Asm.I Ret;
          Asm.Label "spawn";
          (* execlp("sh", NULL) — creates the PLT entry §III-C needs. *)
          Asm.I (Push_i 0);
          Asm.Push_sym "sh_name";
          Asm.Call "execlp@plt";
          Asm.I Ret;
          Asm.Label "greeting";
          Asm.Bytes "hi!\x00";
          Asm.Label "sh_name";
          Asm.Bytes "sh\x00";
        ];
  }

let arm_spec =
  let open Isa_arm in
  let open Isa_arm.Insn in
  let i op = Asm.I (al op) in
  {
    Process.name = "mini-arm";
    imports = [ "memcpy"; "execlp"; "exit" ];
    bss_size = 0x1000;
    code =
      Process.arm_code
        [
          Asm.Label "main";
          i (Push [ R4; LR ]);
          Asm.Ldr_sym (R0, "lit_bss");
          Asm.Ldr_sym (R1, "lit_greeting");
          i (Mov (R2, Imm 4));
          Asm.Bl_sym "memcpy@plt";
          Asm.Ldr_sym (R0, "lit_bss");
          i (Pop [ R4; PC ]);
          Asm.Label "spawn";
          i (Push [ R4; LR ]);
          Asm.Ldr_sym (R0, "lit_sh");
          i (Mov (R1, Imm 0));
          Asm.Bl_sym "execlp@plt";
          i (Pop [ R4; PC ]);
          Asm.Label "lit_bss";
          Asm.Word_sym "__bss_start";
          Asm.Label "lit_greeting";
          Asm.Word_sym "greeting";
          Asm.Label "lit_sh";
          Asm.Word_sym "sh_name";
          Asm.Label "greeting";
          Asm.Bytes "hi!\x00";
          Asm.Label "sh_name";
          Asm.Bytes "sh\x00";
        ];
  }

let boot ?(profile = Defense.Profile.wx) ?(seed = 1) spec =
  Process.boot spec ~profile ~seed

let test_x86_boot_and_call () =
  let p = boot x86_spec in
  let r = Process.call_named p ~entry:"main" ~args:[] in
  check_bool "halted" true (r.Process.outcome = O.Halted);
  check_int "returned bss" p.Process.layout.Layout.bss_base r.Process.ret;
  check_string "memcpy wrote through PLT" "hi!"
    (Mem.read_cstring p.Process.mem p.Process.layout.Layout.bss_base)

let test_arm_boot_and_call () =
  let p = boot arm_spec in
  let r = Process.call_named p ~entry:"main" ~args:[] in
  check_bool "halted" true (r.Process.outcome = O.Halted);
  check_string "memcpy wrote through PLT" "hi!"
    (Mem.read_cstring p.Process.mem p.Process.layout.Layout.bss_base)

let test_exec_outcome_x86 () =
  let p = boot x86_spec in
  let r = Process.call_named p ~entry:"spawn" ~args:[] in
  match r.Process.outcome with
  | O.Exec { path; args } ->
      check_string "path" "sh" path;
      check_bool "no args" true (args = []);
      check_bool "is shell" true (O.is_shell r.Process.outcome)
  | other -> Alcotest.failf "expected Exec, got %s" (O.to_string other)

let test_exec_outcome_arm () =
  let p = boot arm_spec in
  let r = Process.call_named p ~entry:"spawn" ~args:[] in
  check_bool "shell" true (O.is_shell r.Process.outcome)

let test_text_not_writable () =
  let p = boot x86_spec in
  match Mem.write_u8 p.Process.mem p.Process.layout.Layout.text_base 0 with
  | () -> Alcotest.fail "text should be write-protected"
  | exception Mem.Fault f -> check_bool "perm" true (f.Mem.kind = Mem.Perm_write)

let test_stack_nx_per_profile () =
  let nx = boot ~profile:Defense.Profile.wx x86_spec in
  let stack = Mem.find_region nx.Process.mem "stack" in
  check_bool "wx: stack not executable" false stack.Mem.perm.Mem.execute;
  let lax = boot ~profile:Defense.Profile.none x86_spec in
  let stack = Mem.find_region lax.Process.mem "stack" in
  check_bool "none: stack executable" true stack.Mem.perm.Mem.execute

let test_aslr_moves_libc_and_stack () =
  let profile = Defense.Profile.wx_aslr in
  let a = boot ~profile ~seed:11 x86_spec and b = boot ~profile ~seed:22 x86_spec in
  check_bool "libc differs across boots" true
    (a.Process.layout.Layout.libc_base <> b.Process.layout.Layout.libc_base);
  check_bool "stack differs across boots" true
    (a.Process.layout.Layout.stack_top <> b.Process.layout.Layout.stack_top);
  (* text/plt/bss are non-PIE: identical across boots. *)
  check_int "text fixed" a.Process.layout.Layout.text_base
    b.Process.layout.Layout.text_base;
  check_int "bss fixed" a.Process.layout.Layout.bss_base
    b.Process.layout.Layout.bss_base;
  check_int "plt fixed"
    (Process.symbol a "memcpy@plt")
    (Process.symbol b "memcpy@plt")

let test_aslr_deterministic_per_seed () =
  let profile = Defense.Profile.wx_aslr in
  let a = boot ~profile ~seed:7 x86_spec and b = boot ~profile ~seed:7 x86_spec in
  check_int "same seed, same libc"
    a.Process.layout.Layout.libc_base b.Process.layout.Layout.libc_base

let test_no_aslr_uses_static_bases () =
  let p = boot ~profile:Defense.Profile.wx x86_spec in
  check_int "static libc"
    (Layout.libc_base_static Arch.X86)
    p.Process.layout.Layout.libc_base;
  check_int "static stack top"
    (Layout.stack_top_static Arch.X86)
    p.Process.layout.Layout.stack_top

let test_got_filled_with_libc_addrs () =
  let p = boot x86_spec in
  let got = p.Process.layout.Layout.got_base in
  let memcpy_libc = Process.symbol p "memcpy" in
  check_int "got[0] resolves memcpy" memcpy_libc (Mem.read_u32 p.Process.mem got)

let test_canary_written () =
  let profile = Defense.Profile.(with_canary wx) in
  let p = boot ~profile ~seed:5 x86_spec in
  (match p.Process.layout.Layout.canary_value with
  | Some v ->
      check_int "cookie in tls" v
        (Mem.read_u32 p.Process.mem p.Process.layout.Layout.tls_base);
      check_int "low byte is NUL" 0 (v land 0xFF)
  | None -> Alcotest.fail "expected canary");
  let q = boot ~profile ~seed:6 x86_spec in
  check_bool "cookie differs per boot" true
    (p.Process.layout.Layout.canary_value <> q.Process.layout.Layout.canary_value)

let test_symbols_present () =
  let p = boot x86_spec in
  List.iter
    (fun s ->
      check_bool (s ^ " present") true (Process.symbol_opt p s <> None))
    [ "main"; "memcpy@plt"; "execlp@plt"; "memcpy"; "system"; "str_bin_sh";
      "__bss_start"; "__canary" ]

let test_bin_sh_lives_in_libc () =
  let p = boot x86_spec in
  let addr = Process.symbol p "str_bin_sh" in
  check_string "/bin/sh" "/bin/sh" (Mem.read_cstring p.Process.mem addr);
  match Mem.region_at p.Process.mem addr with
  | Some r -> check_string "region" "libc" r.Mem.name
  | None -> Alcotest.fail "unmapped"

let test_arm_plt_indirection () =
  let p = boot arm_spec in
  (* The ARM PLT stub's literal (entry+12) holds the GOT slot address and
     the slot holds the libc address. *)
  let stub = Process.symbol p "memcpy@plt" in
  let slot = Mem.read_u32 p.Process.mem (stub + 12) in
  check_int "slot in got range" p.Process.layout.Layout.got_base slot;
  check_int "slot resolves" (Process.symbol p "memcpy")
    (Mem.read_u32 p.Process.mem slot)

let test_all_imports_have_plt_and_got () =
  List.iter
    (fun spec ->
      let p = boot spec in
      List.iteri
        (fun i f ->
          let stub = Process.symbol p (f ^ "@plt") in
          let libc = Process.symbol p f in
          (* Stubs are laid out sequentially in .plt. *)
          check_bool (f ^ " stub in .plt") true
            (stub >= p.Process.layout.Layout.plt_base
            && stub < p.Process.layout.Layout.plt_base + p.Process.layout.Layout.plt_size);
          (* The i-th GOT slot resolves to the libc symbol. *)
          check_int (f ^ " got slot")
            libc
            (Mem.read_u32 p.Process.mem (p.Process.layout.Layout.got_base + (4 * i))))
        spec.Process.imports)
    [ x86_spec; arm_spec ]

let test_heap_and_env_regions () =
  let p = boot x86_spec in
  let heap = Mem.find_region p.Process.mem "heap" in
  check_bool "heap rw" true (heap.Mem.perm.Mem.write && not heap.Mem.perm.Mem.execute);
  check_int "heap base" p.Process.layout.Layout.heap_base heap.Mem.base;
  (* The env page above the stack carries realistic strings. *)
  let env =
    Mem.read_cstring p.Process.mem p.Process.layout.Layout.stack_top
  in
  check_string "env content" "SHELL=/bin/sh" env

let test_trap_is_unmapped () =
  let p = boot x86_spec in
  check_bool "trap outside every mapping" true
    (Mem.region_at p.Process.mem p.Process.trap = None)

let test_call_with_step_observer () =
  let p = boot x86_spec in
  let pcs = ref 0 in
  let r =
    Process.call p ~on_step:(Machine.Hook.observer (fun _ -> incr pcs))
      ~entry:(Process.symbol p "main") ~args:[]
  in
  check_bool "halted" true (r.Process.outcome = Machine.Outcome.Halted);
  check_int "observer saw every instruction" r.Process.steps !pcs

let prop_entropy_distribution =
  QCheck.Test.make ~name:"aslr draws stay within entropy range" ~count:100
    QCheck.small_nat
    (fun seed ->
      let profile = Defense.Profile.(with_entropy 8 wx) in
      let p = boot ~profile ~seed x86_spec in
      let delta =
        Layout.libc_base_static Arch.X86 - p.Process.layout.Layout.libc_base
      in
      delta >= 0 && delta < 256 * Mem.page_size && delta mod Mem.page_size = 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "loader"
    [
      ( "boot+call",
        [
          Alcotest.test_case "x86 boots, PLT call works" `Quick test_x86_boot_and_call;
          Alcotest.test_case "arm boots, PLT call works" `Quick test_arm_boot_and_call;
          Alcotest.test_case "x86 exec reaches kernel" `Quick test_exec_outcome_x86;
          Alcotest.test_case "arm exec reaches kernel" `Quick test_exec_outcome_arm;
          Alcotest.test_case "symbols present" `Quick test_symbols_present;
          Alcotest.test_case "/bin/sh is in libc" `Quick test_bin_sh_lives_in_libc;
          Alcotest.test_case "arm PLT indirection" `Quick test_arm_plt_indirection;
          Alcotest.test_case "GOT eagerly bound" `Quick test_got_filled_with_libc_addrs;
          Alcotest.test_case "every import has PLT+GOT" `Quick
            test_all_imports_have_plt_and_got;
          Alcotest.test_case "heap and env regions" `Quick test_heap_and_env_regions;
          Alcotest.test_case "trap is unmapped" `Quick test_trap_is_unmapped;
          Alcotest.test_case "on_step observer" `Quick test_call_with_step_observer;
        ] );
      ( "protections",
        [
          Alcotest.test_case "text is read-only" `Quick test_text_not_writable;
          Alcotest.test_case "stack NX follows profile" `Quick
            test_stack_nx_per_profile;
          Alcotest.test_case "ASLR moves libc and stack" `Quick
            test_aslr_moves_libc_and_stack;
          Alcotest.test_case "ASLR deterministic per seed" `Quick
            test_aslr_deterministic_per_seed;
          Alcotest.test_case "no ASLR = static bases" `Quick
            test_no_aslr_uses_static_bases;
          Alcotest.test_case "canary cookie per boot" `Quick test_canary_written;
          qt prop_entropy_distribution;
        ] );
    ]
