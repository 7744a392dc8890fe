(* Differential testing of both interpreters against an OCaml reference
   evaluator: random straight-line arithmetic programs are generated as
   instruction lists, executed on the simulated CPU, and compared
   register-for-register against a pure-OCaml model of the same
   semantics.  This is the strongest evidence that "the machine" behaves
   like a machine. *)

module Mem = Memsim.Memory
module Word = Memsim.Word
module O = Machine.Outcome

let no_kernel _ _ = O.Stop (O.Aborted "unexpected syscall")

(* ------------------------------------------------------------------ *)
(* x86                                                                  *)
(* ------------------------------------------------------------------ *)

module X86_ref = struct
  open Isa_x86.Insn

  (* Reference state: 8 registers; only register-to-register data
     operations are modelled (the generator emits nothing else). *)
  type t = int array

  let exec (st : t) = function
    | Mov_ri (r, i) -> st.(reg_index r) <- Word.of_int i
    | Mov (Reg d, Reg s) -> st.(reg_index d) <- st.(reg_index s)
    | Add (Reg d, Reg s) ->
        st.(reg_index d) <- Word.add st.(reg_index d) st.(reg_index s)
    | Add_i (Reg d, i) -> st.(reg_index d) <- Word.add st.(reg_index d) i
    | Sub (Reg d, Reg s) ->
        st.(reg_index d) <- Word.sub st.(reg_index d) st.(reg_index s)
    | Sub_i (Reg d, i) -> st.(reg_index d) <- Word.sub st.(reg_index d) i
    | And (Reg d, Reg s) -> st.(reg_index d) <- st.(reg_index d) land st.(reg_index s)
    | Or (Reg d, Reg s) -> st.(reg_index d) <- st.(reg_index d) lor st.(reg_index s)
    | Xor (Reg d, Reg s) -> st.(reg_index d) <- st.(reg_index d) lxor st.(reg_index s)
    | Inc_r r -> st.(reg_index r) <- Word.add st.(reg_index r) 1
    | Dec_r r -> st.(reg_index r) <- Word.sub st.(reg_index r) 1
    | Shl_i (r, n) -> st.(reg_index r) <- Word.of_int (st.(reg_index r) lsl n)
    | Shr_i (r, n) -> st.(reg_index r) <- st.(reg_index r) lsr n
    | Neg (Reg r) -> st.(reg_index r) <- Word.neg st.(reg_index r)
    | Not (Reg r) -> st.(reg_index r) <- Word.lognot st.(reg_index r)
    | Imul (r, Reg s) ->
        st.(reg_index r) <- Word.mul st.(reg_index r) st.(reg_index s)
    | _ -> invalid_arg "X86_ref.exec: outside the modelled subset"
end

(* Registers the generator may write: everything except esp/ebp (which the
   harness owns). *)
let x86_regs = Isa_x86.Insn.[ EAX; ECX; EDX; EBX; ESI; EDI ]

let gen_x86_program : Isa_x86.Insn.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let open Isa_x86.Insn in
  let reg = oneofl x86_regs in
  let imm = map Word.to_signed (int_bound 0xFFFFFF) in
  let insn =
    oneof
      [
        map2 (fun r i -> Mov_ri (r, i)) reg imm;
        map2 (fun d s -> Mov (Reg d, Reg s)) reg reg;
        map2 (fun d s -> Add (Reg d, Reg s)) reg reg;
        map2 (fun d i -> Add_i (Reg d, i)) reg imm;
        map2 (fun d s -> Sub (Reg d, Reg s)) reg reg;
        map2 (fun d i -> Sub_i (Reg d, i)) reg imm;
        map2 (fun d s -> And (Reg d, Reg s)) reg reg;
        map2 (fun d s -> Or (Reg d, Reg s)) reg reg;
        map2 (fun d s -> Xor (Reg d, Reg s)) reg reg;
        map (fun r -> Inc_r r) reg;
        map (fun r -> Dec_r r) reg;
        map2 (fun r n -> Shl_i (r, n)) reg (int_range 0 31);
        map2 (fun r n -> Shr_i (r, n)) reg (int_range 0 31);
        map (fun r -> Neg (Reg r)) reg;
        map (fun r -> Not (Reg r)) reg;
        map2 (fun r s -> Imul (r, Reg s)) reg reg;
      ]
  in
  list_size (int_range 1 60) insn

let run_x86 insns =
  let mem = Mem.create () in
  let code =
    String.concat "" (List.map Isa_x86.Encode.encode insns)
    ^ Isa_x86.Encode.encode Isa_x86.Insn.Hlt
  in
  Mem.map mem ~base:0x1000
    ~size:(max 0x1000 (String.length code))
    ~perm:Mem.rx ~name:"text";
  Mem.poke_bytes mem 0x1000 code;
  Mem.map mem ~base:0x8000 ~size:0x1000 ~perm:Mem.rw ~name:"stack";
  let cpu = Isa_x86.Cpu.create ~icache:(Some (Isa_x86.Cpu.new_icache ())) mem in
  Isa_x86.Cpu.set cpu Isa_x86.Insn.ESP 0x8F00;
  cpu.Isa_x86.Cpu.eip <- 0x1000;
  match Isa_x86.Cpu.run ~fuel:10_000 ~traps:[] ~kernel:no_kernel ~hooks:[] cpu with
  | O.Halted -> Some (List.map (Isa_x86.Cpu.get cpu) x86_regs)
  | _ -> None

let prop_x86_differential =
  QCheck.Test.make ~name:"x86 interpreter = reference evaluator" ~count:500
    (QCheck.make
       ~print:(fun p -> String.concat "; " (List.map Isa_x86.Insn.to_string p))
       gen_x86_program)
    (fun program ->
      let st = Array.make 8 0 in
      List.iter (X86_ref.exec st) program;
      let expected = List.map (fun r -> st.(Isa_x86.Insn.reg_index r)) x86_regs in
      run_x86 program = Some expected)

(* ------------------------------------------------------------------ *)
(* ARM                                                                  *)
(* ------------------------------------------------------------------ *)

module Arm_ref = struct
  open Isa_arm.Insn

  type t = int array

  let op2 (st : t) = function
    | Imm i -> Word.of_int i
    | Reg r -> st.(reg_index r)
    | Lsl (r, n) -> Word.of_int (st.(reg_index r) lsl n)

  let exec (st : t) { cond; op } =
    assert (cond = AL);
    match op with
    | Mov (rd, o) -> st.(reg_index rd) <- op2 st o
    | Mvn (rd, o) -> st.(reg_index rd) <- Word.lognot (op2 st o)
    | Add (rd, rn, o) -> st.(reg_index rd) <- Word.add st.(reg_index rn) (op2 st o)
    | Sub (rd, rn, o) -> st.(reg_index rd) <- Word.sub st.(reg_index rn) (op2 st o)
    | Rsb (rd, rn, o) -> st.(reg_index rd) <- Word.sub (op2 st o) st.(reg_index rn)
    | And (rd, rn, o) -> st.(reg_index rd) <- st.(reg_index rn) land op2 st o
    | Orr (rd, rn, o) -> st.(reg_index rd) <- st.(reg_index rn) lor op2 st o
    | Eor (rd, rn, o) -> st.(reg_index rd) <- st.(reg_index rn) lxor op2 st o
    | Bic (rd, rn, o) ->
        st.(reg_index rd) <- st.(reg_index rn) land Word.lognot (op2 st o)
    | Mul (rd, rm, rs) ->
        st.(reg_index rd) <- Word.mul st.(reg_index rm) st.(reg_index rs)
    | _ -> invalid_arg "Arm_ref.exec: outside the modelled subset"
end

let arm_regs = Isa_arm.Insn.[ R0; R1; R2; R3; R4; R5; R6; R7; R8 ]

let gen_arm_program : Isa_arm.Insn.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let open Isa_arm.Insn in
  let reg = oneofl arm_regs in
  let enc_imm =
    map2 (fun imm8 rot -> Word.ror imm8 (2 * rot)) (int_bound 255) (int_bound 15)
  in
  let op2 =
    oneof
      [
        map (fun i -> Imm i) enc_imm;
        map (fun r -> Reg r) reg;
        map2 (fun r n -> Lsl (r, n)) reg (int_range 1 31);
      ]
  in
  let insn =
    oneof
      [
        map2 (fun r o -> al (Mov (r, o))) reg op2;
        map2 (fun r o -> al (Mvn (r, o))) reg op2;
        map3 (fun d n o -> al (Add (d, n, o))) reg reg op2;
        map3 (fun d n o -> al (Sub (d, n, o))) reg reg op2;
        map3 (fun d n o -> al (Rsb (d, n, o))) reg reg op2;
        map3 (fun d n o -> al (And (d, n, o))) reg reg op2;
        map3 (fun d n o -> al (Orr (d, n, o))) reg reg op2;
        map3 (fun d n o -> al (Eor (d, n, o))) reg reg op2;
        map3 (fun d n o -> al (Bic (d, n, o))) reg reg op2;
        map3 (fun d m s -> al (Mul (d, m, s))) reg reg reg;
      ]
  in
  list_size (int_range 1 60) insn

let run_arm insns =
  let mem = Mem.create () in
  let code =
    String.concat "" (List.map Isa_arm.Encode.encode insns)
    ^ Isa_arm.Encode.encode (Isa_arm.Insn.al (Isa_arm.Insn.Svc 0xFF))
  in
  Mem.map mem ~base:0x1000
    ~size:(max 0x1000 (String.length code))
    ~perm:Mem.rx ~name:"text";
  Mem.poke_bytes mem 0x1000 code;
  Mem.map mem ~base:0x8000 ~size:0x1000 ~perm:Mem.rw ~name:"stack";
  let cpu = Isa_arm.Cpu.create ~icache:(Some (Isa_arm.Cpu.new_icache ())) mem in
  Isa_arm.Cpu.set cpu Isa_arm.Insn.SP 0x8F00;
  Isa_arm.Cpu.set_pc cpu 0x1000;
  let kernel n _ = if n = 0xFF then O.Stop O.Halted else O.Resume in
  match Isa_arm.Cpu.run ~fuel:10_000 ~traps:[] ~kernel ~hooks:[] cpu with
  | O.Halted -> Some (List.map (Isa_arm.Cpu.get cpu) arm_regs)
  | _ -> None

let prop_arm_differential =
  QCheck.Test.make ~name:"arm interpreter = reference evaluator" ~count:500
    (QCheck.make
       ~print:(fun p -> String.concat "; " (List.map Isa_arm.Insn.to_string p))
       gen_arm_program)
    (fun program ->
      let st = Array.make 16 0 in
      (* Architectural PC reads as insn+8: the generator never reads PC
         (it is not in arm_regs), so a flat state works. *)
      List.iter (Arm_ref.exec st) program;
      let expected = List.map (fun r -> st.(Isa_arm.Insn.reg_index r)) arm_regs in
      run_arm program = Some expected)

(* ------------------------------------------------------------------ *)
(* Equivalent-instruction randomization preserves semantics (§IV)       *)
(* ------------------------------------------------------------------ *)

(* How many positions of two equal-length item lists differ. *)
let changed_items a b = List.length (List.filter Fun.id (List.map2 ( <> ) a b))

let prop_equiv_x86_preserves_semantics =
  QCheck.Test.make ~name:"equiv rewrite preserves x86 semantics" ~count:300
    QCheck.(make Gen.(pair (int_bound 0xFFFF) gen_x86_program))
    (fun (seed, program) ->
      let items = List.map (fun i -> Isa_x86.Asm.I i) program in
      let rewritten_items, rewrites = Defense.Equiv.x86 ~seed items in
      let rewritten =
        List.filter_map
          (function Isa_x86.Asm.I i -> Some i | _ -> None)
          rewritten_items
      in
      rewrites = changed_items items rewritten_items
      && run_x86 program = run_x86 rewritten)

let prop_equiv_arm_preserves_semantics =
  QCheck.Test.make ~name:"equiv rewrite preserves arm semantics" ~count:300
    QCheck.(make Gen.(pair (int_bound 0xFFFF) gen_arm_program))
    (fun (seed, program) ->
      let items = List.map (fun i -> Isa_arm.Asm.I i) program in
      let rewritten_items, rewrites = Defense.Equiv.arm ~seed items in
      let rewritten =
        List.filter_map
          (function Isa_arm.Asm.I i -> Some i | _ -> None)
          rewritten_items
      in
      rewrites = changed_items items rewritten_items
      && run_arm program = run_arm rewritten)

let test_equiv_actually_rewrites () =
  (* A zero-heavy program gives the pass plenty of targets. *)
  let open Isa_x86.Insn in
  let program =
    List.concat
      (List.init 32 (fun _ ->
           [ Isa_x86.Asm.I (Mov_ri (EAX, 0)); Isa_x86.Asm.I (Inc_r ECX) ]))
  in
  let ((rewritten, rewrites) as r) = Defense.Equiv.x86 ~seed:5 program in
  Alcotest.(check bool) "some rewrites happened" true (rewrites > 5);
  (* The count is the number of items the rewrite changed. *)
  Alcotest.(check int)
    "count = changed items" rewrites
    (changed_items program rewritten);
  (* Determinism per seed. *)
  Alcotest.(check bool)
    "deterministic" true
    (Defense.Equiv.x86 ~seed:5 program = r);
  Alcotest.(check bool)
    "seed-dependent" true
    (fst (Defense.Equiv.x86 ~seed:6 program) <> rewritten)

(* ------------------------------------------------------------------ *)
(* Cross-ISA: the same abstract computation on both machines            *)
(* ------------------------------------------------------------------ *)

(* A tiny abstract expression machine lowered to both ISAs; both must
   compute the same 32-bit result. *)
type expr_op = Oadd | Osub | Oxor | Oand | Oor

let gen_expr : (int * (expr_op * int) list) QCheck.Gen.t =
  QCheck.Gen.(
    pair (int_bound 0xFFFF)
      (list_size (int_range 1 20)
         (pair (oneofl [ Oadd; Osub; Oxor; Oand; Oor ]) (int_bound 0xFF))))

let eval_expr (init, steps) =
  List.fold_left
    (fun acc (op, v) ->
      match op with
      | Oadd -> Word.add acc v
      | Osub -> Word.sub acc v
      | Oxor -> acc lxor v
      | Oand -> acc land v
      | Oor -> acc lor v)
    (Word.of_int init) steps

(* xor/and/or with immediates are outside the x86 subset: lower through a
   scratch register. *)
let lower_x86 (init, steps) =
  let open Isa_x86.Insn in
  Mov_ri (EAX, init)
  :: List.concat_map
       (fun (op, v) ->
         match op with
         | Oadd -> [ Add_i (Reg EAX, v) ]
         | Osub -> [ Sub_i (Reg EAX, v) ]
         | Oxor -> [ Mov_ri (ECX, v); Xor (Reg EAX, Reg ECX) ]
         | Oand -> [ Mov_ri (ECX, v); And (Reg EAX, Reg ECX) ]
         | Oor -> [ Mov_ri (ECX, v); Or (Reg EAX, Reg ECX) ])
       steps

let lower_arm (init, steps) =
  let open Isa_arm.Insn in
  al (Mov (R0, Imm (init land 0xFF)))
  :: al (Orr (R0, R0, Imm (init land 0xFF00)))
  :: List.map
       (fun (op, v) ->
         match op with
         | Oadd -> al (Add (R0, R0, Imm v))
         | Osub -> al (Sub (R0, R0, Imm v))
         | Oxor -> al (Eor (R0, R0, Imm v))
         | Oand -> al (And (R0, R0, Imm v))
         | Oor -> al (Orr (R0, R0, Imm v)))
       steps

let prop_cross_isa =
  QCheck.Test.make ~name:"same computation on both ISAs" ~count:300 (QCheck.make gen_expr)
    (fun expr ->
      let expected = eval_expr expr in
      let x86 =
        match run_x86 (lower_x86 expr) with
        | Some (eax :: _) -> eax
        | _ -> -1
      in
      let arm =
        match run_arm (lower_arm expr) with Some (r0 :: _) -> r0 | _ -> -2
      in
      x86 = expected && arm = expected)

(* ------------------------------------------------------------------ *)
(* Decoded-instruction cache: cached and uncached execution are          *)
(* bit-identical over every exploit scenario                             *)
(* ------------------------------------------------------------------ *)

(* The icache's correctness argument is "the cache only changes speed,
   never outcomes".  These tests discharge it end-to-end: every §III
   exploit cell (plus a benign parse) is run through the machine-level
   [parse_response] twice — once with the cache, once decoding every
   step — and the full run result (stop reason, instructions retired,
   return value, final register file) must match exactly.  The exploit
   payloads are the hardest workloads the simulator has: smashed stacks,
   pivots, nop sleds, shellcode executing out of freshly written pages. *)

let lookup_name = Dns.Name.of_string "ipv4.connman.net"

let check_same_run name (a : Loader.Process.run_result) (b : Loader.Process.run_result) =
  Alcotest.(check string)
    (name ^ ": outcome")
    (Format.asprintf "%a" O.pp a.Loader.Process.outcome)
    (Format.asprintf "%a" O.pp b.Loader.Process.outcome);
  Alcotest.(check int) (name ^ ": steps") a.Loader.Process.steps b.Loader.Process.steps;
  Alcotest.(check int) (name ^ ": ret") a.Loader.Process.ret b.Loader.Process.ret;
  Alcotest.(check (array int))
    (name ^ ": registers")
    a.Loader.Process.regs b.Loader.Process.regs

(* One victim boot + one machine-level parse of [wire], with or without
   the icache.  Both boots use the same config and seed, so they are the
   same device down to the ASLR draw and canary — only the interpreter's
   caching differs. *)
let parse_once ~icache ~config ~raw_name =
  let d = Connman.Dnsproxy.create config in
  let query = Connman.Dnsproxy.make_query d lookup_name in
  let wire = Exploit.Autogen.response_for ~query ~raw_name in
  let proc = Connman.Dnsproxy.process d in
  let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
  Mem.write_bytes proc.Loader.Process.mem buf wire;
  Loader.Process.call proc ~fuel:400_000 ~icache
    ~entry:(Loader.Process.symbol proc "parse_response")
    ~args:[ buf; String.length wire ]

let exploit_cells =
  [
    ("E1 injection/x86", Loader.Arch.X86, Defense.Profile.none);
    ("E2 injection/arm", Loader.Arch.Arm, Defense.Profile.none);
    ("E3 ret2libc/x86", Loader.Arch.X86, Defense.Profile.wx);
    ("E4 rop/arm", Loader.Arch.Arm, Defense.Profile.wx);
    ("E5 rop-aslr/x86", Loader.Arch.X86, Defense.Profile.wx_aslr);
    ("E6 rop-aslr/arm", Loader.Arch.Arm, Defense.Profile.wx_aslr);
  ]

let test_cached_uncached_exploits () =
  List.iter
    (fun (name, arch, profile) ->
      let config =
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch;
          profile;
          boot_seed = 41;
          diversity_seed = None;
        }
      in
      (* Attacker side: analysis copy of the same firmware, different
         boot, default ([choose]-picked) strategy for the cell. *)
      let analysis =
        Connman.Dnsproxy.process
          (Connman.Dnsproxy.create { config with Connman.Dnsproxy.boot_seed = 1041 })
      in
      match Exploit.Autogen.generate ~analysis:(Exploit.Target.connman analysis) () with
      | Error e -> Alcotest.failf "%s: generation failed: %s" name e
      | Ok (_payload, raw_name) ->
          let cached = parse_once ~icache:true ~config ~raw_name in
          let uncached = parse_once ~icache:false ~config ~raw_name in
          check_same_run name cached uncached;
          Alcotest.(check bool)
            (name ^ ": scenario actually ran")
            true
            (cached.Loader.Process.steps > 100))
    exploit_cells

let test_cached_uncached_dos () =
  List.iter
    (fun (arch, tag) ->
      let config =
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch;
          profile = Defense.Profile.wx_aslr;
          boot_seed = 7;
          diversity_seed = None;
        }
      in
      let analysis =
        Connman.Dnsproxy.process
          (Connman.Dnsproxy.create { config with Connman.Dnsproxy.boot_seed = 1007 })
      in
      match
        Exploit.Autogen.generate
          ~analysis:(Exploit.Target.connman analysis)
          ~strategy:Exploit.Autogen.Dos ()
      with
      | Error e -> Alcotest.failf "dos/%s: generation failed: %s" tag e
      | Ok (_payload, raw_name) ->
          check_same_run ("dos/" ^ tag)
            (parse_once ~icache:true ~config ~raw_name)
            (parse_once ~icache:false ~config ~raw_name))
    [ (Loader.Arch.X86, "x86"); (Loader.Arch.Arm, "arm") ]

let test_cached_uncached_benign () =
  List.iter
    (fun (arch, tag) ->
      let config =
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch;
          profile = Defense.Profile.wx_aslr;
          boot_seed = 23;
          diversity_seed = None;
        }
      in
      let parse ~icache =
        let d = Connman.Dnsproxy.create config in
        let query = Connman.Dnsproxy.make_query d lookup_name in
        let wire =
          Dns.Packet.encode
            (Dns.Packet.response ~query
               [ Dns.Packet.a_record lookup_name ~ttl:60 ~ipv4:0x5DB8D822 ])
        in
        let proc = Connman.Dnsproxy.process d in
        let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
        Mem.write_bytes proc.Loader.Process.mem buf wire;
        Loader.Process.call proc ~fuel:400_000 ~icache
          ~entry:(Loader.Process.symbol proc "parse_response")
          ~args:[ buf; String.length wire ]
      in
      let cached = parse ~icache:true in
      check_same_run ("benign/" ^ tag) cached (parse ~icache:false);
      Alcotest.(check string)
        ("benign/" ^ tag ^ ": parse succeeded")
        "halted (normal return)"
        (Format.asprintf "%a" O.pp cached.Loader.Process.outcome))
    [ (Loader.Arch.X86, "x86"); (Loader.Arch.Arm, "arm") ]

(* ------------------------------------------------------------------ *)
(* The persistent, fork-shared icache: every starting point a process   *)
(* can run from gives the reference result                              *)
(* ------------------------------------------------------------------ *)

(* A process's icache outlives its calls and a fork finds its
   template's entries, so a parse can start cold (fresh boot), warm (the
   same process after a parse and a restore) or from a fork of a warmed
   template.  Each
   starting point restores the boot state exactly, so all three must
   equal the uncached reference from a cold boot. *)

let victim config = Connman.Dnsproxy.process (Connman.Dnsproxy.create config)

let parse_wire ~icache proc wire =
  let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
  Mem.write_bytes proc.Loader.Process.mem buf wire;
  Loader.Process.call proc ~fuel:400_000 ~icache
    ~entry:(Loader.Process.symbol proc "parse_response")
    ~args:[ buf; String.length wire ]

let benign_wire config =
  let d = Connman.Dnsproxy.create config in
  let query = Connman.Dnsproxy.make_query d lookup_name in
  Dns.Packet.encode
    (Dns.Packet.response ~query
       [ Dns.Packet.a_record lookup_name ~ttl:60 ~ipv4:0x5DB8D822 ])

(* The oversized-name response that crashes a vulnerable parse. *)
let dos_payload_wire config =
  let d = Connman.Dnsproxy.create config in
  let query = Connman.Dnsproxy.make_query d lookup_name in
  Dns.Craft.hostile_response ~query ~raw_name:(Dns.Craft.dos_name ~size:8192) ()

(* Run a benign parse, then rewind to the boot state; returns the boot
   snapshot. *)
let warm config proc =
  let snap = Loader.Process.snapshot proc in
  ignore (parse_wire ~icache:true proc (benign_wire config));
  Loader.Process.restore proc snap;
  snap

let config_for ~arch ~profile ~boot_seed =
  {
    Connman.Dnsproxy.version = Connman.Version.v1_34;
    arch;
    profile;
    boot_seed;
    diversity_seed = None;
  }

(* Every cell's (name, victim config, wire): the six exploit cells, the
   DoS and a benign parse on both ISAs. *)
let starting_point_cases () =
  let crafted name config ?strategy analysis_seed =
    let analysis =
      victim { config with Connman.Dnsproxy.boot_seed = analysis_seed }
    in
    match
      Exploit.Autogen.generate ~analysis:(Exploit.Target.connman analysis)
        ?strategy ()
    with
    | Error e -> Alcotest.failf "%s: generation failed: %s" name e
    | Ok (_payload, raw_name) ->
        let d = Connman.Dnsproxy.create config in
        let query = Connman.Dnsproxy.make_query d lookup_name in
        (name, config, Exploit.Autogen.response_for ~query ~raw_name)
  in
  let isas = [ (Loader.Arch.X86, "x86"); (Loader.Arch.Arm, "arm") ] in
  List.map
    (fun (name, arch, profile) ->
      crafted name (config_for ~arch ~profile ~boot_seed:41) 1041)
    exploit_cells
  @ List.map
      (fun (arch, tag) ->
        crafted ("dos/" ^ tag)
          (config_for ~arch ~profile:Defense.Profile.wx_aslr ~boot_seed:7)
          ~strategy:Exploit.Autogen.Dos 1007)
      isas
  @ List.map
      (fun (arch, tag) ->
        let config =
          config_for ~arch ~profile:Defense.Profile.wx_aslr ~boot_seed:23
        in
        ("benign/" ^ tag, config, benign_wire config))
      isas

let test_starting_points () =
  List.iter
    (fun (name, config, wire) ->
      let reference = parse_wire ~icache:false (victim config) wire in
      check_same_run (name ^ " cold")
        (parse_wire ~icache:true (victim config) wire)
        reference;
      let p = victim config in
      ignore (warm config p);
      check_same_run (name ^ " warm after restore")
        (parse_wire ~icache:true p wire)
        reference;
      let template = victim config in
      let snap = warm config template in
      check_same_run (name ^ " fork of a warmed template")
        (parse_wire ~icache:true (Loader.Process.fork template snap) wire)
        reference)
    (starting_point_cases ())

(* The counts a call reports are its own: a repeat parse, and a fork of
   a warmed template, compile nothing. *)
let test_warm_calls_compile_nothing () =
  List.iter
    (fun (arch, tag) ->
      let config =
        config_for ~arch ~profile:Defense.Profile.wx_aslr ~boot_seed:23
      in
      let wire = benign_wire config in
      let p = victim config in
      let snap = Loader.Process.snapshot p in
      let first = parse_wire ~icache:true p wire in
      Alcotest.(check bool)
        (tag ^ ": a cold parse compiles") true
        (first.Loader.Process.icache_misses > 0);
      let second = parse_wire ~icache:true p wire in
      Alcotest.(check int) (tag ^ ": second call misses") 0
        second.Loader.Process.icache_misses;
      Alcotest.(check int)
        (tag ^ ": every step of the second call hits")
        second.Loader.Process.steps second.Loader.Process.icache_hits;
      let forked = parse_wire ~icache:true (Loader.Process.fork p snap) wire in
      Alcotest.(check int) (tag ^ ": fork of a warmed template misses") 0
        forked.Loader.Process.icache_misses;
      check_same_run (tag ^ ": fork = template") first forked)
    [ (Loader.Arch.X86, "x86"); (Loader.Arch.Arm, "arm") ]

(* A diversified variant's text is unique to it: it compiles its own,
   gets the uncached result, and leaves the template's entries alone. *)
let test_diversified_fork_own_cache () =
  List.iter
    (fun (arch, tag) ->
      let config =
        config_for ~arch ~profile:Defense.Profile.wx_aslr ~boot_seed:23
      in
      let wire = benign_wire config in
      let template = Connman.Dnsproxy.create config in
      let tproc = Connman.Dnsproxy.process template in
      let tsnap = warm config tproc in
      let variant =
        Connman.Dnsproxy.process
          (Connman.Dnsproxy.fork_diversified template ~diversity_seed:5)
      in
      let vsnap = Loader.Process.snapshot variant in
      let cached = parse_wire ~icache:true variant wire in
      Alcotest.(check bool)
        (tag ^ ": the variant compiles its own text") true
        (cached.Loader.Process.icache_misses > 0);
      Loader.Process.restore variant vsnap;
      check_same_run (tag ^ ": variant cached = uncached") cached
        (parse_wire ~icache:false variant wire);
      Loader.Process.restore tproc tsnap;
      Alcotest.(check int)
        (tag ^ ": the template's entries survive the variant") 0
        (parse_wire ~icache:true tproc wire).Loader.Process.icache_misses)
    [ (Loader.Arch.X86, "x86"); (Loader.Arch.Arm, "arm") ]

(* The generation of the entry [owner]'s own icache table holds at
   [addr], peeked through a fresh view over [mem]: 0 when it holds none. *)
let entry_gen (owner : Loader.Process.t) mem addr =
  match owner.Loader.Process.icache with
  | Loader.Process.X86_icache c ->
      (Memsim.Icache.peek (Memsim.Icache.view c mem) addr).Memsim.Icache.lo_gen
  | Loader.Process.Arm_icache c ->
      (Memsim.Icache.peek (Memsim.Icache.view c mem) addr).Memsim.Icache.lo_gen

let in_text p pc =
  let l = p.Loader.Process.layout in
  pc >= l.Loader.Layout.text_base && pc < l.Loader.Layout.text_base + l.Loader.Layout.text_size

(* A parse of [wire] by [p] that also returns the pcs it ran for which
   [keep] holds. *)
let parse_seeing p wire keep =
  let pcs = Hashtbl.create 64 in
  let buf = p.Loader.Process.layout.Loader.Layout.heap_base in
  Mem.write_bytes p.Loader.Process.mem buf wire;
  let r =
    Loader.Process.call p ~fuel:400_000
      ~on_step:(Machine.Hook.observer (fun pc -> if keep pc then Hashtbl.replace pcs pc ()))
      ~entry:(Loader.Process.symbol p "parse_response")
      ~args:[ buf; String.length wire ]
  in
  (r, List.of_seq (Hashtbl.to_seq_keys pcs))

(* A plain fork that runs the shellcode it wrote to its stack (E1, E2)
   decodes it into its own table: the template's holds no entry under a
   generation the fork drew, and the fork's holds the ones it ran. *)
let test_fork_stack_code_own () =
  List.iter
    (fun (name, config, wire) ->
      if List.mem (String.sub name 0 2) [ "E1"; "E2" ] then begin
        let template = victim config in
        let snap = Loader.Process.snapshot template in
        let born = Mem.generation () in
        let fork = Loader.Process.fork template snap in
        let l = fork.Loader.Process.layout in
        let on_stack pc = pc >= l.Loader.Layout.stack_base && pc < l.Loader.Layout.stack_top in
        let r, pcs = parse_seeing fork wire on_stack in
        Alcotest.(check bool) (name ^ ": the fork ran stack code") true (pcs <> []);
        check_same_run (name ^ ": fork = uncached") r
          (parse_wire ~icache:false (Loader.Process.fork template snap) wire);
        List.iter
          (fun pc ->
            if entry_gen template fork.Loader.Process.mem pc > born then
              Alcotest.failf "%s: the template's table holds the fork's entry at 0x%x" name pc)
          pcs;
        Alcotest.(check bool)
          (name ^ ": the fork's table holds its stack code") true
          (List.exists (fun pc -> entry_gen fork fork.Loader.Process.mem pc > born) pcs)
      end)
    (starting_point_cases ())

(* A fork of a variant finds the variant's text in the variant's table
   (a warm variant's fork compiles nothing) and never fills it into the
   template's. *)
let test_fork_of_variant () =
  List.iter
    (fun (arch, tag) ->
      let config = config_for ~arch ~profile:Defense.Profile.wx_aslr ~boot_seed:23 in
      let wire = benign_wire config in
      let template = Connman.Dnsproxy.create config in
      let tproc = Connman.Dnsproxy.process template in
      ignore (warm config tproc);
      let variant =
        Connman.Dnsproxy.process (Connman.Dnsproxy.fork_diversified template ~diversity_seed:5)
      in
      let vsnap = Loader.Process.snapshot variant in
      ignore (parse_wire ~icache:true variant wire);
      Loader.Process.restore variant vsnap;
      let child = Loader.Process.fork variant vsnap in
      let r, pcs = parse_seeing child wire (in_text child) in
      Alcotest.(check int) (tag ^ ": a warm variant's fork misses") 0 r.Loader.Process.icache_misses;
      check_same_run (tag ^ ": variant's fork = uncached") r
        (parse_wire ~icache:false (Loader.Process.fork variant vsnap) wire);
      List.iter
        (fun pc ->
          if entry_gen tproc child.Loader.Process.mem pc = Mem.page_gen child.Loader.Process.mem pc
          then Alcotest.failf "%s: the template's table holds the variant's text at 0x%x" tag pc)
        pcs)
    [ (Loader.Arch.X86, "x86"); (Loader.Arch.Arm, "arm") ]

(* A variant starts warm: its icache owns its own text pages and finds
   every other page (libc, the PLT, the stack) in the template's family
   entries.  Random interleavings on a warmed template: plain forks
   parsing the benign response or the DoS, variants spawned and parsing
   either, variants storing bytes into their stack or their libc code
   and parsing again, and variants restored to their spawn state and
   parsing again.  Every parse runs cached, then again uncached from the
   same state, and the two must agree on outcome, steps and registers.
   Afterwards a plain fork's benign parse misses nothing: the template's
   text and libc entries survived every variant, including the ones
   that rewrote their own libc.  And a fresh variant's first parse
   misses exactly once per distinct instruction of its own text it
   runs, so nothing outside its text. *)

type warm_op =
  | Plain of bool  (* fork the template; parse the DoS (true) or the benign response *)
  | Spawn of int * bool  (* a variant of this seed, then the same parse *)
  | Store of int * bool * int * string  (* variant, libc (or stack), offset, bytes; benign parse *)
  | Again of int  (* restore a variant to its spawn state; benign parse *)

let pp_warm_op = function
  | Plain dos -> Printf.sprintf "plain %s" (if dos then "dos" else "benign")
  | Spawn (seed, dos) -> Printf.sprintf "variant #%d %s" seed (if dos then "dos" else "benign")
  | Store (k, libc, off, b) ->
      Printf.sprintf "v%d stores %S at %s+0x%x" k b (if libc then "libc" else "stack") off
  | Again k -> Printf.sprintf "v%d restored" k

let gen_warm_op =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun dos -> Plain dos) bool);
      (3, map2 (fun seed dos -> Spawn (seed, dos)) (int_range 1 10_000) bool);
      ( 3,
        map3
          (fun (k, libc) off b -> Store (k, libc, off, b))
          (pair (int_bound 7) bool) (int_bound 0xFFF)
          (string_size ~gen:char (int_range 1 8)) );
      (2, map (fun k -> Again k) (int_bound 7));
    ]

let warm_variants_case arch ops =
  let config = config_for ~arch ~profile:Defense.Profile.wx_aslr ~boot_seed:23 in
  let benign = benign_wire config and dos = dos_payload_wire config in
  let template = Connman.Dnsproxy.create config in
  let tproc = Connman.Dnsproxy.process template in
  let tsnap = warm config tproc in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let same what (a : Loader.Process.run_result) (b : Loader.Process.run_result) =
    if
      a.Loader.Process.outcome <> b.Loader.Process.outcome
      || a.Loader.Process.steps <> b.Loader.Process.steps
      || a.Loader.Process.regs <> b.Loader.Process.regs
    then
      fail "%s: cached %s after %d steps, uncached %s after %d steps" what
        (Format.asprintf "%a" O.pp a.Loader.Process.outcome)
        a.Loader.Process.steps
        (Format.asprintf "%a" O.pp b.Loader.Process.outcome)
        b.Loader.Process.steps
  in
  let parse what p wire =
    let snap = Loader.Process.snapshot p in
    let cached = parse_wire ~icache:true p wire in
    Loader.Process.restore p snap;
    same what cached (parse_wire ~icache:false p wire)
  in
  let variants = ref [||] in
  let variant k = !variants.(k mod Array.length !variants) in
  let spawn seed =
    let p =
      Connman.Dnsproxy.process (Connman.Dnsproxy.fork_diversified template ~diversity_seed:seed)
    in
    variants := Array.append !variants [| (p, Loader.Process.snapshot p) |];
    p
  in
  List.iteri
    (fun i op ->
      let what = Printf.sprintf "op %d (%s)" i (pp_warm_op op) in
      let wire d = if d then dos else benign in
      match op with
      | Plain d -> parse what (Loader.Process.fork tproc tsnap) (wire d)
      | Spawn (seed, d) -> parse what (spawn seed) (wire d)
      | Store (k, libc, off, b) when !variants <> [||] ->
          let p, _ = variant k in
          let l = p.Loader.Process.layout in
          let region = Mem.find_region p.Loader.Process.mem "libc" in
          let addr =
            if libc then region.Mem.base + (off mod (region.Mem.size - String.length b))
            else l.Loader.Layout.stack_top - 0x1000 + off
          in
          Mem.poke_bytes p.Loader.Process.mem addr b;
          parse what p benign
      | Again k when !variants <> [||] ->
          let p, snap = variant k in
          Loader.Process.restore p snap;
          parse what p benign
      | Store _ | Again _ -> ())
    ops;
  let misses = (parse_wire ~icache:true (Loader.Process.fork tproc tsnap) benign).Loader.Process.icache_misses in
  if misses <> 0 then fail "a plain fork misses %d times after the variants" misses;
  let p = spawn 10_001 in
  let r, text_pcs = parse_seeing p benign (in_text p) in
  if r.Loader.Process.icache_misses <> List.length text_pcs then
    fail "a fresh variant misses %d times running %d instructions of its own text"
      r.Loader.Process.icache_misses (List.length text_pcs);
  true

let prop_warm_variants (arch, tag) =
  QCheck.Test.make ~name:(tag ^ ": warm variants = uncached") ~count:60 ~long_factor:10
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_warm_op ops))
       QCheck.Gen.(list_size (int_range 1 10) gen_warm_op))
    (warm_variants_case arch)

(* A variant's entries are valid only while the bytes they were decoded
   from are still there.  So a template whose text changes after the
   spawn (a poke, then a run that decodes the poked text into the
   family's entries), and a variant that stores into its own text, must
   both still run as the uncached loop does. *)
let poke_case ~arch ~seed ~which ~at =
  let config = config_for ~arch ~profile:Defense.Profile.wx ~boot_seed:23 in
  let template = Connman.Dnsproxy.create config in
  let tproc = Connman.Dnsproxy.process template in
  let tsnap = warm config tproc in
  let v = Connman.Dnsproxy.process (Connman.Dnsproxy.fork_diversified template ~diversity_seed:seed) in
  let wire = benign_wire config in
  (* A return at the chosen instruction of the variant's parse, or of
     the template's. *)
  let ret = match arch with Loader.Arch.X86 -> "\xc3" | Loader.Arch.Arm -> "\x1e\xff\x2f\xe1" in
  let entry p = Loader.Process.symbol p "parse_response" in
  let align a = match arch with Loader.Arch.X86 -> a | Loader.Arch.Arm -> a land lnot 3 in
  (match which with
  | `Template ->
      Mem.poke_bytes tproc.Loader.Process.mem (align (entry tproc + at)) ret;
      ignore (parse_wire ~icache:true tproc wire);
      Loader.Process.restore tproc tsnap
  | `Variant -> Mem.poke_bytes v.Loader.Process.mem (align (entry v + at)) ret);
  let vsnap = Loader.Process.snapshot v in
  let cached = parse_wire ~icache:true v wire in
  Loader.Process.restore v vsnap;
  let uncached = parse_wire ~icache:false v wire in
  if
    cached.Loader.Process.outcome <> uncached.Loader.Process.outcome
    || cached.Loader.Process.steps <> uncached.Loader.Process.steps
    || cached.Loader.Process.regs <> uncached.Loader.Process.regs
  then
    QCheck.Test.fail_reportf "cached %s after %d steps, uncached %s after %d steps"
      (Format.asprintf "%a" O.pp cached.Loader.Process.outcome)
      cached.Loader.Process.steps
      (Format.asprintf "%a" O.pp uncached.Loader.Process.outcome)
      uncached.Loader.Process.steps;
  true

let prop_poke (arch, tag) which =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: %s" tag
         (match which with
         | `Template -> "a template text poked after the spawn"
         | `Variant -> "a variant that stores into its own text"))
    ~count:30 ~long_factor:10
    (QCheck.make
       ~print:(fun (seed, at) -> Printf.sprintf "variant %d, parse_response + %d" seed at)
       QCheck.Gen.(pair (int_range 1 100_000) (int_range 0 24)))
    (fun (seed, at) -> poke_case ~arch ~seed ~which ~at)

(* ------------------------------------------------------------------ *)
(* Block execution: four paths, one answer                              *)
(* ------------------------------------------------------------------ *)

(* Random programs made of the shapes blocks come from — ALU runs,
   register-base loads and stores, push/pop pairs, forward branches,
   bounded loops, direct and indirect call/return pairs, and stores of
   NOPs over NOPs just ahead in the running text — run twice (a restore
   in between, the icache kept, so the second run starts with its blocks
   built) on four paths: the reference loop without an icache, the icache loop bare,
   with an observer and the mitigations ([Observe] then [Terminal]: run
   block-at-a-time), and with a [Step] observer (run per instruction).
   In the second run the fuel may run out mid-block, and a trap address
   may lie inside a block.  Every path must leave the same outcome, steps, pc, registers,
   flags and memory; the three icache paths the same icache hits and
   misses; the two observed paths the same pc stream.  A second property
   lets a function overwrite its own return address, so the shadow
   stack vetoes at a block's terminator, and checks the mitigated
   paths against the reference loop.  A third runs those programs under
   the ISA's taint hook, its data page a taint source, on both loops:
   with a non-halting and with a halting oracle, the two must agree on
   the run and on every report.

   Programs also carry libc's [memcpy] byte loop ({!copy}), which the
   bare and mitigated icache paths run as bulk steps (see
   {!Machine.Engine}): in its equivalent-instruction forms and as near
   misses that must not summarise, over spans that overlap, cross a
   page, run into a read-only or unmapped page or over cached text, with
   the fuel running out or a trap inside the loop.  Every path must also
   draw as many page generations as the reference loop.  A fourth
   property runs those programs with pc observers on both loops: an
   edge-coverage map and a profiler, whose folds let the icache loop
   summarise, must gather what they gather on the reference loop, and
   a recorder without a fold, which keeps it from summarising, must see
   the same pc stream. *)

module Hook = Machine.Hook
module Oracle = Sanitizer.Oracle

type run_result = {
  outcome : string;
  steps : int;
  pc : int;
  regs : int list;
  flags : bool list;
  digest : string;
  seen : int list;  (* observed pcs, latest first; [] when unobserved *)
  hits : int;
  misses : int;
  gens : int;  (* page generations drawn *)
  summarised : int;  (* copy-loop iterations run as bulk steps *)
  gathered : string;
      (* what a folding observer gathered: the coverage map's fresh
         count and edges, or the profiler's per-pc counts; "" without *)
  reports : (string * int * int * int) list;
      (* the taint oracle's reports: kind, pc, step, target *)
}

(* A path: the icache on or off, and the hooks.  [Enforced] is an
   observer then the mitigations (block-at-a-time with the icache);
   [Mitigated] the mitigations alone (a [Terminal] hook: copy loops
   still summarise); [Stepped] lowers the observer to [Step] (per
   instruction); [Tainted] is the taint hook alone, on a halting oracle
   or not.  [Covered] and [Profiled] are an edge-coverage map and a
   profiler, observers with a fold (copy loops still summarise);
   [Recorded] the observer alone, which has none. *)
type hooks =
  | Bare
  | Enforced
  | Mitigated
  | Stepped
  | Stepped_enforced
  | Tainted of { halting : bool }
  | Covered
  | Profiled
  | Recorded
type path = { cached : bool; hooks : hooks }

let path_name p =
  (if p.cached then "icache" else "reference")
  ^
  match p.hooks with
  | Bare -> ""
  | Enforced -> "+[observe; enforce]"
  | Mitigated -> "+[enforce]"
  | Stepped -> "+[step]"
  | Stepped_enforced -> "+[step; enforce]"
  | Tainted { halting } -> if halting then "+[taint, halting]" else "+[taint]"
  | Covered -> "+[coverage]"
  | Profiled -> "+[profile]"
  | Recorded -> "+[observe]"

(* The four paths of [prop_blocks], in two groups that each answer to
   the reference loop with the same hooks: the icache loop bare and with
   a [Step] observer, then with an observer and the mitigations.  A
   program built without a smash may still trip the shadow stack: a
   [store first] copy over rwx text can smear main's closing [svc], so
   main runs on into a function nothing called, whose return the
   mitigations veto against an empty shadow stack where the bare loop
   faults.  Where the two references agree, every path answers to the
   bare one, icache hits and misses included. *)
let four_paths =
  [
    [
      { cached = false; hooks = Bare };
      { cached = true; hooks = Bare };
      { cached = false; hooks = Stepped };
      { cached = true; hooks = Stepped };
    ];
    [ { cached = false; hooks = Enforced }; { cached = true; hooks = Enforced } ];
  ]

let enforced_paths =
  [
    { cached = false; hooks = Enforced };
    { cached = true; hooks = Enforced };
    { cached = true; hooks = Mitigated };
    { cached = true; hooks = Stepped_enforced };
  ]

let taint_paths ~halting =
  [ { cached = false; hooks = Tainted { halting } }; { cached = true; hooks = Tainted { halting } } ]

let fold_paths =
  { cached = false; hooks = Bare }
  :: List.concat_map
       (fun hooks -> [ { cached = false; hooks }; { cached = true; hooks } ])
       [ Covered; Profiled; Recorded ]

(* The hook list of a path, from the ISA's observer, mitigations, taint
   hook ([Some] on a taint path) and folding observers (made on
   demand). *)
let path_hooks path ~observe ~enforce ~taint ~cover ~profile =
  match path.hooks with
  | Bare -> []
  | Enforced -> [ observe; enforce ]
  | Mitigated -> [ enforce ]
  | Stepped -> [ { observe with Hook.lower = Hook.Step } ]
  | Stepped_enforced -> [ { observe with Hook.lower = Hook.Step }; enforce ]
  | Tainted _ -> Option.to_list taint
  | Covered -> [ cover () ]
  | Profiled -> [ profile () ]
  | Recorded -> [ observe ]

(* The memory every block program runs in: text (rx, or rwx for
   self-modifying programs) on two or more pages, a data page the loads
   and stores address through a fixed base register, and a stack; then a
   read-only page right after the stack, and a writable page followed by
   an unmapped one, for copies to run into.  The data page's bytes are a
   pattern; its first word,
   below every address the programs store to, holds the address a
   smashed return goes to. *)
let text_base = 0x1000
let data_page = 0x8000
let data_base = 0x8100
let stack_top = 0x9F00
let ro_page = 0xA000
let tail_page = 0xC000

let block_memory ~rwx ~code_at code =
  let mem = Mem.create () in
  let size = (code_at - text_base + String.length code + 0x1FFF) land lnot 0xFFF in
  Mem.map mem ~base:text_base ~size ~perm:(if rwx then Mem.rwx else Mem.rx) ~name:"text";
  Mem.poke_bytes mem code_at code;
  Mem.map mem ~base:0x8000 ~size:0x1000 ~perm:Mem.rw ~name:"data";
  (* Distinct neighbouring bytes, so an overlapping copy shows its
     direction. *)
  Mem.write_bytes mem 0x8000 (String.init 0x1000 (fun i -> Char.chr (((i * 37) + 11) land 0xFF)));
  Mem.map mem ~base:0x9000 ~size:0x1000 ~perm:Mem.rw ~name:"stack";
  Mem.map mem ~base:ro_page ~size:0x1000 ~perm:Mem.r ~name:"ro";
  Mem.map mem ~base:tail_page ~size:0x1000 ~perm:Mem.rw ~name:"tail";
  let digest () =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map
               (fun r -> Mem.read_bytes mem r.Mem.base r.Mem.size)
               (Mem.regions mem))))
  in
  (mem, digest)

let check_paths ~name runs =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let field what get a b = if get a <> get b then fail "%s: %s differs" name what in
  match runs with
  | [] -> true
  | (_, reference) :: rest ->
      List.iter
        (fun (path, rs) ->
          List.iteri
            (fun i (r, r') ->
              let where = Printf.sprintf "%s, run %d" (path_name path) (i + 1) in
              if r.outcome <> r'.outcome then
                fail "%s: %s: outcome %s, reference %s" name where r'.outcome r.outcome;
              field (where ^ " steps") (fun r -> r.steps) r r';
              field (where ^ " pc") (fun r -> r.pc) r r';
              field (where ^ " registers") (fun r -> r.regs) r r';
              field (where ^ " flags") (fun r -> r.flags) r r';
              field (where ^ " memory") (fun r -> r.digest) r r';
              field (where ^ " generations drawn") (fun r -> r.gens) r r';
              field (where ^ " sanitizer reports") (fun r -> r.reports) r r')
            (List.combine reference rs))
        rest;
      let cached = List.filter (fun (p, _) -> p.cached) runs in
      (match cached with
      | [] -> ()
      | (_, first) :: others ->
          List.iter
            (fun (path, rs) ->
              List.iteri
                (fun i (r, r') ->
                  let where = Printf.sprintf "%s, run %d" (path_name path) (i + 1) in
                  field (where ^ " icache hits") (fun r -> r.hits) r r';
                  field (where ^ " icache misses") (fun r -> r.misses) r r')
                (List.combine first rs))
            others);
      List.iter
        (fun (path, rs) ->
          match List.assoc_opt { path with cached = false } runs with
          | Some reference when path.cached ->
              List.iteri
                (fun i (r, r') ->
                  field
                    (Printf.sprintf "%s, run %d gathered" (path_name path) (i + 1))
                    (fun r -> r.gathered) r r')
                (List.combine reference rs)
          | _ -> ())
        runs;
      let observed =
        List.filter
          (fun (p, _) ->
            match p.hooks with
            | Bare | Mitigated | Tainted _ | Covered | Profiled -> false
            | Enforced | Stepped | Stepped_enforced | Recorded -> true)
          runs
      in
      (match observed with
      | [] -> ()
      | (_, first) :: others ->
          List.iter
            (fun (path, rs) ->
              List.iteri
                (fun i (r, r') ->
                  field
                    (Printf.sprintf "%s, run %d pc stream" (path_name path) (i + 1))
                    (fun r -> r.seen) r r')
                (List.combine first rs))
            others);
      true

(* Case knobs shared by both ISAs' generators.  Most programs run to
   their end; a few fault, through a load from a wild base register or a
   store into read-only text. *)
type knobs = {
  code_at : int;  (* address of the code in the text region *)
  fuel : int;
  trap : bool;  (* trap at the [trap] label *)
  rwx : bool;
  wild : bool;
      (* loads may go through a base register the program walks off the
         data page, so a block that ran cleanly faults midway later *)
}

let gen_knobs ~align =
  QCheck.Gen.(
    map5
      (fun off fuel trap rwx wild ->
        { code_at = text_base + (off land lnot (align - 1)); fuel; trap; rwx; wild })
      (* Half the programs start near a page end, so blocks meet the
         boundary and x86 instructions straddle it. *)
      (frequency [ (1, int_bound 0xF80); (1, int_range 0xE00 0xFF0) ])
      (frequency [ (1, int_range 1 150); (1, int_range 150 3000); (3, return 50_000) ])
      bool
      (frequencyl [ (7, true); (1, false) ])
      (frequencyl [ (1, true); (3, false) ]))

let knobs_to_string k =
  Printf.sprintf "code at 0x%x, fuel %d, trap %b, rwx %b, wild %b" k.code_at k.fuel
    k.trap k.rwx k.wild

(* A copy loop: libc's [memcpy] byte loop (test at the top, a direct
   jump back) over [len] bytes from [src] to [dst], its registers the
   [regs]-th of the ISA's program registers (loaded, src, dst, count).
   [form] picks an equivalent form: bits 0-2 each step's encoding ([inc]
   or [add 1], [dec] or [sub 1]; x86), bit 3 steps dst before src, bit 4
   steps the count first, bit 5 loads through [src + 3], bit 6 enters
   the body through a test of its own (a branch to the body when the
   count is not zero), so the loop's first edge is not its back edge.
   A near miss
   must run through its block: the count stepped by 2, the store before
   the load, the load through the dst register.  With [trap_at], a
   [ctrap] label (a trap address when the case arms one) sits before
   that member of the body. *)
type miss = Exact | Step_by_2 | Store_first | Load_dst

type copy = {
  regs : int list;
  form : int;
  miss : miss;
  src : int;
  dst : int;
  len : int;
  trap_at : int option;
}

let copy_to_string c =
  Printf.sprintf "copy%s(form %d, regs %s, 0x%x -> 0x%x, %d bytes%s)"
    (match c.miss with
    | Exact -> ""
    | Step_by_2 -> "[step 2]"
    | Store_first -> "[store first]"
    | Load_dst -> "[load dst]")
    c.form
    (String.concat "," (List.map string_of_int c.regs))
    c.src c.dst c.len
    (match c.trap_at with None -> "" | Some p -> Printf.sprintf ", ctrap at %d" p)

(* Spans within and across the data and stack pages, overlapping ones,
   ones that run into the read-only page or past the tail page, and a
   text span copied onto itself (a store over cached text: rwx programs
   rewrite their own bytes, rx ones fault). *)
let gen_copy ~nregs =
  let open QCheck.Gen in
  let* len = frequency [ (1, return 0); (4, int_range 1 40); (2, int_range 41 300) ] in
  let before page = map (fun j -> page - 1 - j) (int_bound (max 0 (len - 2))) in
  let* src, dst =
    frequency
      [
        (3, pair (map (( + ) data_page) (int_bound 0xFFF)) (map (( + ) data_page) (int_bound 0xF00)));
        ( 3,
          int_range (data_page + 0x400) (data_page + 0x800) >>= fun src ->
          map (fun d -> (src, src + d)) (int_range (-8) 8) );
        (2, pair (oneof [ before 0x9000; map (( + ) 0x8200) (int_bound 0x100) ]) (before 0x9000));
        (1, pair (map (( + ) 0x8200) (int_bound 0x100)) (before ro_page));
        (1, pair (map (( + ) 0x8200) (int_bound 0x100)) (before (tail_page + 0x1000)));
        (1, map (fun a -> (a, a)) (map (( + ) text_base) (int_bound 0x1E00)));
      ]
  in
  let* regs = map (fun l -> List.filteri (fun i _ -> i < 4) l) (shuffle_l (List.init nregs Fun.id)) in
  let* form = int_bound 127 in
  let* miss = frequency [ (6, return Exact); (1, oneofl [ Step_by_2; Store_first; Load_dst ]) ] in
  let* trap_at = frequency [ (3, return None); (1, map Option.some (int_bound 5)) ] in
  return { regs; form; miss; src; dst; len; trap_at }

(* The trap addresses of a case: its [trap] label and every [ctrap]. *)
let trap_addresses ~trap symbols =
  if not trap then []
  else
    List.filter_map
      (fun (name, a) ->
        if name = "trap" || String.starts_with ~prefix:"ctrap" name then Some a else None)
      symbols

(* A program's shape; each ISA lowers it to assembler items. *)
type 'op piece =
  | Op of 'op
  | Pushed of 'op piece list  (* push two registers; body; pop them back *)
  | If of int * 'op piece list  (* skip the body when the [n]th condition holds *)
  | Loop of int * 'op piece list
      (* run the body [n] times: a test at the bottom, or (odd [n]) at the
         top with a direct jump back *)
  | Call of int  (* direct call of function [n] *)
  | Call_indirect of int
  | Selfmod of bool
      (* a store over the NOPs that follow — of other instructions when
         [true], of NOPs again otherwise — on a data-dependent subset of
         its executions *)
  | Copy of copy
  | Trap  (* the trap label *)
  | Smash  (* first in a function: replace its own return address *)

type 'op program = { main : 'op piece list; funcs : 'op piece list list }

let rec piece_to_string show = function
  | Op op -> show op
  | Pushed body -> "push{" ^ pieces_to_string show body ^ "}"
  | If (c, body) -> Printf.sprintf "if%d{%s}" c (pieces_to_string show body)
  | Loop (n, body) -> Printf.sprintf "loop%d{%s}" n (pieces_to_string show body)
  | Call n -> Printf.sprintf "call f%d" n
  | Call_indirect n -> Printf.sprintf "call *f%d" n
  | Selfmod changes -> if changes then "selfmod" else "selfmod(nops)"
  | Copy c -> copy_to_string c
  | Trap -> "trap:"
  | Smash -> "smash"

and pieces_to_string show l = String.concat "; " (List.map (piece_to_string show) l)

let program_to_string show (p, k) =
  Printf.sprintf "%s\nmain: %s\n%s" (knobs_to_string k)
    (pieces_to_string show p.main)
    (String.concat "\n"
       (List.mapi (fun i f -> Printf.sprintf "f%d: %s" i (pieces_to_string show f)) p.funcs))

let gen_program ~op ~copy ~smash =
  let open QCheck.Gen in
  let flat ~calls =
    list_size (int_range 1 8)
      (frequency
         ([ (8, map (fun o -> Op o) op); (1, map (fun b -> Selfmod b) bool) ]
         @
         if calls then [ (1, map (fun n -> Call n) (int_bound 1)) ] else []))
  in
  let piece ~calls =
    frequency
      ([
         (10, map (fun o -> Op o) op);
         (2, map (fun b -> Pushed b) (flat ~calls:false));
         (2, map2 (fun c b -> If (c, b)) (int_bound 11) (flat ~calls));
         (1, map (fun b -> Selfmod b) bool);
       ]
      @
      if calls then
        [
          (3, map2 (fun n b -> Loop (n, b)) (int_range 1 8) (flat ~calls:true));
          (2, map (fun c -> Copy c) copy);
          (1, map (fun n -> Call n) (int_bound 1));
          (1, map (fun n -> Call_indirect n) (int_bound 1));
        ]
      else [])
  in
  let func first =
    map2
      (fun smashed body -> if smash && first && smashed then Smash :: body else body)
      bool
      (list_size (int_range 1 8) (piece ~calls:false))
  in
  map4
    (fun main at f0 f1 ->
      let at = at mod (List.length main + 1) in
      {
        main = List.filteri (fun i _ -> i < at) main @ (Trap :: List.filteri (fun i _ -> i >= at) main);
        funcs = [ f0; f1 ];
      })
    (list_size (int_range 1 30) (piece ~calls:true))
    nat (func true) (func false)

(* What the path runner needs from an ISA. *)
type ('cpu, 'insn, 'entry) machine = {
  isa : ('cpu, 'insn) Hook.isa;
  taint : Oracle.t -> ('cpu, 'insn) Hook.t;
  new_icache : unit -> 'entry Memsim.Icache.table;
  create : icache:'entry Memsim.Icache.table option -> Mem.t -> 'cpu;
  start : 'cpu -> int -> unit;  (* registers set, pc at the entry *)
  run : fuel:int -> traps:int list -> hooks:('cpu, 'insn) Hook.t list -> 'cpu -> O.stop_reason;
  state : 'cpu -> int * int array * bool list;  (* steps, registers, flags *)
}

(* The next generation the shared counter hands out (drawing it). *)
let next_gen () =
  let m = Mem.create () in
  Mem.map m ~base:0 ~size:1 ~perm:Mem.rw ~name:"probe";
  Mem.page_gen m 0

(* Each path runs the program at [entry] twice: the first run warms the
   table; the second, on its blocks, gets the case's fuel and trap. *)
let run_paths m ~mem ~digest ~entry ~funcs ~traps ~fuel paths =
  let snap = Mem.snapshot mem in
  List.map
    (fun path ->
      let table = if path.cached then Some (m.new_icache ()) else None in
      let counts () =
        match table with
        | Some t -> (Memsim.Icache.hits t, Memsim.Icache.misses t)
        | None -> (0, 0)
      in
      let summarised () = Option.fold ~none:0 ~some:Memsim.Icache.summarised table in
      let run ~fuel ~traps =
        Mem.restore mem snap;
        let seen = ref [] in
        let observe = Hook.observe m.isa (Hook.observer (fun pc -> seen := pc :: !seen)) in
        (* A taint path gets a fresh oracle per run, the whole data page
           one source. *)
        let oracle =
          match path.hooks with
          | Tainted { halting } ->
              let o = Oracle.create ~halt_on_report:halting () in
              Oracle.taint o
                ~src:(Oracle.new_source o ~origin:"data" ~length:0x1000)
                data_page ~len:0x1000;
              Some o
          | _ -> None
        in
        (* A coverage path gets a fresh map per run, a profile path a
           fresh profiler. *)
        let cov = lazy (Fuzz.Coverage.create ()) and profile = lazy (Telemetry.Profile.create ()) in
        let hooks =
          path_hooks path ~observe ~taint:(Option.map m.taint oracle)
            ~enforce:
              (Hook.enforce m.isa ~shadow_stack:true ~forward_cfi:true
                 ~valid_target:(fun a -> List.mem a funcs) ~shadow0:[])
            ~cover:(fun () ->
              let cov = Lazy.force cov in
              Fuzz.Coverage.begin_exec cov;
              Hook.observe m.isa (Fuzz.Coverage.observer cov))
            ~profile:(fun () -> Hook.profile m.isa (Lazy.force profile))
        in
        let hits0, misses0 = counts () in
        let summarised0 = summarised () in
        let cpu = m.create ~icache:table mem in
        m.start cpu entry;
        let gen0 = next_gen () in
        let outcome = m.run ~fuel ~traps ~hooks cpu in
        let gens = next_gen () - gen0 - 1 in
        let steps, regs, flags = m.state cpu in
        let hits1, misses1 = counts () in
        {
          outcome = O.to_string outcome;
          steps;
          pc = m.isa.Hook.pc cpu;
          regs = Array.to_list regs;
          flags;
          digest = digest ();
          seen = !seen;
          hits = hits1 - hits0;
          misses = misses1 - misses0;
          gens;
          summarised = summarised () - summarised0;
          gathered =
            (match path.hooks with
            | Covered ->
                let cov = Lazy.force cov in
                let fresh = Fuzz.Coverage.commit cov in
                Printf.sprintf "%d fresh, %d edges" fresh (Fuzz.Coverage.edges cov)
            | Profiled ->
                let profile = Lazy.force profile in
                Printf.sprintf "%d: %s" (Telemetry.Profile.total profile)
                  (String.concat ","
                     (List.map
                        (fun (pc, n) -> Printf.sprintf "%s %d" pc n)
                        (Telemetry.Profile.report profile ~symbolize:(Printf.sprintf "0x%x"))))
            | _ -> "");
          reports =
            (match oracle with
            | None -> []
            | Some o ->
                List.map
                  (fun (r : Oracle.report) -> (Oracle.kind_name r.kind, r.pc, r.step, r.target))
                  (Oracle.reports o));
        }
      in
      let first = run ~fuel:50_000 ~traps:[] in
      (path, [ first; run ~fuel ~traps ]))
    paths

(* --- x86 --- *)

module X86_blocks = struct
  open Isa_x86.Insn
  module A = Isa_x86.Asm
  module C = Isa_x86.Cpu

  (* eax/ecx/edx/esi/edi are the programs' own; ebx holds the data base,
     ebp the loop counter, esp the stack. *)
  let own = [ EAX; ECX; EDX; ESI; EDI ]
  let reg = QCheck.Gen.oneofl own
  let conds = [ E; NE; B; AE; BE; A; L; GE; LE; G; S; NS ]

  let op ~wild =
    let open QCheck.Gen in
    let imm = map Word.to_signed (int_bound 0xFFFFFF) in
    let data = map (fun d -> Mem { base = Some EBX; disp = d }) (int_bound 0x3FC) in
    let wild_mem = map (fun d -> Mem { base = Some ESI; disp = d }) (int_bound 0x3FC) in
    frequency
      [
        (3, map2 (fun r i -> Mov_ri (r, i)) reg imm);
        (2, map2 (fun d s -> Mov (Reg d, Reg s)) reg reg);
        (2, map2 (fun d s -> Add (Reg d, Reg s)) reg reg);
        (2, map2 (fun d i -> Add_i (Reg d, i)) reg imm);
        (2, map2 (fun d s -> Sub (Reg d, Reg s)) reg reg);
        (1, map2 (fun d s -> Xor (Reg d, Reg s)) reg reg);
        (1, map2 (fun d s -> And (Reg d, Reg s)) reg reg);
        (2, map2 (fun d s -> Cmp (Reg d, Reg s)) reg reg);
        (1, map2 (fun d i -> Cmp_i (Reg d, i)) reg imm);
        (1, map2 (fun a b -> Test_rr (a, b)) reg reg);
        (1, map (fun r -> Inc_r r) reg);
        (1, map (fun r -> Dec_r r) reg);
        (1, map2 (fun r n -> Shl_i (r, n)) reg (int_range 0 31));
        (1, map2 (fun r n -> Shr_i (r, n)) reg (int_range 0 31));
        (1, map (fun r -> Neg (Reg r)) reg);
        (1, map2 (fun r s -> Imul (r, Reg s)) reg reg);
        (3, map2 (fun d m -> Mov (Reg d, m)) reg data);
        (2, map2 (fun d m -> Movzx_b (d, m)) reg data);
        (3, map2 (fun m s -> Mov (m, Reg s)) data reg);
        (2, map2 (fun m s -> Mov_b (m, Reg s)) data reg);
        (1, map2 (fun m s -> Add (m, Reg s)) data reg);
        ((if wild then 3 else 0), map2 (fun d m -> Mov (Reg d, m)) reg wild_mem);
        ((if wild then 2 else 0), map (fun i -> Add_i (Reg ESI, i)) (int_range 0x100 0x800));
      ]

  let lower p =
    let n = ref 0 in
    let fresh s =
      incr n;
      Printf.sprintf "%s%d" s !n
    in
    let rec piece = function
      | Op o -> [ A.I o ]
      | Pushed body -> [ A.I (Push_r EAX); A.I (Push_r ECX) ] @ pieces body @ [ A.I (Pop_r ECX); A.I (Pop_r EAX) ]
      | If (c, body) ->
          let skip = fresh "skip" in
          (A.Jcc (List.nth conds c, skip) :: pieces body) @ [ A.Label skip ]
      | Loop (k, body) when k land 1 = 0 ->
          let top = fresh "loop" in
          [ A.I (Push_r EBP); A.I (Mov_ri (EBP, k)); A.Label top ]
          @ pieces body
          @ [ A.I (Dec_r EBP); A.Jcc (NE, top); A.I (Pop_r EBP) ]
      | Loop (k, body) ->
          let top = fresh "loop" and exit = fresh "exit" in
          [ A.I (Push_r EBP); A.I (Mov_ri (EBP, k + 1)); A.Label top; A.I (Dec_r EBP); A.Jcc (E, exit) ]
          @ pieces body
          @ [ A.Jmp top; A.Label exit; A.I (Pop_r EBP) ]
      | Call f -> [ A.Call (Printf.sprintf "f%d" f) ]
      | Call_indirect f -> [ A.Mov_ri_sym (EDX, Printf.sprintf "f%d" f); A.I (Call_rm (Reg EDX)) ]
      | Selfmod changes ->
          (* The store goes to the pad when the jcc is taken and to the
             data page otherwise, so the store's block is built on the
             executions that leave the text alone. *)
          let pad = fresh "pad" and store = fresh "store" in
          [
            A.Mov_ri_sym (EDI, pad);
            A.Jcc (List.nth conds (!n mod List.length conds), store);
            A.I (Mov (Reg EDI, Reg EBX));
            A.Label store;
            A.I
              (Mov_mi
                 (Mem { base = Some EDI; disp = 0 }, if changes then 0x4141_4141 else 0x9090_9090));
            A.Label pad;
          ]
          @ List.init 4 (fun _ -> A.I Nop)
      | Copy c ->
          let top = fresh "copy" and out = fresh "copied" in
          let reg i = List.nth own (List.nth c.regs i) in
          let ld = reg 0 and sr = reg 1 and ds = reg 2 and ct = reg 3 in
          let bit b = c.form land (1 lsl b) <> 0 in
          let disp = if bit 5 then 3 else 0 in
          let up r b = if bit b then Inc_r r else Add_i (Reg r, 1) in
          let load =
            Movzx_b (ld, Mem { base = Some (if c.miss = Load_dst then ds else sr); disp })
          in
          let store = Mov_b (Mem { base = Some ds; disp = 0 }, Reg ld) in
          let count =
            if c.miss = Step_by_2 then Sub_i (Reg ct, 2)
            else if bit 2 then Dec_r ct
            else Sub_i (Reg ct, 1)
          in
          let access = if c.miss = Store_first then [ store; load ] else [ load; store ] in
          let steps = if bit 3 then [ up ds 1; up sr 0 ] else [ up sr 0; up ds 1 ] in
          let body = if bit 4 then (count :: access) @ steps else access @ steps @ [ count ] in
          let body =
            List.concat
              (List.mapi
                 (fun i insn ->
                   if c.trap_at = Some i then [ A.Label (fresh "ctrap"); A.I insn ] else [ A.I insn ])
                 body)
          in
          let test, enter =
            if bit 6 then
              let enter = fresh "enter" in
              ([ A.I (Cmp_i (Reg ct, 0)); A.Jcc (NE, enter); A.Jmp out ], [ A.Label enter ])
            else ([], [])
          in
          [ A.I (Mov_ri (sr, c.src - disp)); A.I (Mov_ri (ds, c.dst)); A.I (Mov_ri (ct, c.len)) ]
          @ test
          @ [ A.Label top; A.I (Cmp_i (Reg ct, 0)); A.Jcc (E, out) ]
          @ enter @ body
          @ [ A.Jmp top; A.Label out ]
      | Trap -> [ A.Label "trap" ]
      | Smash ->
          [
            A.I (Pop_r EDX);
            A.I (Mov (Reg EDX, Mem { base = Some EBX; disp = data_page - data_base }));
            A.I (Push_r EDX);
          ]
    and pieces l = List.concat_map piece l in
    pieces p.main
    @ [ A.I Hlt; A.Label "smashed"; A.I (Mov_ri (EAX, 0x5A5A)); A.I Hlt ]
    @ List.concat
        (List.mapi
           (fun i f -> (A.Label (Printf.sprintf "f%d" i) :: pieces f) @ [ A.I Ret ])
           p.funcs)

  let machine =
    let kernel _ _ = O.Stop (O.Aborted "unexpected syscall") in
    {
      isa = C.isa;
      taint = C.taint;
      new_icache = C.new_icache;
      create = C.create;
      start =
        (fun cpu entry ->
          C.set cpu EBX data_base;
          C.set cpu ESI data_base;
          C.set cpu ESP stack_top;
          cpu.C.eip <- entry);
      run = (fun ~fuel ~traps ~hooks cpu -> C.run ~fuel ~traps ~kernel ~hooks cpu);
      state = (fun cpu -> (cpu.C.steps, cpu.C.regs, [ cpu.C.zf; cpu.C.sf; cpu.C.cf; cpu.C.o_f ]));
    }

  let run_paths (p, k) paths =
    let asm = A.assemble ~base:k.code_at (lower p) in
    let mem, digest = block_memory ~rwx:k.rwx ~code_at:k.code_at asm.A.code in
    Mem.write_u32 mem data_page (A.symbol asm "smashed");
    run_paths machine ~mem ~digest ~entry:k.code_at
      ~funcs:[ A.symbol asm "f0"; A.symbol asm "f1" ]
      ~traps:(trap_addresses ~trap:k.trap asm.A.symbols)
      ~fuel:k.fuel paths

  let arb ~smash =
    QCheck.make
      ~print:(program_to_string Isa_x86.Insn.to_string)
      QCheck.Gen.(
        gen_knobs ~align:1 >>= fun k ->
        map
          (fun p -> (p, k))
          (gen_program ~op:(op ~wild:k.wild) ~copy:(gen_copy ~nregs:(List.length own)) ~smash))
end

(* --- ARM --- *)

module Arm_blocks = struct
  open Isa_arm.Insn
  module A = Isa_arm.Asm
  module C = Isa_arm.Cpu

  (* r0-r7 are the programs' own; r8 holds the data base, r9 a call or
     self-modifying store's target, r10 and r12 the words that store
     writes ([add r1, r1, #1] and the NOP), r11 the loop counter. *)
  let own = [ R0; R1; R2; R3; R4; R5; R6; R7 ]
  let reg = QCheck.Gen.oneofl own
  let conds = [ EQ; NE; CS; CC; MI; PL; HI; LS; GE; LT; GT; LE ]
  let nop_word = Isa_arm.Encode.encode_word nop
  let add_word = Isa_arm.Encode.encode_word (al (Add (R1, R1, Imm 1)))

  let op ~wild =
    let open QCheck.Gen in
    let enc_imm =
      map2 (fun imm8 rot -> Word.ror imm8 (2 * rot)) (int_bound 255) (int_bound 15)
    in
    let op2 =
      frequency
        [
          (3, map (fun i -> Imm i) enc_imm);
          (2, map (fun r -> Reg r) reg);
          (1, map2 (fun r n -> Lsl (r, n)) reg (int_range 1 31));
        ]
    in
    let off = int_bound 0x3FC in
    let word = map (fun o -> o land lnot 3) off in
    let base = frequencyl [ (4, R8); ((if wild then 1 else 0), R0) ] in
    let cond = frequency [ (4, return AL); (1, oneofl conds) ] in
    map2
      (fun cond op -> { cond; op })
      cond
      (frequency
         [
           (3, map2 (fun r o -> Mov (r, o)) reg op2);
           ( (if wild then 2 else 0),
             map (fun i -> Add (R0, R0, Imm i)) (oneofl [ 0x100; 0x200; 0x400; 0x800 ]) );
           (1, map2 (fun r o -> Mvn (r, o)) reg op2);
           (3, map3 (fun d n o -> Add (d, n, o)) reg reg op2);
           (3, map3 (fun d n o -> Sub (d, n, o)) reg reg op2);
           (1, map3 (fun d n o -> Rsb (d, n, o)) reg reg op2);
           (1, map3 (fun d n o -> Eor (d, n, o)) reg reg op2);
           (1, map3 (fun d m s -> Mul (d, m, s)) reg reg reg);
           (2, map2 (fun n o -> Cmp (n, o)) reg op2);
           (1, map2 (fun n o -> Tst (n, o)) reg op2);
           (3, map3 (fun d b o -> Ldr (d, b, o)) reg base word);
           (2, map3 (fun d b o -> Ldrb (d, b, o)) reg base off);
           (3, map2 (fun s o -> Str (s, R8, o)) reg word);
           (2, map2 (fun s o -> Strb (s, R8, o)) reg off);
         ])

  let lower p =
    let n = ref 0 in
    let literals = ref [] in
    let fresh s =
      incr n;
      Printf.sprintf "%s%d" s !n
    in
    let literal sym =
      let l = "lit_" ^ sym in
      if not (List.mem_assoc l !literals) then literals := (l, sym) :: !literals;
      l
    in
    let rec piece = function
      | Op o -> [ A.I o ]
      | Pushed body -> (A.I (al (Push [ R0; R1 ])) :: pieces body) @ [ A.I (al (Pop [ R0; R1 ])) ]
      | If (c, body) ->
          let skip = fresh "skip" in
          (A.B_sym (List.nth conds c, skip) :: pieces body) @ [ A.Label skip ]
      | Loop (k, body) when k land 1 = 0 ->
          let top = fresh "loop" in
          [ A.I (al (Push [ R11 ])); A.I (al (Mov (R11, Imm k))); A.Label top ]
          @ pieces body
          @ [
              A.I (al (Sub (R11, R11, Imm 1)));
              A.I (al (Cmp (R11, Imm 0)));
              A.B_sym (NE, top);
              A.I (al (Pop [ R11 ]));
            ]
      | Loop (k, body) ->
          let top = fresh "loop" and exit = fresh "exit" in
          [
            A.I (al (Push [ R11 ]));
            A.I (al (Mov (R11, Imm (k + 1))));
            A.Label top;
            A.I (al (Sub (R11, R11, Imm 1)));
            A.I (al (Cmp (R11, Imm 0)));
            A.B_sym (EQ, exit);
          ]
          @ pieces body
          @ [ A.B_sym (AL, top); A.Label exit; A.I (al (Pop [ R11 ])) ]
      | Call f -> [ A.I (al (Push [ LR ])); A.Bl_sym (Printf.sprintf "f%d" f); A.I (al (Pop [ LR ])) ]
      | Call_indirect f ->
          [
            A.I (al (Push [ LR ]));
            A.Ldr_sym (R9, literal (Printf.sprintf "f%d" f));
            A.I (al (Blx_r R9));
            A.I (al (Pop [ LR ]));
          ]
      | Selfmod changes ->
          (* A conditional store: the block around it is built on the
             executions whose condition fails. *)
          let pad = fresh "pad" in
          let cond = List.nth conds (!n mod List.length conds) in
          [
            A.Ldr_sym (R9, literal pad);
            A.I { cond; op = Str ((if changes then R10 else R12), R9, 0) };
            A.Label pad;
            A.I nop;
          ]
      | Copy c ->
          let top = fresh "copy" and out = fresh "copied" in
          let reg i = List.nth own (List.nth c.regs i) in
          let ld = reg 0 and sr = reg 1 and ds = reg 2 and ct = reg 3 in
          let bit b = c.form land (1 lsl b) <> 0 in
          let disp = if bit 5 then 3 else 0 in
          (* Every value is below 0x10000: two encodable immediates. *)
          let set r v = [ A.I (al (Mov (r, Imm (v land 0xFF00)))); A.I (al (Orr (r, r, Imm (v land 0xFF)))) ] in
          let up r = Add (r, r, Imm 1) in
          let load = Ldrb (ld, (if c.miss = Load_dst then ds else sr), disp) in
          let store = Strb (ld, ds, 0) in
          let count = Sub (ct, ct, Imm (if c.miss = Step_by_2 then 2 else 1)) in
          let access = if c.miss = Store_first then [ store; load ] else [ load; store ] in
          let steps = if bit 3 then [ up ds; up sr ] else [ up sr; up ds ] in
          let body = if bit 4 then (count :: access) @ steps else access @ steps @ [ count ] in
          let body =
            List.concat
              (List.mapi
                 (fun i op ->
                   if c.trap_at = Some i then [ A.Label (fresh "ctrap"); A.I (al op) ]
                   else [ A.I (al op) ])
                 body)
          in
          let test, enter =
            if bit 6 then
              let enter = fresh "enter" in
              ( [ A.I (al (Cmp (ct, Imm 0))); A.B_sym (NE, enter); A.B_sym (AL, out) ],
                [ A.Label enter ] )
            else ([], [])
          in
          set sr (c.src - disp) @ set ds c.dst @ set ct c.len @ test
          @ [ A.Label top; A.I (al (Cmp (ct, Imm 0))); A.B_sym (EQ, out) ]
          @ enter @ body
          @ [ A.B_sym (AL, top); A.Label out ]
      | Trap -> [ A.Label "trap" ]
      | Smash -> [ A.I (al (Ldr (R4, R8, data_page - data_base))); A.I (al (Str (R4, SP, 4))) ]
    and pieces l = List.concat_map piece l in
    let main = pieces p.main in
    let funcs =
      List.concat
        (List.mapi
           (fun i f ->
             let name = Printf.sprintf "f%d" i in
             if i = 0 then
               (A.Label name :: A.I (al (Push [ R4; LR ])) :: pieces f)
               @ [ A.I (al (Pop [ R4; PC ])) ]
             else (A.Label name :: pieces f) @ [ A.I (al (Bx LR)) ])
           p.funcs)
    in
    main
    @ [
        A.I (al (Svc 0xFF));
        A.Label "smashed";
        A.I (al (Mov (R0, Imm 0x5A)));
        A.I (al (Svc 0xFF));
      ]
    @ funcs
    @ List.concat_map (fun (l, sym) -> [ A.Label l; A.Word_sym sym ]) (List.rev !literals)

  let machine =
    let kernel n _ = if n = 0xFF then O.Stop O.Halted else O.Resume in
    {
      isa = C.isa;
      taint = C.taint;
      new_icache = C.new_icache;
      create = C.create;
      start =
        (fun cpu entry ->
          C.set cpu R8 data_base;
          C.set cpu R0 data_base;
          C.set cpu R10 add_word;
          C.set cpu R12 nop_word;
          C.set cpu SP stack_top;
          C.set_pc cpu entry);
      run = (fun ~fuel ~traps ~hooks cpu -> C.run ~fuel ~traps ~kernel ~hooks cpu);
      state = (fun cpu -> (cpu.C.steps, cpu.C.regs, [ cpu.C.n; cpu.C.z; cpu.C.c; cpu.C.v ]));
    }

  let run_paths (p, k) paths =
    let asm = A.assemble ~base:k.code_at (lower p) in
    let mem, digest = block_memory ~rwx:k.rwx ~code_at:k.code_at asm.A.code in
    Mem.write_u32 mem data_page (A.symbol asm "smashed");
    run_paths machine ~mem ~digest ~entry:k.code_at
      ~funcs:[ A.symbol asm "f0"; A.symbol asm "f1" ]
      ~traps:(trap_addresses ~trap:k.trap asm.A.symbols)
      ~fuel:k.fuel paths

  let arb ~smash =
    QCheck.make
      ~print:(program_to_string Isa_arm.Insn.to_string)
      QCheck.Gen.(
        gen_knobs ~align:4 >>= fun k ->
        map
          (fun p -> (p, k))
          (gen_program ~op:(op ~wild:k.wild) ~copy:(gen_copy ~nregs:(List.length own)) ~smash))
end

let check_four_paths ~name ~run_paths case =
  let groups = List.map (run_paths case) four_paths in
  let all = List.concat groups in
  let outcomes hooks = List.map (fun r -> r.outcome) (List.assoc { cached = false; hooks } all) in
  List.for_all (check_paths ~name) groups
  && (outcomes Bare <> outcomes Enforced || check_paths ~name all)

let prop_blocks ~name ~arb ~run_paths =
  QCheck.Test.make ~name:(name ^ " blocks: four paths, one answer") ~count:300
    ~long_factor:20 arb (check_four_paths ~name ~run_paths)

(* Seeds under which [prop_blocks] once failed on ARM, with the draw it
   failed on (the property's [n]th case at that seed): each a [store
   first] copy over main's closing [svc], so the mitigations veto a
   return that the bare reference loop faults on.  Each case is drawn
   again and run alone. *)
let arm_block_regressions =
  [ (408485024, 5324); (590827557, 4676); (960719279, 681); (686202044, 1558) ]

let test_arm_block_regressions () =
  List.iter
    (fun (seed, n) ->
      let gen = QCheck.gen (Arm_blocks.arb ~smash:false) in
      let rand = Random.State.make [| seed |] in
      for _ = 2 to n do
        ignore (gen rand)
      done;
      let case = gen rand in
      let name = Printf.sprintf "arm seed %d, case %d" seed n in
      ignore (check_four_paths ~name ~run_paths:Arm_blocks.run_paths case);
      let outcome hooks =
        match Arm_blocks.run_paths case [ { cached = false; hooks } ] with
        | [ (_, r :: _) ] -> r.outcome
        | _ -> assert false
      in
      Alcotest.(check bool)
        (name ^ ": the mitigations stop the run elsewhere")
        true
        (outcome Bare <> outcome Enforced))
    arm_block_regressions

(* With smashed returns, the mitigated paths stop where the reference
   loop with the same hooks does: the veto lands on a block's
   terminator. *)
let prop_block_vetoes ~name ~arb ~run_paths =
  QCheck.Test.make ~name:(name ^ " blocks: vetoes match the reference") ~count:200
    ~long_factor:20 arb (fun case -> check_paths ~name (run_paths case enforced_paths))

(* The taint hook is a [Step] hook, so both loops run it per
   instruction: with the oracle halting at its first report or not, the
   icache loop must stop where the reference loop does and report what
   it reports. *)
let prop_block_taint ~name ~arb ~run_paths =
  QCheck.Test.make ~name:(name ^ " blocks: taint reports match the reference") ~count:200
    ~long_factor:20 arb (fun case ->
      check_paths ~name (run_paths case (taint_paths ~halting:false))
      && check_paths ~name (run_paths case (taint_paths ~halting:true)))

(* The taint property is not vacuous: a function that overwrites its
   return address with the data page's first word trips the oracle on
   the store and (not halting) again at the return. *)
let check_taint_reports name run_paths =
  let case =
    ( { main = [ Call 0 ]; funcs = [ [ Smash ]; [] ] },
      { code_at = text_base; fuel = 50_000; trap = false; rwx = false; wild = false } )
  in
  List.iter
    (fun (halting, kinds, outcome) ->
      let runs = run_paths case (taint_paths ~halting) in
      ignore (check_paths ~name runs);
      List.iter
        (fun (path, rs) ->
          List.iter
            (fun r ->
              let where = Printf.sprintf "%s %s" name (path_name path) in
              Alcotest.(check (list string)) (where ^ " report kinds") kinds
                (List.map (fun (kind, _, _, _) -> kind) r.reports);
              Alcotest.(check string) (where ^ " outcome") outcome r.outcome)
            rs)
        runs)
    [
      (false, [ "ret-slot-overwrite"; "tainted-pc" ], O.to_string O.Halted);
      (true, [ "ret-slot-overwrite" ], O.to_string Oracle.halt_reason);
    ]

let test_taint_reports () =
  check_taint_reports "x86" X86_blocks.run_paths;
  check_taint_reports "arm" Arm_blocks.run_paths

(* The coverage map, the profiler and the recorder on both loops: the
   folded state is the reference loop's, and the recorder sees the
   whole stream. *)
let prop_block_folds ~name ~arb ~run_paths =
  QCheck.Test.make ~name:(name ^ " blocks: folding observers match the reference")
    ~count:200 ~long_factor:20 arb (fun case -> check_paths ~name (run_paths case fold_paths))

(* The paths whose copy loops may summarise. *)
let summarises path =
  path.cached
  && match path.hooks with Bare | Mitigated | Covered | Profiled -> true | _ -> false

(* The copy property is not vacuous: libc's loop in every form
   summarises on the bare, mitigated and folding icache paths, in every
   register choice tried, and a near miss never does (it has no summary
   to fold, so the folding paths run only the exact loops); every path
   still agrees. *)
let check_copy_summaries name run_paths =
  let knobs = { code_at = text_base; fuel = 50_000; trap = false; rwx = false; wild = false } in
  List.iter
    (fun miss ->
      for form = 0 to 127 do
        let copy =
          {
            regs = List.init 4 (fun i -> (form + i) mod 5);
            form;
            miss;
            src = data_page + 0x400;
            dst = data_page + 0x600 + (form land 7);
            len = 100;
            trap_at = None;
          }
        in
        let case = ({ main = [ Copy copy ]; funcs = [ []; [] ] }, knobs) in
        let folding = if miss = Exact then List.tl fold_paths else [] in
        let runs =
          run_paths case
            ({ cached = false; hooks = Bare }
            :: List.map
                 (fun hooks -> { cached = true; hooks })
                 [ Bare; Enforced; Stepped; Mitigated ]
            @ folding)
        in
        ignore (check_paths ~name runs);
        List.iter
          (fun (path, rs) ->
            let r = List.nth rs 1 in
            let what = Printf.sprintf "%s %s: %s" name (path_name path) (copy_to_string copy) in
            if summarises path && miss = Exact then
              Alcotest.(check bool) (what ^ " summarised") true (r.summarised > 0)
            else Alcotest.(check int) (what ^ " not summarised") 0 r.summarised)
          runs
      done)
    [ Exact; Step_by_2; Store_first; Load_dst ]

let test_copy_summaries () =
  check_copy_summaries "x86" X86_blocks.run_paths;
  check_copy_summaries "arm" Arm_blocks.run_paths

(* Folding observers where a summary stops short: the fuel runs out
   mid-loop (a bulk step, then the rest of the fuel per block) and the
   dst runs into the read-only page (bulk steps up to it, then the
   faulting store on the block path). *)
let check_fold_stops name run_paths =
  List.iter
    (fun (what, fuel, dst, outcome) ->
      let copy =
        { regs = [ 0; 1; 2; 3 ]; form = 0; miss = Exact; src = data_page + 0x200; dst; len = 300; trap_at = None }
      in
      let knobs = { code_at = text_base; fuel; trap = false; rwx = false; wild = false } in
      let runs = run_paths ({ main = [ Copy copy ]; funcs = [ []; [] ] }, knobs) fold_paths in
      ignore (check_paths ~name runs);
      List.iter
        (fun (path, rs) ->
          let r = List.nth rs 1 in
          let what = Printf.sprintf "%s %s, %s" name (path_name path) what in
          outcome what r.outcome;
          if summarises path then
            Alcotest.(check bool) (what ^ ": summarised") true (r.summarised > 0))
        runs)
    [
      ( "fuel out mid-loop",
        1000,
        data_page + 0x800,
        fun what -> Alcotest.(check string) (what ^ ": outcome") (O.to_string O.Fuel_exhausted) );
      ( "dst fault mid-copy",
        50_000,
        ro_page - 40,
        fun what o -> Alcotest.(check bool) (what ^ ": faulted, " ^ o) true (o <> O.to_string O.Halted) );
    ]

let test_fold_stops () =
  check_fold_stops "x86" X86_blocks.run_paths;
  check_fold_stops "arm" Arm_blocks.run_paths

(* An ARM pc that is not word-aligned stops the run before its fetch:
   every path stops with the same fault at that pc, and the fetch counts
   no icache miss.  A loop warms the blocks; then [bx] or [mov pc] goes
   to an address = 2 (mod 4). *)
let test_arm_unaligned_pc () =
  let open Isa_arm.Insn in
  let module A = Isa_arm.Asm in
  let target = text_base + 0x102 in
  let fault =
    O.to_string (O.Fault { Mem.addr = target; kind = Mem.Perm_exec; context = "unaligned pc" })
  in
  List.iter
    (fun (what, jump) ->
      let asm =
        A.assemble ~base:text_base
          [
            A.I (al (Mov (R2, Imm 3)));
            A.Label "loop";
            A.I (al (Sub (R2, R2, Imm 1)));
            A.I (al (Cmp (R2, Imm 0)));
            A.B_sym (NE, "loop");
            A.I (al (Mov (R1, Imm (text_base + 0x100))));
            A.I (al (Add (R1, R1, Imm 2)));
            A.I (al jump);
          ]
      in
      let mem, digest = block_memory ~rwx:false ~code_at:text_base asm.A.code in
      let runs =
        run_paths Arm_blocks.machine ~mem ~digest ~entry:text_base ~funcs:[] ~traps:[]
          ~fuel:1000
          [
            { cached = false; hooks = Bare };
            { cached = true; hooks = Bare };
            { cached = false; hooks = Stepped };
            { cached = true; hooks = Stepped };
          ]
      in
      ignore (check_paths ~name:what runs);
      List.iter
        (fun (path, rs) ->
          List.iteri
            (fun i r ->
              let where = Printf.sprintf "%s: %s, run %d" what (path_name path) (i + 1) in
              Alcotest.(check string) (where ^ " outcome") fault r.outcome;
              Alcotest.(check int) (where ^ " pc") target r.pc;
              Alcotest.(check int) (where ^ " steps") 13 r.steps;
              if path.cached then
                Alcotest.(check (pair int int))
                  (where ^ " icache hits, misses")
                  (if i = 0 then (6, 7) else (13, 0))
                  (r.hits, r.misses))
            rs)
        runs)
    [ ("bx r1", Bx R1); ("mov pc, r1", Mov (PC, Reg R1)) ]

(* The lowering contract: enforcement runs only at a block's last
   instruction, which is sound only if no other member is a transfer.
   For random decodable instructions in random register states (with a
   mapped stack of random words, so returns read real targets), an
   instruction that does not end a block must classify as [Other]. *)
let contract_state rand ~nregs =
  let mem = Mem.create () in
  Mem.map mem ~base:0x9000 ~size:0x1000 ~perm:Mem.rw ~name:"stack";
  Mem.write_bytes mem 0x9000 (String.init 0x1000 (fun _ -> Char.chr (Random.State.int rand 256)));
  let regs =
    Array.init nregs (fun _ ->
        if Random.State.bool rand then 0x9000 + Random.State.int rand 0xFF0
        else Random.State.bits rand land Word.mask)
  in
  (mem, regs, Array.init 4 (fun _ -> Random.State.bool rand))

let rec decodable decode rand =
  match decode rand with Some d -> d | None -> decodable decode rand

let prop_contract_x86 =
  let module C = Isa_x86.Cpu in
  let gen rand =
    let insn, size =
      decodable
        (fun rand ->
          let b = String.init 16 (fun _ -> Char.chr (Random.State.int rand 256)) in
          match Isa_x86.Decode.decode_with (fun i -> Char.code b.[i]) 0 with
          | d -> Some d
          | exception Isa_x86.Decode.Error _ -> None)
        rand
    in
    (insn, size, contract_state rand ~nregs:8, Random.State.bits rand land Word.mask)
  in
  QCheck.Test.make ~name:"x86: a non-terminator classifies as Other" ~count:2000
    ~long_factor:20
    (QCheck.make ~print:(fun (i, _, _, _) -> Isa_x86.Insn.to_string i) gen)
    (fun (insn, size, (mem, regs, flags), pc) ->
      let cpu = C.create ~icache:None mem in
      Array.blit regs 0 cpu.C.regs 0 8;
      cpu.C.zf <- flags.(0);
      cpu.C.sf <- flags.(1);
      cpu.C.cf <- flags.(2);
      cpu.C.o_f <- flags.(3);
      C.ends_block insn
      || match C.isa.Hook.transfer cpu pc insn size with Hook.Other -> true | _ -> false)

let any_arm_insn =
  let open QCheck.Gen in
  let open Isa_arm.Insn in
  let reg = map reg_of_index (int_bound 15) in
  let imm = map2 (fun imm8 rot -> Word.ror imm8 (2 * rot)) (int_bound 255) (int_bound 15) in
  let op2 =
    oneof [ map (fun i -> Imm i) imm; map (fun r -> Reg r) reg; map2 (fun r n -> Lsl (r, n)) reg (int_range 1 31) ]
  in
  let off = int_range (-0xFFF) 0xFFF in
  let regs = map (fun m -> List.filter (fun r -> m land (1 lsl reg_index r) <> 0) (List.init 16 reg_of_index)) (int_range 1 0xFFFF) in
  let op =
    oneof
      [
        map2 (fun d o -> Mov (d, o)) reg op2;
        map2 (fun d o -> Mvn (d, o)) reg op2;
        map3 (fun d n o -> Add (d, n, o)) reg reg op2;
        map3 (fun d n o -> Sub (d, n, o)) reg reg op2;
        map3 (fun d n o -> Rsb (d, n, o)) reg reg op2;
        map3 (fun d n o -> And (d, n, o)) reg reg op2;
        map3 (fun d n o -> Orr (d, n, o)) reg reg op2;
        map3 (fun d n o -> Eor (d, n, o)) reg reg op2;
        map3 (fun d n o -> Bic (d, n, o)) reg reg op2;
        map3 (fun d m s -> Mul (d, m, s)) reg reg reg;
        map2 (fun n o -> Cmp (n, o)) reg op2;
        map2 (fun n o -> Tst (n, o)) reg op2;
        map3 (fun d n o -> Ldr (d, n, o)) reg reg off;
        map3 (fun d n o -> Str (d, n, o)) reg reg off;
        map3 (fun d n o -> Ldrb (d, n, o)) reg reg off;
        map3 (fun d n o -> Strb (d, n, o)) reg reg off;
        map3 (fun d n m -> Ldr_r (d, n, m)) reg reg reg;
        map3 (fun d n m -> Str_r (d, n, m)) reg reg reg;
        map3 (fun d n m -> Ldrb_r (d, n, m)) reg reg reg;
        map3 (fun d n m -> Strb_r (d, n, m)) reg reg reg;
        map (fun l -> Push l) regs;
        map (fun l -> Pop l) regs;
        map (fun d -> B (4 * d)) (int_range (-1000) 1000);
        map (fun d -> Bl (4 * d)) (int_range (-1000) 1000);
        map (fun r -> Bx r) reg;
        map (fun r -> Blx_r r) reg;
        map (fun n -> Svc n) (int_bound 0xFF);
      ]
  in
  map2 (fun cond op -> { cond; op }) (map (fun c -> Option.get (cond_of_code c)) (oneofl [ 0; 1; 2; 3; 4; 5; 8; 9; 10; 11; 12; 13; 14 ])) op

let prop_contract_arm =
  let module C = Isa_arm.Cpu in
  let gen rand =
    (* Random words rarely decode to the rarer forms (bx, blx, pop with
       pc, loads into pc), so half the cases encode a random instruction
       over every register, pc included. *)
    let word =
      if Random.State.bool rand then Random.State.bits rand land Word.mask
      else
        match Isa_arm.Encode.encode_word (QCheck.Gen.generate1 ~rand any_arm_insn) with
        | w -> w
        | exception Invalid_argument _ -> Random.State.bits rand land Word.mask
    in
    let insn =
      decodable
        (fun rand ->
          match Isa_arm.Decode.decode_word ~addr:0 word with
          | i -> Some i
          | exception Isa_arm.Decode.Error _ -> (
              match
                Isa_arm.Decode.decode_word ~addr:0 (Random.State.bits rand land Word.mask)
              with
              | i -> Some i
              | exception Isa_arm.Decode.Error _ -> None))
        rand
    in
    (insn, contract_state rand ~nregs:16, Random.State.bits rand land 0xFFFF_FFFC)
  in
  QCheck.Test.make ~name:"arm: a non-terminator classifies as Other" ~count:2000
    ~long_factor:20
    (QCheck.make ~print:(fun (i, _, _) -> Isa_arm.Insn.to_string i) gen)
    (fun (insn, (mem, regs, flags), pc) ->
      let cpu = C.create ~icache:None mem in
      Array.blit regs 0 cpu.C.regs 0 16;
      C.set_pc cpu pc;
      cpu.C.n <- flags.(0);
      cpu.C.z <- flags.(1);
      cpu.C.c <- flags.(2);
      cpu.C.v <- flags.(3);
      C.ends_block insn
      || match C.isa.Hook.transfer cpu pc insn 4 with Hook.Other -> true | _ -> false)

(* Forks share one table, and a generation names one page state across
   the family, so a block's entries can be valid in one memory while a
   sibling that wrote its copy of the page has refilled some member's
   slot.  The per-instruction loop then misses on that member, so the
   block must too: hit and miss counts stay one per fetch. *)
let test_sibling_refill () =
  let module C = Isa_x86.Cpu in
  let template = Mem.create () in
  Mem.map template ~base:0x1000 ~size:0x1000 ~perm:Mem.rwx ~name:"text";
  Mem.poke_bytes template 0x1000
    (String.concat "" (List.map Isa_x86.Encode.encode Isa_x86.Insn.[ Nop; Nop; Nop; Hlt ]));
  let snap = Mem.snapshot template in
  let counts hooks =
    let table = C.new_icache () in
    let run mem entry =
      let h0 = Memsim.Icache.hits table and m0 = Memsim.Icache.misses table in
      let cpu = C.create ~icache:(Some table) mem in
      cpu.C.eip <- entry;
      ignore (C.run ~fuel:100 ~traps:[] ~kernel:no_kernel ~hooks cpu);
      (Memsim.Icache.hits table - h0, Memsim.Icache.misses table - m0)
    in
    let a = Mem.fork snap and b = Mem.fork snap in
    for _ = 1 to 3 do
      ignore (run a 0x1000)
    done;
    (* Same bytes, new page state in [b]: entering past the head refills
       the followers only. *)
    Mem.write_u8 b 0x1800 0;
    ignore (run b 0x1001);
    run a 0x1000
  in
  let step = { (Hook.observe Isa_x86.Cpu.isa (Hook.observer ignore)) with Hook.lower = Hook.Step } in
  Alcotest.(check (pair int int)) "per instruction: the head hits, the rest miss" (1, 3)
    (counts [ step ]);
  Alcotest.(check (pair int int)) "block-at-a-time: the same" (1, 3) (counts [])

let block_props =
  [
    prop_blocks ~name:"x86" ~arb:(X86_blocks.arb ~smash:false)
      ~run_paths:X86_blocks.run_paths;
    prop_blocks ~name:"arm" ~arb:(Arm_blocks.arb ~smash:false)
      ~run_paths:Arm_blocks.run_paths;
    prop_block_vetoes ~name:"x86" ~arb:(X86_blocks.arb ~smash:true)
      ~run_paths:X86_blocks.run_paths;
    prop_block_vetoes ~name:"arm" ~arb:(Arm_blocks.arb ~smash:true)
      ~run_paths:Arm_blocks.run_paths;
    prop_block_taint ~name:"x86" ~arb:(X86_blocks.arb ~smash:true)
      ~run_paths:X86_blocks.run_paths;
    prop_block_taint ~name:"arm" ~arb:(Arm_blocks.arb ~smash:true)
      ~run_paths:Arm_blocks.run_paths;
    prop_block_folds ~name:"x86" ~arb:(X86_blocks.arb ~smash:false)
      ~run_paths:X86_blocks.run_paths;
    prop_block_folds ~name:"arm" ~arb:(Arm_blocks.arb ~smash:false)
      ~run_paths:Arm_blocks.run_paths;
    prop_contract_x86;
    prop_contract_arm;
  ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "differential"
    [
      ( "interpreters vs reference",
        [ qt prop_x86_differential; qt prop_arm_differential; qt prop_cross_isa ]
      );
      ( "equivalent-instruction randomization",
        [
          qt prop_equiv_x86_preserves_semantics;
          qt prop_equiv_arm_preserves_semantics;
          Alcotest.test_case "rewrites, deterministically" `Quick
            test_equiv_actually_rewrites;
        ] );
      ( "icache: cached = uncached",
        [
          Alcotest.test_case "all exploit cells" `Quick test_cached_uncached_exploits;
          Alcotest.test_case "dos payloads" `Quick test_cached_uncached_dos;
          Alcotest.test_case "benign parses" `Quick test_cached_uncached_benign;
        ] );
      ( "blocks: every path agrees",
        List.map qt block_props
        @ [
            Alcotest.test_case "arm: four paths, once failing seeds" `Quick
              test_arm_block_regressions;
            Alcotest.test_case "a sibling's refill" `Quick test_sibling_refill;
            Alcotest.test_case "taint reports, both loops" `Quick test_taint_reports;
            Alcotest.test_case "copy loops summarise, near misses do not" `Quick
              test_copy_summaries;
            Alcotest.test_case "folding observers: fuel out, dst fault" `Quick
              test_fold_stops;
            Alcotest.test_case "arm: an unaligned pc stops every path" `Quick
              test_arm_unaligned_pc;
          ] );
      ( "icache: persistent and fork-shared",
        [
          Alcotest.test_case "cold, warm and forked starts" `Quick
            test_starting_points;
          Alcotest.test_case "warm calls compile nothing" `Quick
            test_warm_calls_compile_nothing;
          Alcotest.test_case "diversified forks compile their own" `Quick
            test_diversified_fork_own_cache;
          Alcotest.test_case "a fork's stack code fills its own table" `Quick
            test_fork_stack_code_own;
          Alcotest.test_case "a variant's fork finds the variant's text" `Quick
            test_fork_of_variant;
          QCheck_alcotest.to_alcotest (prop_warm_variants (Loader.Arch.X86, "x86"));
          QCheck_alcotest.to_alcotest (prop_warm_variants (Loader.Arch.Arm, "arm"));
        ] );
      ( "icache: variant text changes",
        List.concat_map
          (fun isa -> List.map QCheck_alcotest.to_alcotest [ prop_poke isa `Template; prop_poke isa `Variant ])
          [ (Loader.Arch.X86, "x86"); (Loader.Arch.Arm, "arm") ] );
    ]
