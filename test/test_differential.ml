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

let prop_equiv_x86_preserves_semantics =
  QCheck.Test.make ~name:"equiv rewrite preserves x86 semantics" ~count:300
    QCheck.(make Gen.(pair (int_bound 0xFFFF) gen_x86_program))
    (fun (seed, program) ->
      let items = List.map (fun i -> Isa_x86.Asm.I i) program in
      let rewritten =
        List.filter_map
          (function Isa_x86.Asm.I i -> Some i | _ -> None)
          (Defense.Equiv.x86 ~seed items)
      in
      run_x86 program = run_x86 rewritten)

let prop_equiv_arm_preserves_semantics =
  QCheck.Test.make ~name:"equiv rewrite preserves arm semantics" ~count:300
    QCheck.(make Gen.(pair (int_bound 0xFFFF) gen_arm_program))
    (fun (seed, program) ->
      let items = List.map (fun i -> Isa_arm.Asm.I i) program in
      let rewritten =
        List.filter_map
          (function Isa_arm.Asm.I i -> Some i | _ -> None)
          (Defense.Equiv.arm ~seed items)
      in
      run_arm program = run_arm rewritten)

let test_equiv_actually_rewrites () =
  (* A zero-heavy program gives the pass plenty of targets. *)
  let open Isa_x86.Insn in
  let program =
    List.concat
      (List.init 32 (fun _ ->
           [ Isa_x86.Asm.I (Mov_ri (EAX, 0)); Isa_x86.Asm.I (Inc_r ECX) ]))
  in
  let rewritten = Defense.Equiv.x86 ~seed:5 program in
  Alcotest.(check bool)
    "some rewrites happened" true
    (Defense.Equiv.count_rewrites_x86 program rewritten > 5);
  (* Determinism per seed. *)
  Alcotest.(check bool)
    "deterministic" true
    (Defense.Equiv.x86 ~seed:5 program = rewritten);
  Alcotest.(check bool)
    "seed-dependent" true
    (Defense.Equiv.x86 ~seed:6 program <> rewritten)

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

(* A process's icache outlives its calls and is shared by its forks, so
   a parse can start cold (fresh boot), warm (the same process after a
   parse and a restore) or from a fork of a warmed template.  Each
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
      ( "icache: persistent and fork-shared",
        [
          Alcotest.test_case "cold, warm and forked starts" `Quick
            test_starting_points;
          Alcotest.test_case "warm calls compile nothing" `Quick
            test_warm_calls_compile_nothing;
          Alcotest.test_case "diversified forks compile their own" `Quick
            test_diversified_fork_own_cache;
        ] );
    ]
