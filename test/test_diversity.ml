(* The diversity engine's contract is behavioral equivalence: a variant
   must be indistinguishable from the stock image to every benign client
   (and to the attacker only through its addresses).  This suite replays
   every exploit cell, the DoS, and benign traffic against diversified
   variants and mitigated interpreters, and pins the survival matrix's
   headline result (its replay is test_replay.ml's). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let lookup = Dns.Name.of_string "ipv4.connman.net"

let benign_wire d =
  let q = Connman.Dnsproxy.make_query d lookup in
  Dns.Packet.encode
    (Dns.Packet.response ~query:q
       [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8_D822 ])

let dos_wire d =
  let q = Connman.Dnsproxy.make_query d lookup in
  Dns.Craft.hostile_response ~query:q ~raw_name:(Dns.Craft.dos_name ~size:8192)
    ()

let cfg ?diversity_seed arch profile =
  { Connman.Dnsproxy.default_config with arch; profile; boot_seed = 42;
    diversity_seed }

let disp = Alcotest.testable Connman.Dnsproxy.pp_disposition ( = )

let both_isas = [ Loader.Arch.X86; Loader.Arch.Arm ]
let arch_name = Loader.Arch.name
let dseeds = [ 7; 99; 12345 ]

(* {1 Variant generation} *)

let test_pool_seeds () =
  let seen = Hashtbl.create 8192 in
  for i = 0 to 4095 do
    let s = Diversity.Pool.seed_for ~master:0xBEEF i in
    check_bool "seed in range" true (s >= 0 && s <= 0x3FFF_FFFF);
    check_bool (Printf.sprintf "seed %d distinct" i) false
      (Hashtbl.mem seen s);
    Hashtbl.add seen s ()
  done;
  (* closed-form: index i reproducible independently of order *)
  check_int "stable derivation"
    (Diversity.Pool.seed_for ~master:0xBEEF 1000)
    (List.nth (Diversity.Pool.seeds ~master:0xBEEF 1001) 1000)

let test_plan_determinism () =
  let open Diversity.Variant in
  List.iter
    (fun seed ->
      let plan arch =
        match arch with
        | Loader.Arch.X86 ->
            Connman.Program_x86.variant_plan ~version:Connman.Version.v1_34
              ~profile:Defense.Profile.wx ~seed
        | Loader.Arch.Arm ->
            Connman.Program_arm.variant_plan ~version:Connman.Version.v1_34
              ~profile:Defense.Profile.wx ~seed
      in
      List.iter
        (fun arch ->
          let an = arch_name arch in
          let p1 = plan arch and p2 = plan arch in
          check_bool (an ^ " plan deterministic") true (p1 = p2);
          check_bool (an ^ " layout shuffled") true (p1.moved > 0);
          check_bool (an ^ " padding inserted") true (p1.pad_bytes > 0);
          check_bool (an ^ " equiv rewrites applied") true (p1.rewrites > 0))
        both_isas)
    dseeds;
  let px a = Connman.Program_x86.variant_plan ~version:Connman.Version.v1_34
      ~profile:Defense.Profile.wx ~seed:a in
  check_bool "distinct seeds give distinct variants" false (px 7 = px 99)

(* {1 Differential regression: variants are behaviorally equivalent} *)

let test_benign_identity () =
  List.iter
    (fun arch ->
      let an = arch_name arch in
      List.iter
        (fun dseed ->
          let base = Connman.Dnsproxy.create (cfg arch Defense.Profile.wx) in
          let div =
            Connman.Dnsproxy.fork_diversified base ~diversity_seed:dseed
          in
          let d0 = Connman.Dnsproxy.handle_response base (benign_wire base) in
          let s0 = Connman.Dnsproxy.last_steps base in
          let d1 = Connman.Dnsproxy.handle_response div (benign_wire div) in
          let s1 = Connman.Dnsproxy.last_steps div in
          Alcotest.check disp
            (Printf.sprintf "%s dseed=%d benign disposition" an dseed)
            d0 d1;
          check_int
            (Printf.sprintf "%s dseed=%d benign step count" an dseed)
            s0 s1;
          (match d0 with
          | Connman.Dnsproxy.Cached n ->
              check_int (an ^ " record cached") 1 n
          | _ -> Alcotest.fail (an ^ " benign parse did not cache")))
        dseeds)
    both_isas

let test_dos_identity () =
  List.iter
    (fun arch ->
      let an = arch_name arch in
      List.iter
        (fun dseed ->
          let base = Connman.Dnsproxy.create (cfg arch Defense.Profile.wx) in
          let div =
            Connman.Dnsproxy.fork_diversified base ~diversity_seed:dseed
          in
          let d0 = Connman.Dnsproxy.handle_response base (dos_wire base) in
          let s0 = Connman.Dnsproxy.last_steps base in
          let d1 = Connman.Dnsproxy.handle_response div (dos_wire div) in
          let s1 = Connman.Dnsproxy.last_steps div in
          (match (d0, d1) with
          | Connman.Dnsproxy.Crashed _, Connman.Dnsproxy.Crashed _ -> ()
          | _ -> Alcotest.fail (an ^ " DoS did not crash both images"));
          check_int
            (Printf.sprintf "%s dseed=%d DoS step count" an dseed)
            s0 s1;
          check_bool (an ^ " stock daemon dead") false
            (Connman.Dnsproxy.alive base);
          check_bool (an ^ " variant daemon dead") false
            (Connman.Dnsproxy.alive div))
        dseeds)
    both_isas

(* The six matrix cells: an attacker who studies the *variant itself*
   (analysis boot with the same diversity seed) still lands the exploit
   on every cell — diversity shifts addresses, it does not remove the
   bug.  Step counts match the stock image too, except where the payload
   embeds layout-dependent gadget addresses whose chain length varies
   (the Rop_aslr cells). *)
let cells arch =
  match arch with
  | Loader.Arch.X86 ->
      [
        ("E1", Defense.Profile.none, Exploit.Autogen.Code_injection);
        ("E3", Defense.Profile.wx, Exploit.Autogen.Ret2libc);
        ("E5", Defense.Profile.wx_aslr, Exploit.Autogen.Rop_aslr);
      ]
  | Loader.Arch.Arm ->
      [
        ("E2", Defense.Profile.none, Exploit.Autogen.Code_injection);
        ("E4", Defense.Profile.wx, Exploit.Autogen.Rop_wx);
        ("E6", Defense.Profile.wx_aslr, Exploit.Autogen.Rop_aslr);
      ]

let exploit_once c strategy =
  let victim = Connman.Dnsproxy.create c in
  let analysis = Connman.Dnsproxy.process (Connman.Dnsproxy.create c) in
  match
    Exploit.Autogen.generate ~analysis:(Exploit.Target.connman analysis)
      ~strategy ()
  with
  | Error e -> Alcotest.fail ("payload generation failed: " ^ e)
  | Ok (_, raw_name) ->
      let q = Connman.Dnsproxy.make_query victim lookup in
      let wire = Exploit.Autogen.response_for ~query:q ~raw_name in
      let d = Connman.Dnsproxy.handle_response victim wire in
      (d, Connman.Dnsproxy.last_steps victim)

let test_exploit_equivalence () =
  List.iter
    (fun arch ->
      let an = arch_name arch in
      List.iter
        (fun (id, profile, strategy) ->
          let stock, stock_steps = exploit_once (cfg arch profile) strategy in
          (match stock with
          | Connman.Dnsproxy.Compromised _ -> ()
          | _ ->
              Alcotest.failf "%s %s stock image not compromised: %a" an id
                Connman.Dnsproxy.pp_disposition stock);
          List.iter
            (fun dseed ->
              let d, steps =
                exploit_once (cfg ~diversity_seed:dseed arch profile) strategy
              in
              (match d with
              | Connman.Dnsproxy.Compromised _ -> ()
              | _ ->
                  Alcotest.failf "%s %s dseed=%d variant not compromised: %a"
                    an id dseed Connman.Dnsproxy.pp_disposition d);
              (* Rop_aslr chains pivot through .text gadgets whose
                 addresses (and hence chain step counts) are exactly what
                 diversity moves; every other payload retires the same
                 instruction count on every variant. *)
              if strategy <> Exploit.Autogen.Rop_aslr then
                check_int
                  (Printf.sprintf "%s %s dseed=%d step count" an id dseed)
                  stock_steps steps)
            [ 7; 99 ])
        (cells arch))
    both_isas

(* Register-file identity for a leaf call: everything the caller can
   observe matches bit-for-bit; the only divergent slots are values that
   point into .text (the ARM PC after the final return), which are
   precisely what diversification is supposed to move. *)
let test_register_identity () =
  List.iter
    (fun arch ->
      let an = arch_name arch in
      let base = Connman.Dnsproxy.create (cfg arch Defense.Profile.wx) in
      let div = Connman.Dnsproxy.fork_diversified base ~diversity_seed:7 in
      let p0 = Connman.Dnsproxy.process base in
      let p1 = Connman.Dnsproxy.process div in
      let r0 = Loader.Process.call_named p0 ~entry:"checksum" ~args:[ 5; 3 ] in
      let r1 = Loader.Process.call_named p1 ~entry:"checksum" ~args:[ 5; 3 ] in
      check_int (an ^ " checksum steps") r0.Loader.Process.steps
        r1.Loader.Process.steps;
      check_int (an ^ " checksum result") r0.Loader.Process.ret
        r1.Loader.Process.ret;
      check_int (an ^ " register file width")
        (Array.length r0.Loader.Process.regs)
        (Array.length r1.Loader.Process.regs);
      let text_resident p v =
        (* inside the main image (below __bss_start, within the mapped
           image window) — e.g. the ARM PC after the final return *)
        let bss = Loader.Process.symbol p "__bss_start" in
        v < bss && bss - v < 0x10_0000
      in
      Array.iteri
        (fun i v0 ->
          let v1 = r1.Loader.Process.regs.(i) in
          if v0 <> v1 then
            check_bool
              (Printf.sprintf "%s reg %d differs only if text-resident" an i)
              true
              (text_resident p0 v0 && text_resident p1 v1))
        r0.Loader.Process.regs)
    both_isas

(* {1 Enforced mitigations: shadow stack + forward-edge CFI} *)

(* Zero false positives: benign parses and even crashing (DoS) parses
   behave bit-identically under the enforcement hook — the checks only fire
   on control-flow the static image never produces. *)
let test_mitigations_benign () =
  List.iter
    (fun arch ->
      let an = arch_name arch in
      let plain = Connman.Dnsproxy.create (cfg arch Defense.Profile.wx) in
      let hard =
        Connman.Dnsproxy.create
          (cfg arch (Defense.Profile.with_mitigations Defense.Profile.wx))
      in
      let d0 = Connman.Dnsproxy.handle_response plain (benign_wire plain) in
      let s0 = Connman.Dnsproxy.last_steps plain in
      let d1 = Connman.Dnsproxy.handle_response hard (benign_wire hard) in
      let s1 = Connman.Dnsproxy.last_steps hard in
      Alcotest.check disp (an ^ " benign disposition under mitigation") d0 d1;
      check_int (an ^ " benign steps under mitigation") s0 s1)
    both_isas

let test_mitigations_crash_loop () =
  List.iter
    (fun arch ->
      let an = arch_name arch in
      let plain = Connman.Dnsproxy.create (cfg arch Defense.Profile.wx) in
      let hard =
        Connman.Dnsproxy.create
          (cfg arch (Defense.Profile.with_mitigations Defense.Profile.wx))
      in
      (* a crash-looping daemon under a supervisor: the mitigated build
         must crash for the same reason at the same step on every boot,
         never misattribute the wild write to a CFI violation *)
      for boot = 1 to 3 do
        let d0 = Connman.Dnsproxy.handle_response plain (dos_wire plain) in
        let s0 = Connman.Dnsproxy.last_steps plain in
        let d1 = Connman.Dnsproxy.handle_response hard (dos_wire hard) in
        let s1 = Connman.Dnsproxy.last_steps hard in
        (match (d0, d1) with
        | Connman.Dnsproxy.Crashed r0, Connman.Dnsproxy.Crashed r1 ->
            check_string
              (Printf.sprintf "%s boot %d crash reason" an boot)
              (Format.asprintf "%a" Machine.Outcome.pp r0)
              (Format.asprintf "%a" Machine.Outcome.pp r1)
        | _, Connman.Dnsproxy.Blocked _ ->
            Alcotest.failf "%s boot %d: mitigation false positive on DoS" an
              boot
        | _ -> Alcotest.failf "%s boot %d: DoS did not crash both" an boot);
        check_int (Printf.sprintf "%s boot %d crash step count" an boot) s0 s1;
        Connman.Dnsproxy.restart plain;
        Connman.Dnsproxy.restart hard
      done)
    both_isas

(* The decision table: shadow stack + forward CFI block all six §III
   payloads (every one pivots through a corrupted return slot), while
   forward-edge CFI alone blocks none — and [Exploit.Autogen]'s oracle
   agrees with what the interpreters actually do. *)
let test_mitigations_block_exploits () =
  List.iter
    (fun arch ->
      let an = arch_name arch in
      List.iter
        (fun (id, profile, strategy) ->
          let hard = Defense.Profile.with_mitigations profile in
          check_bool
            (Printf.sprintf "%s %s oracle: mitigated profile blocks" an id)
            false
            (Exploit.Autogen.expected_success hard strategy);
          check_bool
            (Printf.sprintf "%s %s oracle names the shadow stack" an id)
            true
            (List.mem "shstk" (Exploit.Autogen.mitigated_by hard strategy));
          (* payload built against a stock-profile analysis image; the
             victim runs the same layout with enforcement on *)
          let victim = Connman.Dnsproxy.create (cfg arch hard) in
          let analysis =
            Connman.Dnsproxy.process
              (Connman.Dnsproxy.create (cfg arch profile))
          in
          (match
             Exploit.Autogen.generate
               ~analysis:(Exploit.Target.connman analysis) ~strategy ()
           with
          | Error e -> Alcotest.fail ("payload generation failed: " ^ e)
          | Ok (_, raw_name) -> (
              let q = Connman.Dnsproxy.make_query victim lookup in
              let wire = Exploit.Autogen.response_for ~query:q ~raw_name in
              match Connman.Dnsproxy.handle_response victim wire with
              | Connman.Dnsproxy.Blocked _ -> ()
              | d ->
                  Alcotest.failf "%s %s not blocked under mitigations: %a" an
                    id Connman.Dnsproxy.pp_disposition d));
          (* forward-edge CFI alone: no return-edge checks, so every
             §III payload still lands *)
          let fwd = Defense.Profile.with_forward_cfi profile in
          check_bool
            (Printf.sprintf "%s %s oracle: forward CFI alone is bypassed" an
               id)
            true
            (Exploit.Autogen.expected_success fwd strategy);
          let d, _ = exploit_once (cfg arch fwd) strategy in
          match d with
          | Connman.Dnsproxy.Compromised _ -> ()
          | d ->
              Alcotest.failf "%s %s under forward CFI alone: %a" an id
                Connman.Dnsproxy.pp_disposition d)
        (cells arch))
    both_isas

(* {1 ASLR entropy × diversity sweep} *)

(* Hardcoded-libc ret2libc against independently-booted devices: success
   decays with ASLR entropy; per-boot code-layout diversity never makes
   the attacker's life easier.  Forks share the template's ASLR draw, so
   this sweep uses full boots — entropy only exists across boots. *)
let test_entropy_diversity_sweep () =
  let n = 32 in
  let rate ~bits ~div =
    let profile =
      if bits = 0 then Defense.Profile.wx
      else Defense.Profile.with_entropy bits Defense.Profile.wx
    in
    let analysis_cfg =
      { Connman.Dnsproxy.default_config with
        arch = Loader.Arch.X86; profile; boot_seed = 4242 }
    in
    let analysis =
      Connman.Dnsproxy.process (Connman.Dnsproxy.create analysis_cfg)
    in
    match
      Exploit.Autogen.generate ~analysis:(Exploit.Target.connman analysis)
        ~strategy:Exploit.Autogen.Ret2libc ()
    with
    | Error e -> Alcotest.fail ("ret2libc generation failed: " ^ e)
    | Ok (_, raw_name) ->
        let hits = ref 0 in
        for i = 0 to n - 1 do
          let c =
            { analysis_cfg with
              boot_seed = 100 + i;
              diversity_seed =
                (if div then Some (Diversity.Pool.seed_for ~master:0xD17 i)
                 else None) }
          in
          let victim = Connman.Dnsproxy.create c in
          let q = Connman.Dnsproxy.make_query victim lookup in
          let wire = Exploit.Autogen.response_for ~query:q ~raw_name in
          match Connman.Dnsproxy.handle_response victim wire with
          | Connman.Dnsproxy.Compromised _ -> incr hits
          | _ -> ()
        done;
        float_of_int !hits /. float_of_int n
  in
  List.iter
    (fun div ->
      let label = if div then "diversified" else "stock" in
      let rates = List.map (fun bits -> (bits, rate ~bits ~div)) [ 0; 2; 4; 8 ] in
      check_bool (label ^ ": zero entropy is deterministic") true
        (List.assoc 0 rates = 1.0);
      check_bool (label ^ ": 8 bits nearly always survives") true
        (List.assoc 8 rates < 0.1);
      let rec monotone = function
        | (b0, r0) :: ((b1, r1) :: _ as rest) ->
            check_bool
              (Printf.sprintf "%s: survival at %d bits <= at %d bits" label b1
                 b0)
              true (r1 <= r0);
            monotone rest
        | _ -> ()
      in
      monotone rates;
      (* diversity must not help the attacker at any entropy level *)
      if div then
        List.iter
          (fun (bits, r) ->
            check_bool
              (Printf.sprintf "diversified rate at %d bits <= stock" bits)
              true
              (r <= rate ~bits ~div:false))
          rates)
    [ false; true ]

(* {1 Survival matrix} *)

let test_matrix_headline () =
  let r1 =
    Core.Experiments.diversity_matrix ~seed:3 ~smoke:true ~variants:6 ()
  in
  check_bool "report self-check passes" true r1.Core.Experiments.div_ok;
  check_int "all seven cells present" 7
    (List.length r1.Core.Experiments.div_cells);
  (* the headline: cells whose stock image falls to every single trial
     drop to (here) zero under layout diversity + shadow-stack CFI *)
  let headline =
    List.exists
      (fun c ->
        let combo name =
          List.find
            (fun x -> x.Core.Experiments.combo = name)
            c.Core.Experiments.div_combos
        in
        String.length c.Core.Experiments.div_id = 2
        && (combo "base").Core.Experiments.combo_rate = 1.0
        && (combo "div+shstk").Core.Experiments.combo_rate < 0.1)
      r1.Core.Experiments.div_cells
  in
  check_bool "an always-successful cell drops below 10% survival" true
    headline;
  (* variant stats are wired through from the generator and the gadget
     scanner *)
  List.iter
    (fun c ->
      List.iter
        (fun x ->
          let open Core.Experiments in
          if x.combo_diversified then begin
            check_bool (c.div_id ^ " " ^ x.combo ^ " gadget baseline") true
              (x.combo_gadgets_baseline > 0);
            check_bool
              (c.div_id ^ " " ^ x.combo ^ " gadget addresses mostly die")
              true
              (x.combo_gadget_survival_mean < 0.5);
            check_bool (c.div_id ^ " " ^ x.combo ^ " layout moved") true
              (x.combo_moved_mean > 0.0);
            check_bool (c.div_id ^ " " ^ x.combo ^ " variant sample") true
              (x.combo_variant_sample <> []);
            List.iter
              (fun v ->
                check_bool "sample variant scanned" true (v.var_gadgets > 0))
              x.combo_variant_sample
          end)
        c.Core.Experiments.div_combos)
    r1.Core.Experiments.div_cells

let test_matrix_filters () =
  let r =
    Core.Experiments.diversity_matrix ~seed:5 ~smoke:true ~variants:2
      ~arch:Loader.Arch.X86 ()
  in
  check_int "x86 filter selects four cells" 4
    (List.length r.Core.Experiments.div_cells);
  List.iter
    (fun c -> check_string "cell arch" "x86" c.Core.Experiments.div_arch)
    r.Core.Experiments.div_cells;
  Alcotest.check_raises "empty selection rejected"
    (Invalid_argument "Experiments.diversity_matrix: no cell matches the filter")
    (fun () ->
      ignore
        (Core.Experiments.diversity_matrix ~smoke:true ~variants:2
           ~arch:Loader.Arch.Arm
           ~base_profile:(Defense.Profile.with_seccomp Defense.Profile.none)
           ()))

(* {1 Fleet cohort hook} *)

let test_fleet_cohort () =
  let cfg =
    { Fleet.Campaign.smoke_config with Fleet.Campaign.diversity_frac = 0.5 }
  in
  let r = Fleet.Campaign.run cfg in
  let open Fleet.Campaign in
  check_bool "some devices diversified" true (r.r_diversified > 0);
  check_bool "mixed cohort (not all diversified)" true
    (r.r_diversified < cfg.devices);
  check_bool "cohort counts bounded" true
    (r.r_div_compromised <= r.r_diversified
    && r.r_div_compromised + r.r_stock_compromised
       <= r.r_compromised_devices);
  let j = Fleet.Campaign.json r in
  let contains needle =
    let nl = String.length needle and hl = String.length j in
    let rec go i = i + nl <= hl && (String.sub j i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check_bool (key ^ " serialized") true (contains ("\"" ^ key ^ "\"")))
    [ "diversity_frac"; "diversified_devices"; "div_compromised_devices";
      "stock_compromised_devices" ]


(* {1 Image pinning}

   Every byte the assemblers and the loader produce, folded into one MD5:
   connmand (both versions x three profiles x both ISAs, stock and at
   diversity seeds 1-1000, each reimaged into the stock process or booted
   when it does not fit), dnsmasq-sim and tcpsvc-sim (patched and
   unpatched), and libc and the PLT at three bases.  A booted image
   contributes its text, PLT and GOT bytes and its whole symbol table, in
   order.  The expected value was computed before the assemblers shared
   one core: an assembler or loader refactor must leave it unchanged,
   while a change to a program's code moves it by design (recompute it
   then, at the commit that makes the change). *)

let image_digest () =
  let acc = Buffer.create (1 lsl 16) in
  let add parts = Buffer.add_string acc (Digest.string (String.concat "" parts)) in
  let syms l =
    String.concat ";" (List.map (fun (n, a) -> Printf.sprintf "%s=%x" n a) l)
  in
  let region p base size = Memsim.Memory.peek_bytes p.Loader.Process.mem base size in
  let add_process p =
    let l = p.Loader.Process.layout in
    add
      [
        region p l.Loader.Layout.text_base l.Loader.Layout.text_size;
        region p l.Loader.Layout.plt_base l.Loader.Layout.plt_size;
        region p l.Loader.Layout.got_base l.Loader.Layout.got_size;
        syms p.Loader.Process.symbols;
      ]
  in
  let boot spec profile = Loader.Process.boot spec ~profile ~seed:1 in
  let wx = Defense.Profile.wx in
  let profiles =
    [ wx; Defense.Profile.with_canary wx; Defense.Profile.with_mitigations wx ]
  in
  List.iter
    (fun arch ->
      let connman version profile ?diversity_seed () =
        match arch with
        | Loader.Arch.X86 ->
            Connman.Program_x86.spec ~version ~profile ?diversity_seed ()
        | Loader.Arch.Arm ->
            Connman.Program_arm.spec ~version ~profile ?diversity_seed ()
      in
      List.iter
        (fun version ->
          List.iter
            (fun profile ->
              let stock = boot (connman version profile ()) profile in
              add_process stock;
              let l = stock.Loader.Process.layout in
              for seed = 1 to 1000 do
                let spec = connman version profile ~diversity_seed:seed () in
                match Loader.Process.reimage stock spec with
                | Some p ->
                    add
                      [
                        region p l.Loader.Layout.text_base l.Loader.Layout.text_size;
                        syms p.Loader.Process.symbols;
                      ]
                | None -> add_process (boot spec profile)
              done)
            profiles)
        [ Connman.Version.v1_34; Connman.Version.v1_35 ];
      List.iter
        (fun patched ->
          List.iter
            (fun profile ->
              let dnsmasq, tcpsvc =
                match arch with
                | Loader.Arch.X86 ->
                    ( Dnsmasq.Program_x86.spec ~patched ~profile,
                      Tcpsvc.Program_x86.spec ~patched ~profile )
                | Loader.Arch.Arm ->
                    ( Dnsmasq.Program_arm.spec ~patched ~profile,
                      Tcpsvc.Program_arm.spec ~patched ~profile )
              in
              add_process (boot dnsmasq profile);
              add_process (boot tcpsvc profile))
            profiles)
        [ false; true ];
      List.iter
        (fun shift ->
          let base = Loader.Layout.libc_base_static arch - shift in
          let code, symbols, exported =
            match arch with
            | Loader.Arch.X86 ->
                let r = Libc_sim.Libc_x86.build ~base in
                (r.Isa_x86.Asm.code, r.Isa_x86.Asm.symbols, Libc_sim.Libc_x86.exported)
            | Loader.Arch.Arm ->
                let r = Libc_sim.Libc_arm.build ~base in
                (r.Isa_arm.Asm.code, r.Isa_arm.Asm.symbols, Libc_sim.Libc_arm.exported)
          in
          add [ code; syms symbols ];
          let plt_base = Loader.Layout.text_base_of arch + 0x4000 + shift in
          let plt =
            Loader.Plt.synthesize ~arch ~plt_base ~got_base:(plt_base + 0x1000)
              ~imports:(List.map (fun f -> (f, List.assoc f symbols)) exported)
          in
          add
            [
              plt.Loader.Plt.code;
              syms plt.Loader.Plt.symbols;
              syms (List.map (fun (slot, a) -> (string_of_int slot, a)) plt.Loader.Plt.got);
            ])
        [ 0; 0x123000; 0xFFF000 ])
    both_isas;
  Digest.to_hex (Digest.string (Buffer.contents acc))

let test_image_digest () =
  check_string "every image's bytes" "c766e7792d95fb316fce1d61d5fba671" (image_digest ())

let () =
  Alcotest.run "diversity"
    [
      ( "variant generation",
        [
          Alcotest.test_case "pool seed derivation" `Quick test_pool_seeds;
          Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
          Alcotest.test_case "image digest" `Quick test_image_digest;
        ] );
      ( "differential regression",
        [
          Alcotest.test_case "benign parse identity" `Quick
            test_benign_identity;
          Alcotest.test_case "DoS identity" `Quick test_dos_identity;
          Alcotest.test_case "exploit-cell equivalence" `Quick
            test_exploit_equivalence;
          Alcotest.test_case "register-file identity" `Quick
            test_register_identity;
        ] );
      ( "embedded mitigations",
        [
          Alcotest.test_case "benign zero false positives" `Quick
            test_mitigations_benign;
          Alcotest.test_case "crash-loop zero false positives" `Quick
            test_mitigations_crash_loop;
          Alcotest.test_case "all six cells blocked" `Quick
            test_mitigations_block_exploits;
        ] );
      ( "survival",
        [
          Alcotest.test_case "entropy x diversity sweep" `Slow
            test_entropy_diversity_sweep;
          Alcotest.test_case "matrix headline" `Slow test_matrix_headline;
          Alcotest.test_case "matrix filters" `Quick test_matrix_filters;
        ] );
      ( "fleet cohorts",
        [ Alcotest.test_case "mixed-diversity fleet" `Slow test_fleet_cohort ] );
    ]
