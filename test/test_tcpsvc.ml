(* §V "crafted TCP packet" tests: the toolkit retargeted to tcpsvc-sim,
   where payload bytes travel verbatim (no DNS label constraint), so the
   adaptation is a frame swap plus a different packet-crafting step. *)

module O = Machine.Outcome
module D = Tcpsvc.Daemon
open Exploit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let daemon ?(patched = false) ~arch ~profile ?(seed = 23) () =
  D.create { D.patched; arch; profile; boot_seed = seed }

let tcpsvc_target proc =
  Target.make
    ~frame:(Tcpsvc.Frame.geometry proc.Loader.Process.arch)
    ~buffer_addr:(Tcpsvc.Frame.buffer_addr proc)
    proc

(* Build against an analysis copy, deliver as a framed message with the
   payload bytes verbatim — the §V "modify the packet creation
   algorithm" step. *)
let fire d strategy =
  let analysis =
    D.process
      (daemon ~arch:(D.process d).Loader.Process.arch
         ~profile:(D.process d).Loader.Process.profile ~seed:5151 ())
  in
  match Autogen.build ~analysis:(tcpsvc_target analysis) strategy with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Payload.pp_error e)
  | Ok payload -> D.handle_frame d (D.frame ~tag:(Payload.to_raw_bytes payload))

let expect_shell name d strategy =
  match fire d strategy with
  | D.Compromised reason -> check_bool (name ^ ": shell") true (O.is_shell reason)
  | other -> Alcotest.failf "%s: expected shell, got %a" name D.pp_disposition other

(* --- plumbing --- *)

let test_benign_frame () =
  List.iter
    (fun arch ->
      let d = daemon ~arch ~profile:Defense.Profile.wx () in
      (match D.handle_frame d (D.frame ~tag:"sensor-42") with
      | D.Handled -> ()
      | other -> Alcotest.failf "expected Handled, got %a" D.pp_disposition other);
      (* The tag really landed in the guest buffer. *)
      let proc = D.process d in
      Alcotest.(check string)
        "tag copied" "sensor-42"
        (Memsim.Memory.peek_bytes proc.Loader.Process.mem
           (Tcpsvc.Frame.buffer_addr proc) 9))
    [ Loader.Arch.X86; Loader.Arch.Arm ]

let test_bad_magic_rejected () =
  let d = daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx () in
  match D.handle_frame d "XXxxgarbage" with
  | D.Rejected _ -> check_bool "alive" true (D.alive d)
  | other -> Alcotest.failf "expected Rejected, got %a" D.pp_disposition other

let test_oversized_tag_crashes () =
  List.iter
    (fun arch ->
      let d = daemon ~arch ~profile:Defense.Profile.wx () in
      match D.handle_frame d (D.frame ~tag:(String.make 8192 'A')) with
      | D.Crashed _ -> check_bool "dead" false (D.alive d)
      | other -> Alcotest.failf "expected crash, got %a" D.pp_disposition other)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

let test_patched_rejects_oversize () =
  let d = daemon ~patched:true ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx () in
  match D.handle_frame d (D.frame ~tag:(String.make 8192 'A')) with
  | D.Rejected _ -> check_bool "alive" true (D.alive d)
  | other -> Alcotest.failf "expected Rejected, got %a" D.pp_disposition other

let test_restart_draws_fresh_address_space () =
  let d = daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx_aslr () in
  let before = (D.process d).Loader.Process.layout in
  (match D.handle_frame d (D.frame ~tag:(String.make 8192 'A')) with
  | D.Crashed _ -> ()
  | other -> Alcotest.failf "expected crash, got %a" D.pp_disposition other);
  D.restart d;
  check_bool "alive again" true (D.alive d);
  let after = (D.process d).Loader.Process.layout in
  check_bool "libc moved" true
    (after.Loader.Layout.libc_base <> before.Loader.Layout.libc_base);
  check_bool "stack moved" true
    (after.Loader.Layout.stack_top <> before.Loader.Layout.stack_top);
  match D.handle_frame d (D.frame ~tag:"sensor-42") with
  | D.Handled -> ()
  | other -> Alcotest.failf "after restart: %a" D.pp_disposition other

(* --- adapted strategies, verbatim carrier --- *)

let test_adapted_matrix () =
  expect_shell "x86 inject"
    (daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.none ())
    Autogen.Code_injection;
  expect_shell "arm inject"
    (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.none ())
    Autogen.Code_injection;
  expect_shell "x86 ret2libc"
    (daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx ())
    Autogen.Ret2libc;
  expect_shell "arm rop-wx"
    (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx ())
    Autogen.Rop_wx;
  expect_shell "x86 rop-aslr"
    (daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx_aslr ())
    Autogen.Rop_aslr;
  expect_shell "arm rop-aslr"
    (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx_aslr ())
    Autogen.Rop_aslr

let test_payload_carries_nul_bytes_verbatim () =
  (* The raw carrier's defining property versus DNS labels (and versus
     strcpy-borne exploits): NUL bytes travel untouched.  An ARM chain is
     full of them (r1 = NULL, addresses like 0x00010xxx). *)
  let analysis =
    D.process (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx ~seed:5151 ())
  in
  match Autogen.build ~analysis:(tcpsvc_target analysis) Autogen.Rop_wx with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Payload.pp_error e)
  | Ok payload ->
      let bytes = Payload.to_raw_bytes payload in
      let nuls = String.fold_left (fun n c -> if c = '\x00' then n + 1 else n) 0 bytes in
      check_bool "chain contains many NUL bytes" true (nuls > 8);
      let d = daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx () in
      (match D.handle_frame d (D.frame ~tag:bytes) with
      | D.Compromised r -> check_bool "shell" true (O.is_shell r)
      | other -> Alcotest.failf "expected shell, got %a" D.pp_disposition other);
      (* And the guest buffer holds the payload byte-for-byte. *)
      let proc = D.process d in
      check_int "buffer matches payload prefix" 0
        (compare
           (Memsim.Memory.peek_bytes proc.Loader.Process.mem
              (Tcpsvc.Frame.buffer_addr proc)
              (min 64 (String.length bytes)))
           (String.sub bytes 0 (min 64 (String.length bytes))))

let test_patched_resists_exploits () =
  let d = daemon ~patched:true ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx () in
  match fire d Autogen.Rop_wx with
  | D.Rejected _ -> check_bool "alive" true (D.alive d)
  | other -> Alcotest.failf "expected Rejected, got %a" D.pp_disposition other

let test_defenses_hold () =
  (let d =
     daemon ~arch:Loader.Arch.Arm
       ~profile:Defense.Profile.(with_canary wx) ()
   in
   match fire d Autogen.Rop_wx with
   | D.Blocked (O.Aborted _) -> ()
   | other -> Alcotest.failf "canary: %a" D.pp_disposition other);
  (let d =
     daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.(with_shadow_stack wx) ()
   in
   match fire d Autogen.Rop_wx with
   | D.Blocked (O.Cfi_violation _) -> ()
   | other -> Alcotest.failf "cfi: %a" D.pp_disposition other);
  let d =
    daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.(with_seccomp wx) ()
  in
  match fire d Autogen.Rop_wx with
  | D.Blocked (O.Aborted _) -> ()
  | other -> Alcotest.failf "seccomp: %a" D.pp_disposition other

let test_remote_delivery_over_netsim () =
  (* The §V service attacked across the simulated network: an attacker
     host sends the framed payload to the service's port. *)
  let module W = Netsim.World in
  let w = W.create () in
  let lan = W.add_lan w ~name:"lan" in
  let svc_host = W.add_host w ~name:"appliance" in
  W.set_host_ip svc_host (Some (Netsim.Ip.of_string "10.0.0.9"));
  W.attach svc_host lan;
  let d = daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx_aslr () in
  let last = ref None in
  W.on_udp svc_host ~port:4444 (fun _ dgram ->
      last := Some (D.handle_frame d dgram.W.payload));
  let attacker = W.add_host w ~name:"attacker" in
  W.set_host_ip attacker (Some (Netsim.Ip.of_string "10.0.0.66"));
  W.attach attacker lan;
  let analysis =
    D.process
      (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx_aslr ~seed:5151 ())
  in
  (match Autogen.build ~analysis:(tcpsvc_target analysis) Autogen.Rop_aslr with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Payload.pp_error e)
  | Ok payload ->
      W.send w ~from:attacker ~dst:(Netsim.Ip.of_string "10.0.0.9") ~dport:4444
        (D.frame ~tag:(Payload.to_raw_bytes payload)));
  ignore (W.run w);
  match !last with
  | Some (D.Compromised r) -> check_bool "remote shell" true (O.is_shell r)
  | other ->
      Alcotest.failf "expected remote compromise, got %s"
        (match other with
        | Some d -> Format.asprintf "%a" D.pp_disposition d
        | None -> "no frame delivered")

let () =
  Alcotest.run "tcpsvc"
    [
      ( "daemon",
        [
          Alcotest.test_case "benign frame" `Quick test_benign_frame;
          Alcotest.test_case "bad magic rejected" `Quick test_bad_magic_rejected;
          Alcotest.test_case "oversized tag crashes" `Quick
            test_oversized_tag_crashes;
          Alcotest.test_case "patched rejects oversize" `Quick
            test_patched_rejects_oversize;
          Alcotest.test_case "restart draws a fresh address space" `Quick
            test_restart_draws_fresh_address_space;
        ] );
      ( "adapted §III matrix (verbatim carrier)",
        [
          Alcotest.test_case "all six strategies" `Quick test_adapted_matrix;
          Alcotest.test_case "NUL bytes travel verbatim" `Quick
            test_payload_carries_nul_bytes_verbatim;
          Alcotest.test_case "patched resists" `Quick test_patched_resists_exploits;
          Alcotest.test_case "defenses hold" `Quick test_defenses_hold;
          Alcotest.test_case "remote delivery over netsim" `Quick
            test_remote_delivery_over_netsim;
        ] );
    ]
